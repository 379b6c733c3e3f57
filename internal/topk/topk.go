// Package topk implements the bounded result heaps used during ANN search.
//
// A search keeps one Heap per query of the K best (smallest-distance)
// candidates seen so far (Algorithm 2, lines 2 and 11 of the paper). The
// scan workers of a search share it under a lock, which is sound because
// the heap orders candidates by the total order (Distance, VectorID): the
// retained set does not depend on the order in which workers push. A
// bounded max-heap makes the per-candidate cost O(log K) with an O(1)
// reject test against the current worst member. Merge combines separately
// filled heaps, such as the in-memory baseline's per-worker heaps.
package topk

import (
	"cmp"
	"slices"
)

// Result is a single search hit: the caller-supplied identifier of the
// vector's asset, the internal vector id, and its distance from the query.
// Residual is set on the approximate candidates of a quantized scan only:
// the decoded residual bound of the row (quant.ResidualBound), +Inf for a
// row without one, which the exact rerank turns into a lower bound on the
// row's exact distance. It fills what would be padding, so a Result stays
// 32 bytes on 64-bit platforms.
type Result struct {
	AssetID  string
	VectorID int64
	Distance float32
	Residual float32
}

// Heap is a bounded max-heap of the K nearest results. The root is the
// *worst* retained candidate so it can be evicted in O(log K) when a better
// one arrives. The zero Heap is unusable; create with New.
//
// Ordering is the total order (Distance, VectorID), not distance alone:
// quantized scans produce exact distance ties at the heap boundary, and with
// a distance-only comparison the retained set would depend on push order —
// which is nondeterministic when concurrent workers share a heap.
type Heap struct {
	k     int
	items []Result
}

// preallocMax caps New's up-front allocation. A heap holds no more results
// than were pushed, so a huge k must not reserve memory for k of them; the
// heap grows on demand past this.
const preallocMax = 1024

// New returns a Heap retaining at most k results. k must be positive.
func New(k int) *Heap {
	if k <= 0 {
		panic("topk: k must be positive")
	}
	return &Heap{k: k, items: make([]Result, 0, min(k, preallocMax))}
}

// K returns the heap's capacity.
func (h *Heap) K() int { return h.k }

// Len returns the number of results currently held.
func (h *Heap) Len() int { return len(h.items) }

// WorstDistance returns the distance of the worst retained result, or
// +Inf-like behaviour via ok=false when the heap is not yet full. Callers
// use it to skip Push for candidates that cannot qualify.
func (h *Heap) WorstDistance() (d float32, ok bool) {
	if len(h.items) < h.k {
		return 0, false
	}
	return h.items[0].Distance, true
}

// Accepts reports whether a candidate at distance d could enter the heap.
// It is a conservative pre-filter: a candidate tying the worst retained
// distance may still be rejected by Push on the VectorID tie-break.
func (h *Heap) Accepts(d float32) bool {
	if len(h.items) < h.k {
		return true
	}
	return d <= h.items[0].Distance
}

// less reports whether a ranks strictly better than b.
func less(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.VectorID < b.VectorID
}

// Push offers a candidate. It returns true if the candidate was retained.
func (h *Heap) Push(r Result) bool {
	if len(h.items) < h.k {
		h.items = append(h.items, r)
		h.siftUp(len(h.items) - 1)
		return true
	}
	if !less(r, h.items[0]) {
		return false
	}
	h.items[0] = r
	h.siftDown(0)
	return true
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// Results drains the heap and returns the retained candidates sorted by
// ascending distance (ties broken by VectorID for determinism). The heap is
// empty afterwards.
func (h *Heap) Results() []Result {
	out := h.Drain()
	sortResults(out)
	return out
}

// Drain empties the heap and returns the retained candidates unsorted, in
// an order that depends on the order they were pushed in. It suits a
// caller that orders them by a key of its own.
func (h *Heap) Drain() []Result {
	out := h.items
	h.items = nil
	return out
}

// Merge combines separately filled heaps into a single sorted top-K list:
// the union of all retained candidates is reduced to the K best overall.
func Merge(k int, heaps ...*Heap) []Result {
	total := 0
	for _, h := range heaps {
		if h != nil {
			total += h.Len()
		}
	}
	all := make([]Result, 0, total)
	for _, h := range heaps {
		if h != nil {
			all = append(all, h.items...)
			h.items = nil
		}
	}
	sortResults(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sortResults sorts by the total order (Distance with NaN last, VectorID),
// so the output does not depend on the input's order.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		return cmp.Or(CompareDistance(a.Distance, b.Distance), cmp.Compare(a.VectorID, b.VectorID))
	})
}

// CompareDistance orders distances ascending with NaN after every number.
func CompareDistance(a, b float32) int {
	if a != a || b != b { // cmp.Compare puts NaN first: swap the operands
		return cmp.Compare(b, a)
	}
	return cmp.Compare(a, b)
}
