package main

import (
	"math/rand"
	"sort"
)

// hit is one ground-truth neighbour.
type hit struct {
	id   string
	dist float32
}

// l2 is the benchmark's own squared-L2 kernel: ground truth must not share
// code with the system under test, or a kernel bug would agree with itself.
func l2(a, b []float32) float32 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// less orders hits by distance, then id, so ground truth is a total order.
func less(a, b hit) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.id < b.id
}

// exactTopK brute-forces the k nearest rows of vecs (row-major, one row per
// id) to q among the rows keep accepts (nil keeps all).
func exactTopK(q, vecs []float32, ids []string, k int, keep func(i int) bool) []hit {
	dim := len(q)
	h := make([]hit, 0, k+1) // max-heap on less
	for i := range ids {
		if keep != nil && !keep(i) {
			continue
		}
		c := hit{ids[i], l2(q, vecs[i*dim:(i+1)*dim])}
		if len(h) == k {
			if !less(c, h[0]) {
				continue
			}
			h[0] = c
			siftDown(h)
			continue
		}
		h = append(h, c)
		for j := len(h) - 1; j > 0; {
			p := (j - 1) / 2
			if !less(h[p], h[j]) {
				break
			}
			h[p], h[j] = h[j], h[p]
			j = p
		}
	}
	sort.Slice(h, func(i, j int) bool { return less(h[i], h[j]) })
	return h
}

func siftDown(h []hit) {
	for j := 0; ; {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && less(h[c], h[c+1]) {
			c++
		}
		if !less(h[j], h[c]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// liveSet is the benchmark's own copy of what the database should hold:
// every acknowledged Upsert and Delete is applied here too, so Get answers,
// deleted ids and per-op ground truth are checked against it.
type liveSet struct {
	dim  int
	ids  []string
	vecs []float32
	pos  map[string]int
}

func newLiveSet(dim, capacity int) *liveSet {
	return &liveSet{
		dim: dim, ids: make([]string, 0, capacity), vecs: make([]float32, 0, capacity*dim),
		pos: make(map[string]int, capacity),
	}
}

func (s *liveSet) len() int { return len(s.ids) }

func (s *liveSet) clone() *liveSet {
	c := newLiveSet(s.dim, cap(s.ids))
	for i, id := range s.ids {
		c.upsert(id, s.row(i))
	}
	return c
}

func (s *liveSet) row(i int) []float32 { return s.vecs[i*s.dim : (i+1)*s.dim] }

func (s *liveSet) upsert(id string, v []float32) {
	if i, ok := s.pos[id]; ok {
		copy(s.row(i), v)
		return
	}
	s.pos[id] = len(s.ids)
	s.ids = append(s.ids, id)
	s.vecs = append(s.vecs, v...)
}

// remove deletes id by moving the last row into its slot.
func (s *liveSet) remove(id string) bool {
	i, ok := s.pos[id]
	if !ok {
		return false
	}
	last := len(s.ids) - 1
	if i != last {
		s.ids[i] = s.ids[last]
		copy(s.row(i), s.row(last))
		s.pos[s.ids[i]] = i
	}
	s.ids = s.ids[:last]
	s.vecs = s.vecs[:last*s.dim]
	delete(s.pos, id)
	return true
}

func (s *liveSet) get(id string) ([]float32, bool) {
	i, ok := s.pos[id]
	if !ok {
		return nil, false
	}
	return s.row(i), true
}

func (s *liveSet) has(id string) bool { _, ok := s.pos[id]; return ok }

// pick returns a uniformly drawn live id.
func (s *liveSet) pick(rng *rand.Rand) string { return s.ids[rng.Intn(len(s.ids))] }

func (s *liveSet) topK(q []float32, k int) []hit { return exactTopK(q, s.vecs, s.ids, k, nil) }
