package topk

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestNewPanicsOnNonPositiveK(t *testing.T) {
	for _, k := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) should panic", k)
				}
			}()
			New(k)
		}()
	}
}

func TestHeapKeepsKSmallest(t *testing.T) {
	h := New(3)
	dists := []float32{5, 1, 9, 3, 7, 2}
	for i, d := range dists {
		h.Push(Result{VectorID: int64(i), Distance: d})
	}
	got := h.Results()
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	want := []float32{1, 2, 3}
	for i := range want {
		if got[i].Distance != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i].Distance, want[i])
		}
	}
}

// TestHeapUnderfilled also covers a k far beyond any result count, for
// which New must not preallocate k results.
func TestHeapUnderfilled(t *testing.T) {
	for _, k := range []int{10, math.MaxInt} {
		h := New(k)
		h.Push(Result{VectorID: 1, Distance: 2})
		h.Push(Result{VectorID: 2, Distance: 1})
		if _, ok := h.WorstDistance(); ok {
			t.Errorf("k=%d: WorstDistance should report not-full", k)
		}
		got := h.Results()
		if len(got) != 2 || got[0].VectorID != 2 || got[1].VectorID != 1 {
			t.Errorf("k=%d: Results = %+v", k, got)
		}
	}
}

func TestAcceptsMatchesPush(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := New(5)
	for i := 0; i < 200; i++ {
		d := rng.Float32()
		accepts := h.Accepts(d)
		pushed := h.Push(Result{VectorID: int64(i), Distance: d})
		if accepts != pushed {
			t.Fatalf("iteration %d: Accepts=%v but Push=%v", i, accepts, pushed)
		}
	}
}

func TestWorstDistanceTracksRoot(t *testing.T) {
	h := New(2)
	h.Push(Result{VectorID: 1, Distance: 10})
	h.Push(Result{VectorID: 2, Distance: 20})
	if d, ok := h.WorstDistance(); !ok || d != 20 {
		t.Fatalf("WorstDistance = %v,%v want 20,true", d, ok)
	}
	h.Push(Result{VectorID: 3, Distance: 5})
	if d, ok := h.WorstDistance(); !ok || d != 10 {
		t.Fatalf("after eviction WorstDistance = %v,%v want 10,true", d, ok)
	}
}

func TestResultsTieBreakByVectorID(t *testing.T) {
	h := New(4)
	h.Push(Result{VectorID: 9, Distance: 1})
	h.Push(Result{VectorID: 3, Distance: 1})
	h.Push(Result{VectorID: 7, Distance: 1})
	got := h.Results()
	if got[0].VectorID != 3 || got[1].VectorID != 7 || got[2].VectorID != 9 {
		t.Errorf("tie-break order = %+v", got)
	}
}

// TestPushOrderIndependentUnderTies pins the property that motivated the
// (Distance, VectorID) total order: with coarsely quantized distances many
// candidates tie exactly at the heap boundary, and the retained set must not
// depend on the order candidates arrive — concurrent scan workers sharing a
// heap push in nondeterministic order.
func TestPushOrderIndependentUnderTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cands := make([]Result, 60)
	for i := range cands {
		// Only 4 distinct distances across 60 candidates: heavy ties.
		cands[i] = Result{VectorID: int64(i), Distance: float32(rng.Intn(4))}
	}
	push := func(order []Result) []Result {
		h := New(10)
		for _, r := range order {
			h.Push(r)
		}
		return h.Results()
	}
	want := push(cands)
	for trial := 0; trial < 50; trial++ {
		perm := make([]Result, len(cands))
		for i, j := range rng.Perm(len(cands)) {
			perm[i] = cands[j]
		}
		got := push(perm)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len = %d, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: [%d] = %+v, want %+v (retained set depends on push order)",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestHeapMatchesSortReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		k := 1 + rng.Intn(50)
		dists := make([]float32, n)
		h := New(k)
		for i := 0; i < n; i++ {
			dists[i] = rng.Float32()
			h.Push(Result{VectorID: int64(i), Distance: dists[i]})
		}
		sort.Slice(dists, func(i, j int) bool { return dists[i] < dists[j] })
		want := k
		if n < k {
			want = n
		}
		got := h.Results()
		if len(got) != want {
			return false
		}
		for i := range got {
			if got[i].Distance != dists[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	h1, h2, h3 := New(3), New(3), New(3)
	for i, d := range []float32{1, 4, 7} {
		h1.Push(Result{VectorID: int64(i), Distance: d})
	}
	for i, d := range []float32{2, 5, 8} {
		h2.Push(Result{VectorID: int64(10 + i), Distance: d})
	}
	for i, d := range []float32{3, 6, 9} {
		h3.Push(Result{VectorID: int64(20 + i), Distance: d})
	}
	got := Merge(4, h1, h2, h3)
	want := []float32{1, 2, 3, 4}
	if len(got) != 4 {
		t.Fatalf("len = %d, want 4", len(got))
	}
	for i := range want {
		if got[i].Distance != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i].Distance, want[i])
		}
	}
}

func TestMergeHandlesNilAndEmpty(t *testing.T) {
	h := New(2)
	h.Push(Result{VectorID: 1, Distance: 1})
	got := Merge(5, nil, New(3), h)
	if len(got) != 1 || got[0].VectorID != 1 {
		t.Errorf("Merge = %+v", got)
	}
	if got := Merge(3); len(got) != 0 {
		t.Errorf("Merge() = %+v, want empty", got)
	}
}

func TestMergeEquivalentToGlobalHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		nWorkers := 1 + rng.Intn(5)
		heaps := make([]*Heap, nWorkers)
		for i := range heaps {
			heaps[i] = New(k)
		}
		global := New(k)
		n := rng.Intn(300)
		for i := 0; i < n; i++ {
			r := Result{VectorID: int64(i), Distance: rng.Float32()}
			heaps[rng.Intn(nWorkers)].Push(r)
			global.Push(r)
		}
		got := Merge(k, heaps...)
		want := global.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPush(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	dists := make([]float32, 4096)
	for i := range dists {
		dists[i] = rng.Float32()
	}
	b.ResetTimer()
	h := New(100)
	for i := 0; i < b.N; i++ {
		h.Push(Result{VectorID: int64(i), Distance: dists[i%len(dists)]})
	}
}

// TestResultSize: the residual bound fills the padding after Distance, so a
// Result stays 32 bytes on 64-bit platforms; candidate lists do not grow.
func TestResultSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the 32-byte layout is a 64-bit platform's")
	}
	if n := unsafe.Sizeof(Result{}); n != 32 {
		t.Fatalf("Result is %d bytes, want 32", n)
	}
}
