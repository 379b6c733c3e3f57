package ivf

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"micronn/internal/topk"
)

// TestNearestMatchesFullSort: the partial selection behind probeSet and
// MemIndex.Search picks the same indexes, in the same order, as the first
// n of a full sort under (distance with NaN last, index): with duplicated
// distances (centroids that coincide), a NaN, n of 1, and n at and past
// the number of centroids.
func TestNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(64)
		dists := make([]float32, m)
		for i := range dists {
			// Few distinct values, so most distances tie.
			dists[i] = float32(rng.Intn(1 + m/4))
		}
		if trial%10 == 0 {
			dists[rng.Intn(m)] = float32(math.NaN())
		}
		full := make([]int, m)
		for i := range full {
			full[i] = i
		}
		slices.SortFunc(full, func(a, b int) int {
			return cmp.Or(topk.CompareDistance(dists[a], dists[b]), cmp.Compare(a, b))
		})
		for _, n := range []int{1, 2, 1 + rng.Intn(m), m - 1, m, m + 3} {
			want := full[:max(0, min(n, m))]
			if got := nearest(dists, n, nil); !slices.Equal(got, want) {
				t.Fatalf("dists %v, n %d: nearest %v, full sort %v", dists, n, got, want)
			}
		}
	}
	if got := nearest([]float32{3, 1}, 0, nil); len(got) != 0 {
		t.Fatalf("n 0: nearest %v, want none", got)
	}
}
