package ivf

import (
	"micronn/internal/clustering"
	"micronn/internal/vec"
)

// Two-level centroid index. The paper's search scans the full centroid list
// per query (§3.3) and notes that for very large partition counts — the
// DEEPImage case in §4.3.3, where ≈100k centroids dominate batch cost —
// "additional indexing over the centroids would reduce the overhead of the
// centroid scan", leaving it beyond the paper's scope. This file implements
// that extension: the centroids are themselves clustered into ~sqrt(k)
// super-clusters; a probe first ranks super-centroids, then ranks only the
// centroids inside the nearest super-clusters.
//
// The coarse search is approximate (a true nearest centroid can hide in an
// unprobed super-cluster), so it activates only past a size threshold where
// the linear scan actually hurts, and it over-fetches super-clusters until
// a safety multiple of the requested probe count is covered.

// centroidIndexThreshold is the partition count above which the coarse
// index is built. Below it a linear scan is faster than two hops.
const centroidIndexThreshold = 4096

// coarseOverfetch is the safety multiple: super-clusters are taken until
// they cover at least coarseOverfetch*nprobe centroids.
const coarseOverfetch = 4

// coarseIndex is the in-memory two-level structure over one centroidSet.
type coarseIndex struct {
	supers     *vec.Matrix // super-centroid vectors
	superNorms []float32
	members    [][]int32 // super -> indices into the centroidSet
}

// buildCoarseIndex clusters the centroid matrix into ~sqrt(k) groups.
func buildCoarseIndex(metric vec.Metric, cents *vec.Matrix, seed int64) (*coarseIndex, error) {
	k := cents.Rows
	k2 := 1
	for k2*k2 < k {
		k2++
	}
	res, err := clustering.MiniBatchKMeans(clustering.Config{
		K:                 k2,
		TargetClusterSize: (k + k2 - 1) / k2,
		BatchSize:         2048,
		Metric:            metric,
		Seed:              seed,
	}, clustering.MatrixSource{M: cents})
	if err != nil {
		return nil, err
	}
	ci := &coarseIndex{
		supers:     res.Centroids,
		superNorms: res.Centroids.Norms(nil),
		members:    make([][]int32, res.Centroids.Rows),
	}
	scratch := make([]float32, res.Centroids.Rows)
	for i := 0; i < k; i++ {
		s := clustering.Assign(metric, res.Centroids, cents.Row(i), scratch)
		ci.members[s] = append(ci.members[s], int32(i))
	}
	return ci, nil
}

// candidates returns the centroid indices inside the nearest super-clusters
// covering at least want centroids (or everything if the index degenerates).
func (ci *coarseIndex) candidates(metric vec.Metric, q []float32, want int) []int32 {
	n := ci.supers.Rows
	dists := make([]float32, n)
	vec.DistancesOneToMany(metric, q, ci.supers, l2Only(metric, ci.superNorms), dists)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Partial selection sort: supers are few (~sqrt(k)), and we usually
	// stop after a handful.
	out := make([]int32, 0, want)
	for picked := 0; picked < n && len(out) < want; picked++ {
		best := picked
		for j := picked + 1; j < n; j++ {
			if dists[order[j]] < dists[order[best]] {
				best = j
			}
		}
		order[picked], order[best] = order[best], order[picked]
		out = append(out, ci.members[order[picked]]...)
	}
	return out
}

// probeSetCoarse ranks only the candidate centroids surfaced by the coarse
// index. Falls back to nil (caller uses the linear path) when the coarse
// index is absent.
func (ix *Index) probeSetCoarse(cs *centroidSet, q []float32, nprobe int) []int64 {
	ci := cs.coarse
	if ci == nil {
		return nil
	}
	want := nprobe * coarseOverfetch
	if want > len(cs.ids) {
		want = len(cs.ids)
	}
	cand := ci.candidates(ix.cfg.Metric, q, want)
	if len(cand) < nprobe {
		return nil // degenerate clustering; use the exact path
	}
	// Rank the candidates exactly.
	dists := make([]float32, len(cand))
	for i, c := range cand {
		dists[i] = vec.Distance(ix.cfg.Metric, q, cs.mat.Row(int(c)))
	}
	parts := make([]int64, 0, nprobe+1)
	parts = append(parts, DeltaPartition)
	for _, i := range nearest(dists, nprobe, nil) {
		parts = append(parts, cs.ids[cand[i]])
	}
	return parts
}
