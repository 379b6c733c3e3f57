package ivf

import (
	"math/rand"
	"testing"

	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// TestCoarseIndexCandidatesCoverNearest verifies the two-level structure:
// for a query near a known centroid, the candidate set must contain it.
func TestCoarseIndexCandidatesCoverNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const k, dim = 900, 16
	cents := vec.NewMatrix(k, dim)
	for i := 0; i < k; i++ {
		for j := 0; j < dim; j++ {
			cents.Row(i)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	ci, err := buildCoarseIndex(vec.L2, cents, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every centroid must appear in exactly one member list.
	seen := make(map[int32]bool)
	for _, members := range ci.members {
		for _, m := range members {
			if seen[m] {
				t.Fatalf("centroid %d in two super-clusters", m)
			}
			seen[m] = true
		}
	}
	if len(seen) != k {
		t.Fatalf("member lists cover %d of %d centroids", len(seen), k)
	}

	hits := 0
	const trials = 100
	for trial := 0; trial < trials; trial++ {
		target := rng.Intn(k)
		q := make([]float32, dim)
		for j := 0; j < dim; j++ {
			q[j] = cents.Row(target)[j] + float32(rng.NormFloat64()*0.01)
		}
		cand := ci.candidates(vec.L2, q, 64)
		for _, c := range cand {
			if int(c) == target {
				hits++
				break
			}
		}
	}
	// The query sits essentially on the target centroid; the coarse
	// index should almost never miss it.
	if hits < trials*95/100 {
		t.Errorf("coarse candidates contained the true centroid in %d/%d trials", hits, trials)
	}
}

// TestCoarseProbeMatchesLinearRecall searches one index of 300 partitions
// with the linear centroid ranking and again with a coarse index built over
// the same centroids, and compares their recall.
func TestCoarseProbeMatchesLinearRecall(t *testing.T) {
	data := clusteredData(9, 3000, 12, 40)
	env := newEnv(t, Config{Dim: 12, TargetPartitionSize: 10, Seed: 4})
	env.upsertAll(t, data, nil)
	env.rebuild(t)

	var linRecall, coarseRecall float64
	const queries = 30
	err := env.store.View(func(rt *storage.ReadTxn) error {
		_, linear, err := env.ix.load(rt)
		if err != nil {
			return err
		}
		if linear.cents.coarse != nil {
			t.Fatal("coarse index built below centroidIndexThreshold")
		}
		cs := *linear.cents
		if cs.coarse, err = buildCoarseIndex(vec.L2, cs.mat, 4); err != nil {
			return err
		}
		coarse := *linear
		coarse.cents = &cs
		// search runs one query with d installed as the cached derived
		// state of the snapshot's generation.
		search := func(d *derived, q []float32) ([]topk.Result, error) {
			env.ix.derived = d
			res, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 12})
			return res, err
		}

		rng := rand.New(rand.NewSource(8))
		for qi := 0; qi < queries; qi++ {
			q := data.Row(rng.Intn(data.Rows))
			want := bruteForce(vec.L2, data, q, 10)
			gotL, err := search(linear, q)
			if err != nil {
				return err
			}
			gotC, err := search(&coarse, q)
			if err != nil {
				return err
			}
			linRecall += recallOf(gotL, want)
			coarseRecall += recallOf(gotC, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	linRecall /= queries
	coarseRecall /= queries
	if coarseRecall < linRecall-0.08 {
		t.Errorf("coarse recall %.3f too far below linear %.3f", coarseRecall, linRecall)
	}
	if coarseRecall < 0.85 {
		t.Errorf("coarse recall %.3f too low", coarseRecall)
	}
}

func BenchmarkProbeSetLinearVsCoarse(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const k, dim = 8000, 32
	cents := vec.NewMatrix(k, dim)
	ids := make([]int64, k)
	for i := 0; i < k; i++ {
		ids[i] = int64(i + 1)
		for j := 0; j < dim; j++ {
			cents.Row(i)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	cs := &centroidSet{ids: ids, mat: cents, norms: cents.Norms(nil)}
	ix := &Index{cfg: Config{Dim: dim, Metric: vec.L2}}
	q := make([]float32, dim)

	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q[0] = float32(i)
			_ = ix.probeSet(cs, q, 16)
		}
	})

	coarse, err := buildCoarseIndex(vec.L2, cents, 1)
	if err != nil {
		b.Fatal(err)
	}
	csCoarse := &centroidSet{ids: ids, mat: cents, norms: cents.Norms(nil), coarse: coarse}
	b.Run("two-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q[0] = float32(i)
			_ = ix.probeSet(csCoarse, q, 16)
		}
	})
}
