package ivf

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// mixture generates Gaussian-mixture vectors around explicit centers, so
// tests can aim inserts at one cluster to inflate a single partition.
type mixture struct {
	rng     *rand.Rand
	centers *vec.Matrix
}

func newMixture(seed int64, dim, centers int) *mixture {
	rng := rand.New(rand.NewSource(seed))
	ctr := vec.NewMatrix(centers, dim)
	for c := 0; c < centers; c++ {
		for j := 0; j < dim; j++ {
			ctr.Row(c)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	return &mixture{rng: rng, centers: ctr}
}

// sample draws one vector near center c (c < 0 picks a random center).
func (m *mixture) sample(c int) []float32 {
	if c < 0 {
		c = m.rng.Intn(m.centers.Rows)
	}
	v := make([]float32, m.centers.Dim)
	for j := range v {
		v[j] = m.centers.Row(c)[j] + float32(m.rng.NormFloat64())
	}
	return v
}

// maintainAll loops MaintainStep in fresh short transactions until the
// planner reports a healthy index, returning the executed actions.
func (e *testEnv) maintainAll(t testing.TB, pol MaintenancePolicy) []MaintenanceAction {
	t.Helper()
	var actions []MaintenanceAction
	for i := 0; i < 256; i++ {
		var plan *MaintenancePlan
		err := e.store.Update(func(wt *storage.WriteTxn) error {
			var serr error
			plan, _, serr = e.ix.MaintainStep(wt, pol)
			return serr
		})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Action == ActionNone {
			return actions
		}
		actions = append(actions, plan.Action)
	}
	t.Fatal("maintenance did not converge in 256 steps")
	return nil
}

func (e *testEnv) checkInvariants(t testing.TB) {
	t.Helper()
	if err := e.store.View(func(rt *storage.ReadTxn) error {
		return e.ix.CheckInvariants(rt)
	}); err != nil {
		t.Fatal(err)
	}
}

func countActions(actions []MaintenanceAction, a MaintenanceAction) int {
	n := 0
	for _, x := range actions {
		if x == a {
			n++
		}
	}
	return n
}

func TestPlanMaintenancePriorities(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 1})
	plan := func() *MaintenancePlan {
		var p *MaintenancePlan
		if err := env.store.View(func(rt *storage.ReadTxn) error {
			var err error
			p, err = env.ix.PlanMaintenance(rt, MaintenancePolicy{})
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if p := plan(); p.Action != ActionNone {
		t.Errorf("empty index plan = %s, want none", p.Action)
	}

	mix := newMixture(2, 8, 5)
	env.upsertN(t, mix, 100, -1)
	if p := plan(); p.Action != ActionRebuild {
		t.Errorf("never-built plan = %s, want rebuild", p.Action)
	}
	env.rebuild(t)
	if p := plan(); p.Action != ActionNone {
		t.Errorf("freshly built plan = %s, want none", p.Action)
	}

	// A delta past the flush threshold outranks everything else.
	env.upsertN(t, mix, 25, 0)
	if p := plan(); p.Action != ActionFlush {
		t.Errorf("delta-backlog plan = %s, want flush", p.Action)
	}
	env.maintainAll(t, MaintenancePolicy{})

	// Inflate one cluster far past MaxPartitionSize: the next plan must be
	// a split of the offending partition, never a rebuild.
	env.upsertN(t, mix, 90, 0)
	env.flush(t)
	p := plan()
	if p.Action != ActionSplit {
		t.Fatalf("oversized plan = %s (size %d), want split", p.Action, p.Size)
	}
	if p.Size <= 40 {
		t.Errorf("split target size = %d, want > MaxPartitionSize(40)", p.Size)
	}
}

// upsertN inserts n vectors near center c with unique asset ids.
func (e *testEnv) upsertN(t testing.TB, mix *mixture, n, c int) {
	t.Helper()
	if err := e.store.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < n; i++ {
			e.nextAsset++
			if err := e.ix.Upsert(wt, fmt.Sprintf("m-%d", e.nextAsset), mix.sample(c), nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func (e *testEnv) flush(t testing.TB) {
	t.Helper()
	if err := e.store.Update(func(wt *storage.WriteTxn) error {
		_, err := e.ix.FlushDelta(wt)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitPartitionKeepsIndexConsistent(t *testing.T) {
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 3, Quantization: qt})
			mix := newMixture(4, 8, 5)
			env.upsertN(t, mix, 200, -1)
			env.rebuild(t)

			// Pour 150 vectors into one cluster, flush, and let maintenance
			// split the oversized partitions.
			env.upsertN(t, mix, 150, 0)
			actions := env.maintainAll(t, MaintenancePolicy{})
			if countActions(actions, ActionFlush) == 0 {
				t.Errorf("actions %v: expected a flush", actions)
			}
			if countActions(actions, ActionSplit) == 0 {
				t.Errorf("actions %v: expected at least one split", actions)
			}
			if countActions(actions, ActionRebuild) != 0 {
				t.Errorf("actions %v: a built index must never plan a rebuild", actions)
			}
			env.checkInvariants(t)

			if err := env.store.View(func(rt *storage.ReadTxn) error {
				min, max, err := env.ix.PartitionSizeBounds(rt)
				if err != nil {
					return err
				}
				if min < 5 || max > 40 {
					t.Errorf("partition sizes [%d, %d] outside policy bounds [5, 40]", min, max)
				}
				// Every vector must remain findable at full probe width.
				st, err := env.ix.Stats(rt)
				if err != nil {
					return err
				}
				q := mix.sample(0)
				got, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: int(st.NumPartitions), RerankFactor: 8})
				if err != nil {
					return err
				}
				if len(got) != 10 {
					t.Errorf("post-split search returned %d results", len(got))
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSplitDuplicateVectorsConverges guards against the planner livelock
// where a partition of identical vectors cannot be separated by k-means:
// the split must still make progress (mechanical even split) so the plan
// reaches ActionNone instead of re-planning the same partition forever.
func TestSplitDuplicateVectorsConverges(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 9})
	dup := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := env.store.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < 120; i++ {
			if err := env.ix.Upsert(wt, fmt.Sprintf("dup-%d", i), dup, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	env.rebuild(t)

	// All 120 duplicates collapse into one partition at build; force the
	// planner over it. maintainAll fails the test if it cannot converge.
	actions := env.maintainAll(t, MaintenancePolicy{})
	env.checkInvariants(t)
	if err := env.store.View(func(rt *storage.ReadTxn) error {
		_, max, err := env.ix.PartitionSizeBounds(rt)
		if err != nil {
			return err
		}
		if max > 40 {
			t.Errorf("max partition size %d after %v, want <= 40", max, actions)
		}
		got, _, err := env.ix.Search(rt, dup, SearchOptions{K: 10, NProbe: 8})
		if err != nil {
			return err
		}
		if len(got) != 10 || got[0].Distance != 0 {
			t.Errorf("post-split duplicate search = %d results, top %+v", len(got), got[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitBoundBelowClusteringTarget guards the other planner livelock: a
// policy MaxPartitionSize below the create-time TargetPartitionSize (e.g.
// `micronn maintain -max` on a coarser index) must still split flagged
// partitions instead of recounting them forever.
func TestSplitBoundBelowClusteringTarget(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 100, Seed: 13})
	mix := newMixture(14, 8, 4)
	env.upsertN(t, mix, 240, -1)
	env.rebuild(t)

	pol := MaintenancePolicy{MaxPartitionSize: 40}
	actions := env.maintainAll(t, pol)
	if countActions(actions, ActionSplit) == 0 {
		t.Fatalf("actions %v: expected splits under a tightened bound", actions)
	}
	env.checkInvariants(t)
	if err := env.store.View(func(rt *storage.ReadTxn) error {
		_, max, err := env.ix.PartitionSizeBounds(rt)
		if err != nil {
			return err
		}
		if max > 40 {
			t.Errorf("max partition size %d, want <= 40", max)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestMergePartitionsAfterDeletes(t *testing.T) {
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 5, Quantization: qt})
			mix := newMixture(6, 8, 6)
			env.upsertN(t, mix, 240, -1)
			env.rebuild(t)

			// Delete three quarters of the corpus: many partitions fall
			// under MinPartitionSize and must be merged away.
			if err := env.store.Update(func(wt *storage.WriteTxn) error {
				for i := 1; i <= 180; i++ {
					if err := env.ix.Delete(wt, fmt.Sprintf("m-%d", i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			var before int64
			if err := env.store.View(func(rt *storage.ReadTxn) error {
				st, err := env.ix.Stats(rt)
				before = st.NumPartitions
				return err
			}); err != nil {
				t.Fatal(err)
			}

			actions := env.maintainAll(t, MaintenancePolicy{})
			if countActions(actions, ActionMerge) == 0 {
				t.Fatalf("actions %v: expected at least one merge", actions)
			}
			env.checkInvariants(t)

			if err := env.store.View(func(rt *storage.ReadTxn) error {
				st, err := env.ix.Stats(rt)
				if err != nil {
					return err
				}
				if st.NumPartitions >= before {
					t.Errorf("partitions %d -> %d: merges should shrink the count", before, st.NumPartitions)
				}
				if st.NumVectors != 60 {
					t.Errorf("NumVectors = %d, want 60", st.NumVectors)
				}
				min, _, err := env.ix.PartitionSizeBounds(rt)
				if err != nil {
					return err
				}
				if st.NumPartitions >= 2 && min < 5 {
					t.Errorf("min partition size %d below merge bound 5", min)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMaintainedRecallMatchesRebuild is the recall regression gate: a
// streaming workload kept healthy by incremental maintenance must hold
// recall@10 within one point of the same data after a full Rebuild. Run for
// both encodings — on SQ8 this guards the code handling during splits.
func TestMaintainedRecallMatchesRebuild(t *testing.T) {
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{Dim: 16, TargetPartitionSize: 50, Seed: 7, Quantization: qt})
			mix := newMixture(8, 16, 20)
			env.upsertN(t, mix, 1500, -1)
			env.rebuild(t)

			// Stream updates with maintenance between batches; the planner
			// must absorb all growth without a rebuild.
			for epoch := 0; epoch < 10; epoch++ {
				env.upsertN(t, mix, 100, epoch%20)
				actions := env.maintainAll(t, MaintenancePolicy{})
				if n := countActions(actions, ActionRebuild); n != 0 {
					t.Fatalf("epoch %d: %d rebuilds planned on a built index", epoch, n)
				}
			}
			env.checkInvariants(t)

			queries := make([][]float32, 40)
			for i := range queries {
				queries[i] = mix.sample(i % 20)
			}
			meanRecall := func() float64 {
				var total float64
				if err := env.store.View(func(rt *storage.ReadTxn) error {
					st, err := env.ix.Stats(rt)
					if err != nil {
						return err
					}
					nprobe := int(st.NumPartitions+1) / 2
					for _, q := range queries {
						exact, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, Exact: true})
						if err != nil {
							return err
						}
						got, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: nprobe})
						if err != nil {
							return err
						}
						total += recallOf(got, exact)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				return total / float64(len(queries))
			}

			maintained := meanRecall()
			env.rebuild(t)
			rebuilt := meanRecall()
			t.Logf("recall@10 maintained=%.4f rebuilt=%.4f", maintained, rebuilt)
			if maintained < rebuilt-0.01 {
				t.Errorf("maintained recall %.4f more than 1 point below rebuilt %.4f", maintained, rebuilt)
			}
		})
	}
}

// TestDerivedStateAcrossSnapshots has readers load the derived state at
// pinned snapshots, old and new, while a writer flushes, merges and
// analyzes. Each load must return the centroid ids a direct scan of the
// centroid table sees at the same snapshot: the cache never serves one
// generation's state to a reader at another. Readers 0 and 2 keep the
// build's snapshot throughout; 1 and 3 re-pin at the newest one as they go.
func TestDerivedStateAcrossSnapshots(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 3,
		Attributes: []AttributeDef{{Name: "c", Type: reldb.TypeInt64, Indexed: true}}})
	data := clusteredData(21, 700, 8, 8)
	attrs := func(i int) map[string]reldb.Value { return map[string]reldb.Value{"c": reldb.I(int64(i % 5))} }
	env.upsertAll(t, &vec.Matrix{Data: data.Data[:400*8], Rows: 400, Dim: 8}, attrs)
	env.rebuild(t)

	check := func(rt *storage.ReadTxn) error {
		st, d, err := env.ix.load(rt)
		if err != nil {
			return err
		}
		var ids []int64
		err = env.ix.centroids.ScanKeys(rt, nil, func(key reldb.Row) error {
			ids = append(ids, key[0].Int)
			return nil
		})
		if err != nil {
			return err
		}
		if d.gen != st.Generation || !slices.Equal(d.cents.ids, ids) {
			return fmt.Errorf("generation %d: derived state of generation %d holds centroids %v, the table %v", st.Generation, d.gen, d.cents.ids, ids)
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		pinned, err := env.store.BeginRead()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { pinned.Close() }()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(pinned); err != nil {
					t.Error(err)
					return
				}
				if err := env.store.View(check); err != nil {
					t.Error(err)
					return
				}
				if r%2 == 1 && i%8 == 0 {
					pinned.Close()
					if pinned, err = env.store.BeginRead(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	var werr error
	for round := 0; round < 6 && werr == nil; round++ {
		lo := 400 + 50*round
		for _, step := range []func(wt *storage.WriteTxn) error{
			func(wt *storage.WriteTxn) error {
				for i := lo; i < lo+50; i++ {
					if err := env.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), attrs(i)); err != nil {
						return err
					}
				}
				return nil
			},
			func(wt *storage.WriteTxn) error {
				_, err := env.ix.FlushDelta(wt)
				return err
			},
			func(wt *storage.WriteTxn) error {
				parts, err := env.ix.PartitionIDs(wt)
				if err != nil {
					return err
				}
				_, err = env.ix.MergePartitions(wt, parts[0])
				return err
			},
			env.ix.AnalyzeAttributes,
		} {
			if werr = env.store.Update(step); werr != nil {
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
}
