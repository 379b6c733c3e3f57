package ivf

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/storage/storagetest"
)

// crashEnv is a reopenable index environment for the crash battery — unlike
// testEnv it survives CloseWithoutCheckpoint + Open cycles.
type crashEnv struct {
	t     *testing.T
	path  string
	opts  storage.Options
	store *storage.Store
	db    *reldb.DB
	ix    *Index
	live  int64 // expected vector count (inserts minus deletes)
	next  int   // asset id counter
}

func newCrashEnv(t *testing.T, cfg Config) *crashEnv {
	storagetest.SkipIfEphemeral(t)
	e := &crashEnv{
		t:    t,
		path: filepath.Join(t.TempDir(), "crash.db"),
		// A tiny spill budget pushes frames into the WAL mid-transaction,
		// so failpoints land inside spills as well as commits.
		opts: storage.Options{Sync: storage.SyncOff, MaxDirtyPages: 8, CheckpointFrames: -1},
	}
	s, err := storage.Open(e.path, e.opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store = s
	if e.db, err = reldb.Open(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(wt *storage.WriteTxn) error {
		e.ix, err = Create(e.db, wt, cfg)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.store.Close() })
	return e
}

// crash closes without checkpointing (as a power cut would) and reopens
// through full recovery.
func (e *crashEnv) crash() {
	e.t.Helper()
	if err := e.store.CloseWithoutCheckpoint(); err != nil {
		e.t.Fatal(err)
	}
	s, err := storage.Open(e.path, e.opts)
	if err != nil {
		e.t.Fatalf("reopen after crash: %v", err)
	}
	e.store = s
	if e.db, err = reldb.Open(s); err != nil {
		e.t.Fatal(err)
	}
	if e.ix, err = Open(e.db); err != nil {
		e.t.Fatal(err)
	}
}

func (e *crashEnv) insert(mix *mixture, n, center int) {
	e.t.Helper()
	if err := e.store.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < n; i++ {
			e.next++
			if err := e.ix.Upsert(wt, fmt.Sprintf("c-%d", e.next), mix.sample(center), nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		e.t.Fatal(err)
	}
	e.live += int64(n)
}

// deleteRange removes assets c-[lo,hi] that are still expected to exist.
func (e *crashEnv) deleteRange(lo, hi int) {
	e.t.Helper()
	if err := e.store.Update(func(wt *storage.WriteTxn) error {
		for i := lo; i <= hi; i++ {
			err := e.ix.Delete(wt, fmt.Sprintf("c-%d", i))
			if errors.Is(err, ErrNotFound) {
				continue
			}
			if err != nil {
				return err
			}
			e.live--
		}
		return nil
	}); err != nil {
		e.t.Fatal(err)
	}
}

// maintainAll steps maintenance to convergence, recording committed
// actions. An injected WAL failure surfaces as the returned error; steps
// committed before it stand.
func (e *crashEnv) maintainAll(pol MaintenancePolicy, seen map[MaintenanceAction]int) error {
	for i := 0; i < 256; i++ {
		var plan *MaintenancePlan
		err := e.store.Update(func(wt *storage.WriteTxn) error {
			var serr error
			plan, _, serr = e.ix.MaintainStep(wt, pol)
			return serr
		})
		if err != nil {
			return err
		}
		if plan.Action == ActionNone {
			return nil
		}
		seen[plan.Action]++
	}
	return fmt.Errorf("maintenance did not converge")
}

// verify asserts the full invariant battery plus the expected live count
// and a working search.
func (e *crashEnv) verify(mix *mixture, step string) {
	e.t.Helper()
	if err := e.store.View(func(rt *storage.ReadTxn) error {
		if err := e.ix.CheckInvariants(rt); err != nil {
			return fmt.Errorf("%s: %w", step, err)
		}
		st, err := e.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.NumVectors != e.live {
			return fmt.Errorf("%s: NumVectors = %d, want %d", step, st.NumVectors, e.live)
		}
		got, _, err := e.ix.Search(rt, mix.sample(0), SearchOptions{K: 5, NProbe: 4})
		if err != nil {
			return fmt.Errorf("%s: search: %w", step, err)
		}
		if len(got) == 0 {
			return fmt.Errorf("%s: search returned nothing over %d vectors", step, e.live)
		}
		return nil
	}); err != nil {
		e.t.Fatal(err)
	}
}

// TestMaintenanceCrashRecovery extends the storage torture-test pattern to
// index maintenance: a WAL failpoint is armed at varying frame offsets so
// injected crashes land mid-flush, mid-split and mid-merge; after every
// crash the store is reopened through recovery and the full index invariant
// battery re-checked (every vid reachable exactly once, centroid rows match
// partitions and counts, codebook intact on the quantized variant). The
// interrupted maintenance must then complete cleanly.
func TestMaintenanceCrashRecovery(t *testing.T) {
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newCrashEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 11, Quantization: qt})
			mix := newMixture(12, 8, 5)
			pol := MaintenancePolicy{} // defaults: flush 20, merge <5, split >40
			seen := make(map[MaintenanceAction]int)

			env.insert(mix, 160, -1)
			if err := env.maintainAll(pol, seen); err != nil { // initial build
				t.Fatal(err)
			}
			env.verify(mix, "bootstrap")

			injected := 0
			for round, fail := range []int{1, 3, 7, 15, 30, 60, 120, 240} {
				// Skewed growth keeps split pressure on one cluster; the
				// periodic mass delete keeps merge pressure on.
				env.insert(mix, 50, round%5)
				if round%3 == 2 {
					lo := env.next - 120
					env.deleteRange(lo, lo+89)
				}

				env.store.SetWALFailpoint(fail)
				err := env.maintainAll(pol, seen)
				env.store.SetWALFailpoint(-1)
				switch {
				case errors.Is(err, storage.ErrInjected):
					injected++
					env.crash()
				case err != nil:
					t.Fatalf("round %d: %v", round, err)
				}
				env.verify(mix, fmt.Sprintf("round %d post-crash", round))

				if err := env.maintainAll(pol, seen); err != nil {
					t.Fatalf("round %d resume: %v", round, err)
				}
				env.verify(mix, fmt.Sprintf("round %d resumed", round))
			}

			if injected == 0 {
				t.Error("no failpoint fired; the battery exercised nothing")
			}
			for _, a := range []MaintenanceAction{ActionFlush, ActionSplit, ActionMerge} {
				if seen[a] == 0 {
					t.Errorf("action %s never executed; crash coverage incomplete (saw %v)", a, seen)
				}
			}
		})
	}
}

// splitOutcome reports whether plan's split is applied at the current
// state. It fails the test unless every planned row is reachable and the
// split is all-or-nothing: the partition holds either all of its planned
// rows with the partition count unchanged, or exactly its first cluster's
// rows with one new partition per other non-empty cluster.
func (e *crashEnv) splitOutcome(plan *SplitPlan, before int64) bool {
	e.t.Helper()
	applied := false
	if err := e.store.View(func(rt *storage.ReadTxn) error {
		for _, r := range plan.rows {
			if _, _, err := e.ix.GetVector(rt, r.asset); err != nil {
				return fmt.Errorf("planned row %s unreachable: %w", r.asset, err)
			}
		}
		st, err := e.ix.getState(rt)
		if err != nil {
			return err
		}
		if e.ix.checkSplitPlan(rt, plan) == nil {
			if st.NumPartitions != before {
				return fmt.Errorf("partition %d unsplit, but %d -> %d partitions", plan.part, before, st.NumPartitions)
			}
			return nil
		}
		first, nonEmpty := -1, 0
		for c, n := range plan.counts {
			if n > 0 {
				nonEmpty++
				if first < 0 {
					first = c
				}
			}
		}
		var kept []partRow
		for i, r := range plan.rows {
			if plan.assign[i] == first {
				kept = append(kept, r)
			}
		}
		if err := e.ix.checkSplitPlan(rt, &SplitPlan{part: plan.part, rows: kept}); err != nil {
			return fmt.Errorf("partition %d holds neither its planned rows nor its first cluster's: %w", plan.part, err)
		}
		if want := before + int64(nonEmpty-1); st.NumPartitions != want {
			return fmt.Errorf("split applied, but %d partitions, want %d", st.NumPartitions, want)
		}
		applied = true
		return nil
	}); err != nil {
		e.t.Fatal(err)
	}
	return applied
}

// TestPreparedSplitCrashRecovery covers the split Maintain runs: prepared
// on a read snapshot, then applied in its own write transaction. A WAL
// failpoint fires at varying frames of the apply transaction (spills and
// the commit frame alike); after the store is reopened through recovery the
// invariant battery holds, every row is reachable, and the split is
// all-or-nothing. The sweep must see both outcomes.
func TestPreparedSplitCrashRecovery(t *testing.T) {
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			outcomes := make(map[bool]int)
			for _, fail := range []int{0, 1, 2, 4, 8, 16, 32, 64, 1 << 20} {
				env := newCrashEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 11, Quantization: qt})
				mix := newMixture(12, 8, 5)
				env.insert(mix, 120, -1)
				if err := env.maintainAll(MaintenancePolicy{}, make(map[MaintenanceAction]int)); err != nil {
					t.Fatal(err)
				}
				env.insert(mix, 90, 0)
				if err := env.store.Update(func(wt *storage.WriteTxn) error {
					_, err := env.ix.FlushDelta(wt)
					return err
				}); err != nil {
					t.Fatal(err)
				}

				var plan *SplitPlan
				var before int64
				if err := env.store.View(func(rt *storage.ReadTxn) error {
					mp, err := env.ix.PlanMaintenance(rt, MaintenancePolicy{})
					if err != nil {
						return err
					}
					if mp.Action != ActionSplit {
						return fmt.Errorf("plan = %s, want split", mp.Action)
					}
					if plan, err = env.ix.PrepareSplit(rt, mp.Partition); err != nil {
						return err
					}
					st, err := env.ix.getState(rt)
					before = st.NumPartitions
					return err
				}); err != nil {
					t.Fatal(err)
				}
				if plan.cents == nil {
					t.Fatal("prepared split has nothing to cluster")
				}

				env.store.SetWALFailpoint(fail)
				err := env.store.Update(func(wt *storage.WriteTxn) error {
					_, err := env.ix.ApplySplit(wt, plan)
					return err
				})
				env.store.SetWALFailpoint(-1)
				switch {
				case errors.Is(err, storage.ErrInjected):
					env.crash()
				case err != nil:
					t.Fatalf("fail %d: %v", fail, err)
				}
				step := fmt.Sprintf("fail %d", fail)
				env.verify(mix, step)
				outcomes[env.splitOutcome(plan, before)]++
			}
			if outcomes[true] == 0 || outcomes[false] == 0 {
				t.Errorf("outcomes applied=%d unapplied=%d: the sweep must see both", outcomes[true], outcomes[false])
			}
		})
	}
}
