package ivf

import (
	"errors"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
)

// splitTarget builds an index with one oversized partition and returns its
// id plus the id of an asset stored inside it.
func splitTarget(t *testing.T, env *testEnv) (int64, string) {
	t.Helper()
	mix := newMixture(11, 8, 4)
	env.upsertN(t, mix, 120, -1)
	env.rebuild(t)
	env.upsertN(t, mix, 90, 0)
	env.flush(t)

	var part int64 = -1
	var asset string
	if err := env.store.View(func(rt *storage.ReadTxn) error {
		plan, err := env.ix.PlanMaintenance(rt, MaintenancePolicy{})
		if err != nil {
			return err
		}
		if plan.Action != ActionSplit {
			t.Fatalf("plan = %s, want split", plan.Action)
		}
		part = plan.Partition
		rows, err := env.ix.collectPartition(rt, part)
		if err != nil {
			return err
		}
		asset = rows[0].asset
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return part, asset
}

// prepareSplit prepares a split of part on a read snapshot, as Maintain
// does, outside the writer gate.
func (e *testEnv) prepareSplit(t testing.TB, part int64) *SplitPlan {
	t.Helper()
	var plan *SplitPlan
	if err := e.store.View(func(rt *storage.ReadTxn) error {
		var err error
		plan, err = e.ix.PrepareSplit(rt, part)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return plan
}

// applySplit applies a prepared split in its own write transaction.
func (e *testEnv) applySplit(plan *SplitPlan) (*MaintenanceStats, error) {
	var ms *MaintenanceStats
	err := e.store.Update(func(wt *storage.WriteTxn) error {
		var err error
		ms, err = e.ix.ApplySplit(wt, plan)
		return err
	})
	return ms, err
}

func (e *testEnv) numPartitions(t testing.TB) int64 {
	t.Helper()
	var n int64
	if err := e.store.View(func(rt *storage.ReadTxn) error {
		st, err := e.ix.Stats(rt)
		n = st.NumPartitions
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPrepareApplySplit(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	part, _ := splitTarget(t, env)
	before := env.numPartitions(t)

	ms, err := env.applySplit(env.prepareSplit(t, part))
	if err != nil {
		t.Fatal(err)
	}
	if ms.VectorsAssigned == 0 {
		t.Error("prepared split assigned no vectors")
	}
	if got := env.numPartitions(t); got <= before || int64(ms.Partitions) != got {
		t.Errorf("partitions %d -> %d (report %d), want growth", before, got, ms.Partitions)
	}
	env.checkInvariants(t)
}

// TestApplySplitTwiceAtOneSnapshot is the lost-race case of two maintainers
// planning the same split: both prepare at one snapshot, the first apply
// wins, and the second must not split the already-split partition again.
func TestApplySplitTwiceAtOneSnapshot(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	part, _ := splitTarget(t, env)

	var first, second *SplitPlan
	if err := env.store.View(func(rt *storage.ReadTxn) error {
		var err error
		if first, err = env.ix.PrepareSplit(rt, part); err != nil {
			return err
		}
		second, err = env.ix.PrepareSplit(rt, part)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.applySplit(first); err != nil {
		t.Fatal(err)
	}
	after := env.numPartitions(t)
	if _, err := env.applySplit(second); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("second apply error = %v, want ErrPlanStale", err)
	}
	if got := env.numPartitions(t); got != after {
		t.Errorf("stale apply changed the partition count %d -> %d", after, got)
	}
	env.checkInvariants(t)

	if err := env.store.View(func(rt *storage.ReadTxn) error {
		plan, err := env.ix.PlanMaintenance(rt, MaintenancePolicy{})
		if err != nil {
			return err
		}
		if plan.Action == ActionSplit && plan.Partition == part {
			t.Errorf("planner picks the already-split partition %d again (size %d)", part, plan.Size)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestApplySplitStaleAfterDelete(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	part, asset := splitTarget(t, env)
	before := env.numPartitions(t)

	plan := env.prepareSplit(t, part)
	if err := env.store.Update(func(wt *storage.WriteTxn) error {
		return env.ix.Delete(wt, asset)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.applySplit(plan); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("apply error = %v, want ErrPlanStale", err)
	}
	if got := env.numPartitions(t); got != before {
		t.Errorf("stale apply changed the partition count %d -> %d", before, got)
	}
	env.checkInvariants(t)

	// A fresh prepare sees the delete and applies.
	if _, err := env.applySplit(env.prepareSplit(t, part)); err != nil {
		t.Fatal(err)
	}
	env.checkInvariants(t)
}

// TestApplySplitAfterDeltaUpsert: a commit that only touches the delta
// partition leaves the plan's rows as they were, so the plan applies.
func TestApplySplitAfterDeltaUpsert(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	part, _ := splitTarget(t, env)

	plan := env.prepareSplit(t, part)
	if err := env.store.Update(func(wt *storage.WriteTxn) error {
		return env.ix.Upsert(wt, "unrelated-asset", make([]float32, 8), nil)
	}); err != nil {
		t.Fatal(err)
	}
	ms, err := env.applySplit(plan)
	if err != nil {
		t.Fatalf("apply error = %v, want success after a delta-only commit", err)
	}
	if ms.VectorsAssigned == 0 {
		t.Error("split assigned no vectors")
	}
	env.checkInvariants(t)
}

// TestApplySplitStaleAfterRebuild: a Rebuild retrains the SQ8 codebook and
// re-encodes every row, so a plan holding the old codes must not apply.
func TestApplySplitStaleAfterRebuild(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7, Quantization: quant.SQ8})
	part, _ := splitTarget(t, env)

	plan := env.prepareSplit(t, part)
	env.rebuild(t)
	if _, err := env.applySplit(plan); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("apply error = %v, want ErrPlanStale", err)
	}
	env.checkInvariants(t)
}

// TestApplySplitStaleOnReencodedRow: a commit that rewrites a row's payload
// in place (what re-encoding under a new codebook does when a Rebuild keeps
// the partition's membership) makes the plan stale even though the
// partition still holds the same vids.
func TestApplySplitStaleOnReencodedRow(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7, Quantization: quant.SQ8})
	part, _ := splitTarget(t, env)

	plan := env.prepareSplit(t, part)
	r := plan.rows[0]
	code := append([]byte(nil), r.blob...)
	code[0]++
	if err := env.store.Update(func(wt *storage.WriteTxn) error {
		return env.ix.vectors.Put(wt, reldb.Row{reldb.I(part), reldb.I(r.vid), reldb.S(r.asset), reldb.B(code)})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.applySplit(plan); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("apply error = %v, want ErrPlanStale", err)
	}
	env.checkInvariants(t)
}

// TestApplySplitPartitionMergedAway: a plan whose partition was merged away
// after the prepare is stale, and applying it changes nothing.
func TestApplySplitPartitionMergedAway(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	part, _ := splitTarget(t, env)

	plan := env.prepareSplit(t, part)
	if err := env.store.Update(func(wt *storage.WriteTxn) error {
		_, err := env.ix.MergePartitions(wt, part)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	before := env.numPartitions(t)
	if _, err := env.applySplit(plan); !errors.Is(err, ErrPlanStale) {
		t.Fatalf("apply error = %v, want ErrPlanStale", err)
	}
	if got := env.numPartitions(t); got != before {
		t.Errorf("stale apply changed the partition count %d -> %d", before, got)
	}
	env.checkInvariants(t)
}

func TestPrepareSplitRejectsDeltaAndUnknown(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 7})
	mix := newMixture(12, 8, 3)
	env.upsertN(t, mix, 60, -1)
	env.rebuild(t)

	for _, part := range []int64{DeltaPartition, 99999} {
		if err := env.store.View(func(rt *storage.ReadTxn) error {
			_, err := env.ix.PrepareSplit(rt, part)
			return err
		}); err == nil {
			t.Errorf("PrepareSplit(%d) succeeded", part)
		}
	}
}
