package micronn

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"micronn/internal/ivf"
	"micronn/internal/storage"
)

func TestMaintainSplitsInsteadOfRebuild(t *testing.T) {
	db := openTest(t, Options{Dim: 8, TargetPartitionSize: 20, Seed: 1, FlushThreshold: 20})
	seed := randomVecs(1, 300, 8)
	items := make([]Item, len(seed))
	for i, v := range seed {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// Triple the corpus: the legacy monitor would demand a full rebuild,
	// the incremental planner must answer with flushes and splits only.
	extra := randomVecs(2, 600, 8)
	for i, v := range extra {
		if err := db.Upsert(Item{ID: fmt.Sprintf("e%d", i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilds != 0 {
		t.Errorf("report %+v: built index must not rebuild", rep)
	}
	if rep.Flushes == 0 || rep.Splits == 0 {
		t.Errorf("report %+v: expected flushes and splits", rep)
	}

	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LargestPartition > 40 || st.SmallestPartition < 5 {
		t.Errorf("partition sizes [%d, %d] outside policy bounds [5, 40]", st.SmallestPartition, st.LargestPartition)
	}
	if st.Maintenance.Splits != int64(rep.Splits) {
		t.Errorf("totals %+v do not reflect report %+v", st.Maintenance, rep)
	}
	if err := db.InternalStore().View(func(rt *storage.ReadTxn) error { return db.InternalIndex().CheckInvariants(rt) }); err != nil {
		t.Fatal(err)
	}
}

// TestAutoMaintainConcurrentOps hammers Search/Upsert/Delete from multiple
// goroutines while the background maintainer flushes, splits and merges
// underneath them. Sized to stay fast under the CI `-race -short` job,
// which is where its value lives.
func TestAutoMaintainConcurrentOps(t *testing.T) {
	skipIfEphemeralBackend(t) // bootstrap-then-reopen structure needs persistence
	path := filepath.Join(t.TempDir(), "auto.mnn")

	// Bootstrap and build without the maintainer, so any rebuild observed
	// later is a real policy violation.
	boot, err := Open(path, Options{Dim: 8, TargetPartitionSize: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seed := randomVecs(3, 200, 8)
	items := make([]Item, len(seed))
	for i, v := range seed {
		items[i] = Item{ID: fmt.Sprintf("s%d", i), Vector: v}
	}
	if err := boot.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := boot.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}

	db, err := Open(path, Options{
		TargetPartitionSize: 20, Seed: 1, FlushThreshold: 25,
		AutoMaintain: true, MaintainInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writerOps = 400
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			queries := randomVecs(int64(10+s), 50, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Search(SearchRequest{Vector: queries[i%len(queries)], K: 5, NProbe: 4}); err != nil {
					fail(fmt.Errorf("searcher %d: %w", s, err))
					return
				}
			}
		}(s)
	}

	deleted := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		vecs := randomVecs(4, writerOps, 8)
		for i, v := range vecs {
			if err := db.Upsert(Item{ID: fmt.Sprintf("w%d", i), Vector: v}); err != nil {
				fail(fmt.Errorf("upsert %d: %w", i, err))
				return
			}
			if i%5 == 4 {
				if err := db.Delete(fmt.Sprintf("w%d", i-2)); err != nil && !errors.Is(err, ErrNotFound) {
					fail(fmt.Errorf("delete %d: %w", i-2, err))
					return
				}
				deleted++
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// Drain any remaining backlog and check the final state.
	if _, err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(200 + writerOps - deleted)
	if st.NumVectors != want {
		t.Errorf("NumVectors = %d, want %d", st.NumVectors, want)
	}
	if st.Maintenance.Rebuilds != 0 {
		t.Errorf("background maintainer performed %d rebuilds on a built index", st.Maintenance.Rebuilds)
	}
	if st.Maintenance.Flushes == 0 || st.Maintenance.Splits == 0 {
		t.Errorf("totals %+v: expected the growth absorbed by flushes and splits", st.Maintenance)
	}
	if st.SmallestPartition < 20/4 || st.LargestPartition > 2*20 {
		t.Errorf("partition sizes [%d, %d] outside policy bounds [5, 40]", st.SmallestPartition, st.LargestPartition)
	}
	if err := db.InternalStore().View(func(rt *storage.ReadTxn) error { return db.InternalIndex().CheckInvariants(rt) }); err != nil {
		t.Fatal(err)
	}
}

// TestCloseDrainsMaintainer closes the database the instant it opens; the
// background goroutine must be fully drained, never racing the closed
// store.
func TestCloseDrainsMaintainer(t *testing.T) {
	for i := 0; i < 10; i++ {
		db, err := Open(filepath.Join(t.TempDir(), "drain.mnn"), Options{
			Dim: 4, AutoMaintain: true, MaintainInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Upsert(Item{ID: "x", Vector: []float32{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMaintenanceReportActionDistinct pins Action's contract: the distinct
// step names, each once, in first-seen order — within one store's pass
// (absorb) and across shards (mergeReports).
func TestMaintenanceReportActionDistinct(t *testing.T) {
	pass := func(steps ...ivf.MaintenanceAction) *MaintenanceReport {
		rep := &MaintenanceReport{Action: "none"}
		for _, a := range steps {
			rep.absorb(report(string(a), &ivf.MaintenanceStats{}))
		}
		return rep
	}
	F, S, M := ivf.ActionFlush, ivf.ActionSplit, ivf.ActionMerge
	cases := []struct {
		name string
		rep  *MaintenanceReport
		want string
	}{
		{"idle pass", pass(), "none"},
		{"one step", pass(S), "split"},
		{"flush split flush split", pass(F, S, F, S), "flush+split"},
		{"split merge split", pass(S, M, S), "split+merge"},
		{"shards split | flush+split | split", mergeReports([]*MaintenanceReport{pass(S), pass(F, S), pass(S)}), "split+flush"},
		{"shards none | merge | nil", mergeReports([]*MaintenanceReport{pass(), pass(M), nil}), "merge"},
		{"shards all idle", mergeReports([]*MaintenanceReport{pass(), pass()}), "none"},
	}
	for _, tc := range cases {
		if tc.rep.Action != tc.want {
			t.Errorf("%s: Action = %q, want %q", tc.name, tc.rep.Action, tc.want)
		}
	}
}
