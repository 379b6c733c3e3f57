package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
)

// crashLSM simulates a power cut on a database: the group committer is
// drained so every in-flight writer holds a definitive answer, then the
// store is dropped without a checkpoint — recovery must come entirely from
// pages + WAL.
func crashLSM(t *testing.T, db *DB) {
	t.Helper()
	db.closed.Store(true)
	db.ing.shutdown()
	db.stopMaintainer()
	if err := db.store.CloseWithoutCheckpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestLSMGroupCommitCrash kills the WAL mid-group-commit at a sweep of
// frame offsets while concurrent writers are being batched into shared
// transactions. The contract under test: a writer that got nil is durable
// across the crash, a writer that got an error left no trace, and a
// multi-item batch is all-or-nothing — never torn down the middle.
func TestLSMGroupCommitCrash(t *testing.T) {
	skipIfEphemeralBackend(t)
	opts := Options{Dim: 8, Seed: 1}
	sawFailure := false
	for n := 1; n <= 8; n++ {
		t.Run(fmt.Sprintf("fail%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "gc.mnn")
			db, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n)))
			for i := 0; i < 4; i++ {
				if err := db.Upsert(Item{ID: fmt.Sprintf("seed%d", i), Vector: lsmVec(rng, 8)}); err != nil {
					t.Fatal(err)
				}
			}

			db.store.SetWALFailpoint(n)

			// 7 single-item writers plus one 3-item batch, all racing into
			// the committer. Per-writer vectors are derived from the id so
			// the reopened database can be checked without shared state.
			const singles = 7
			var wg sync.WaitGroup
			errs := make([]error, singles+1)
			for w := 0; w < singles; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					id := fmt.Sprintf("s%d", w)
					errs[w] = db.Upsert(Item{ID: id, Vector: idVec(id)})
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				batch := make([]Item, 3)
				for i := range batch {
					id := fmt.Sprintf("b%d", i)
					batch[i] = Item{ID: id, Vector: idVec(id)}
				}
				errs[singles] = db.UpsertBatch(batch)
			}()
			wg.Wait()
			db.store.SetWALFailpoint(-1)

			crashLSM(t, db)

			db2, err := Open(path, opts)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			checkSingleInvariants(t, db2)

			for i := 0; i < 4; i++ {
				if _, err := db2.Get(fmt.Sprintf("seed%d", i)); err != nil {
					t.Fatalf("pre-failpoint seed%d lost: %v", i, err)
				}
			}
			for w := 0; w < singles; w++ {
				id := fmt.Sprintf("s%d", w)
				assertDurability(t, db2, id, errs[w])
				if errs[w] != nil {
					sawFailure = true
				}
			}
			// The batch is one op in one group txn: every row or none.
			for i := 0; i < 3; i++ {
				assertDurability(t, db2, fmt.Sprintf("b%d", i), errs[singles])
			}
			if errs[singles] != nil {
				sawFailure = true
			}
		})
	}
	if !sawFailure {
		t.Fatal("failpoint sweep never injected a failure — battery exercised nothing")
	}
}

// assertDurability checks the group-commit contract for one writer after a
// crash-reopen: nil error means the row survived, an error means it never
// existed.
func assertDurability(t *testing.T, db *DB, id string, werr error) {
	t.Helper()
	item, err := db.Get(id)
	if werr == nil {
		if err != nil {
			t.Fatalf("writer of %s got nil but row is gone after reopen: %v", id, err)
		}
		want := idVec(id)
		for d := range want {
			if item.Vector[d] != want[d] {
				t.Fatalf("row %s survived with wrong vector at dim %d", id, d)
			}
		}
		return
	}
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("writer of %s got %v but row state after reopen is (item=%v, err=%v) — torn commit", id, werr, item, err)
	}
}

// idVec derives a deterministic vector from an id, so crash tests can
// verify content without carrying state across the reopen.
func idVec(id string) []float32 {
	var h int64
	for _, c := range id {
		h = h*131 + int64(c)
	}
	return lsmVec(rand.New(rand.NewSource(h)), 8)
}

// buildCrashBase opens a fresh database at path, loads base rows through
// the group committer and builds the index, so later rows land in the
// delta store beside real partitions.
func buildCrashBase(t *testing.T, path string, opts Options, base int) *DB {
	t.Helper()
	db, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Item, base)
	for i := range batch {
		id := fmt.Sprintf("base%d", i)
		batch[i] = Item{ID: id, Vector: idVec(id)}
	}
	if err := db.UpsertBatch(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestLSMSealCrash kills the WAL mid-flush of the delta store, the step that
// seals group-committed rows into the IVF partitions: a crash inside that
// transaction must leave either the full delta or the fully flushed
// partitions — the 30 rows are always all present, never split or
// duplicated across a torn flush.
func TestLSMSealCrash(t *testing.T) {
	skipIfEphemeralBackend(t)
	opts := Options{Dim: 8, Seed: 2}
	const base, rows = 48, 30
	sawFailure := false
	for n := 1; n <= 10; n++ {
		t.Run(fmt.Sprintf("fail%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seal.mnn")
			db := buildCrashBase(t, path, opts, base)
			batch := make([]Item, rows)
			for i := range batch {
				id := fmt.Sprintf("r%d", i)
				batch[i] = Item{ID: id, Vector: idVec(id)}
			}
			if err := db.UpsertBatch(batch); err != nil {
				t.Fatal(err)
			}

			db.store.SetWALFailpoint(n)
			_, flushErr := db.FlushDelta()
			db.store.SetWALFailpoint(-1)
			if flushErr != nil {
				sawFailure = true
			}

			crashLSM(t, db)

			db2, err := Open(path, opts)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			checkSingleInvariants(t, db2)

			st, err := db2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.NumVectors != base+rows {
				t.Fatalf("NumVectors = %d after crash, want %d (flushErr=%v)", st.NumVectors, base+rows, flushErr)
			}
			switch st.DeltaCount {
			case rows:
				// Flush never committed: delta intact.
			case 0:
				// Flush committed atomically: partitions hold everything.
			default:
				t.Fatalf("torn flush: delta=%d (flushErr=%v)", st.DeltaCount, flushErr)
			}
			for i := 0; i < rows; i++ {
				id := fmt.Sprintf("r%d", i)
				if _, err := db2.Get(id); err != nil {
					t.Fatalf("row %s unreachable after flush crash: %v", id, err)
				}
			}
			// The surviving state must also still be searchable and
			// maintainable: drain everything into partitions.
			if _, err := db2.Rebuild(); err != nil {
				t.Fatal(err)
			}
			resp, err := db2.Search(SearchRequest{Vector: idVec("r7"), K: 1, Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != 1 || resp.Results[0].ID != "r7" {
				t.Fatalf("post-recovery search returned %+v", resp.Results)
			}
		})
	}
	if !sawFailure {
		t.Fatal("failpoint sweep never injected a failure — battery exercised nothing")
	}
}

// TestLSMCompactRunsCrash kills the WAL mid-Maintain while the pass folds a
// delta of three write waves into the partitions. Before the failpoint,
// deletes removed partition-resident rows and an upsert shadowed one, so
// the delta holds its newest version. After the crash and reopen the flush
// is either fully committed or fully absent, deleted rows stay deleted and
// the shadowed row serves its newest vector. Recovered state must pass the
// invariant battery and answer exact searches.
func TestLSMCompactRunsCrash(t *testing.T) {
	skipIfEphemeralBackend(t)
	opts := Options{Dim: 8, Seed: 3, FlushThreshold: 1}
	const base = 48
	const perWave = 10
	sawFailure := false
	for n := 1; n <= 10; n++ {
		t.Run(fmt.Sprintf("fail%d", n), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "compact.mnn")
			db := buildCrashBase(t, path, opts, base)

			// Three waves, the first flushed into the partitions so the
			// deletes and the shadow below hit partition-resident rows;
			// the other two stay in the delta for the crashed pass.
			for s := 0; s < 3; s++ {
				wave := make([]Item, perWave)
				for i := range wave {
					id := fmt.Sprintf("run%d_%d", s, i)
					wave[i] = Item{ID: id, Vector: idVec(id)}
				}
				if err := db.UpsertBatch(wave); err != nil {
					t.Fatal(err)
				}
				if s == 0 {
					if _, err := db.FlushDelta(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Delete("run0_0"); err != nil {
				t.Fatal(err)
			}
			if err := db.Delete("run1_5"); err != nil {
				t.Fatal(err)
			}
			shadow := idVec("run0_3-v2")
			if err := db.Upsert(Item{ID: "run0_3", Vector: shadow}); err != nil {
				t.Fatal(err)
			}
			const pending = 2*perWave - 1 + 1 // waves 1-2 less run1_5, plus the shadow

			db.store.SetWALFailpoint(n)
			_, maintErr := db.Maintain()
			db.store.SetWALFailpoint(-1)
			if maintErr != nil {
				sawFailure = true
			}

			crashLSM(t, db)

			db2, err := Open(path, opts)
			if err != nil {
				t.Fatalf("reopen after crash: %v", err)
			}
			defer db2.Close()
			checkSingleInvariants(t, db2)

			st, err := db2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			const live = base + 3*perWave - 2
			if st.NumVectors != live {
				t.Fatalf("NumVectors = %d after crash, want %d (maintErr=%v)", st.NumVectors, live, maintErr)
			}
			switch st.DeltaCount {
			case pending:
				// The flush never committed: the delta is fully intact.
			case 0:
				// The flush committed atomically: every row folded.
			default:
				t.Fatalf("torn flush: delta=%d, want %d or 0 (maintErr=%v)", st.DeltaCount, pending, maintErr)
			}

			for i := 0; i < base; i++ {
				if _, err := db2.Get(fmt.Sprintf("base%d", i)); err != nil {
					t.Fatalf("base%d lost: %v", i, err)
				}
			}
			for s := 0; s < 3; s++ {
				for i := 0; i < perWave; i++ {
					id := fmt.Sprintf("run%d_%d", s, i)
					item, err := db2.Get(id)
					switch id {
					case "run0_0", "run1_5":
						if !errors.Is(err, ErrNotFound) {
							t.Fatalf("deleted %s resurfaced: item=%v err=%v", id, item, err)
						}
					case "run0_3":
						if err != nil {
							t.Fatalf("shadowed %s lost: %v", id, err)
						}
						for d := range shadow {
							if item.Vector[d] != shadow[d] {
								t.Fatalf("%s lost its newest version at dim %d", id, d)
							}
						}
					default:
						if err != nil {
							t.Fatalf("row %s unreachable: %v", id, err)
						}
					}
				}
			}
			// The surviving state must stay maintainable and searchable.
			if _, err := db2.Rebuild(); err != nil {
				t.Fatal(err)
			}
			resp, err := db2.Search(SearchRequest{Vector: idVec("run1_7"), K: 1, Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != 1 || resp.Results[0].ID != "run1_7" {
				t.Fatalf("post-recovery search returned %+v", resp.Results)
			}
		})
	}
	if !sawFailure {
		t.Fatal("failpoint sweep never injected a failure — battery exercised nothing")
	}
}
