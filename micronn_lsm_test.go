package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"micronn/internal/storage"
)

// lsmVec returns a deterministic pseudo-random vector.
func lsmVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func checkSingleInvariants(t *testing.T, db *DB) {
	t.Helper()
	if err := db.store.View(func(rt *storage.ReadTxn) error {
		return db.ix.CheckInvariants(rt)
	}); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestLSMGroupCommitVisibility drives concurrent writers through the group
// committer and checks the basic contract: every call that returned nil is
// visible, the op counters add up, and grouping actually happened — with a
// second core for the writers to overlap on, the committer averages more
// than one op per group commit.
func TestLSMGroupCommitVisibility(t *testing.T) {
	db, err := Open("", Options{
		Dim: 8, Backend: BackendMemory, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const writers, perWriter = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := db.Upsert(Item{ID: id, Vector: lsmVec(rng, 8)}); err != nil {
					t.Errorf("upsert %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVectors != writers*perWriter {
		t.Fatalf("NumVectors = %d, want %d", st.NumVectors, writers*perWriter)
	}
	if st.Ingest.GroupedOps != writers*perWriter {
		t.Fatalf("GroupedOps = %d, want %d", st.Ingest.GroupedOps, writers*perWriter)
	}
	if st.Ingest.GroupCommits == 0 || st.Ingest.GroupCommits > st.Ingest.GroupedOps {
		t.Fatalf("GroupCommits = %d out of range (1..%d)", st.Ingest.GroupCommits, st.Ingest.GroupedOps)
	}
	if st.Ingest.MaxGroupSize < 1 {
		t.Fatalf("MaxGroupSize = %d, want >= 1", st.Ingest.MaxGroupSize)
	}
	// Batches form only when writers overlap in the enqueue window, which
	// needs a second core: on one the committer drains each op before the
	// next writer is scheduled.
	avgGroup := float64(st.Ingest.GroupedOps) / float64(st.Ingest.GroupCommits)
	t.Logf("%.2f ops per group commit (max %d, GOMAXPROCS=%d)", avgGroup, st.Ingest.MaxGroupSize, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) >= 2 && avgGroup <= 1 {
		t.Errorf("the committer never batched: %.2f ops per group commit", avgGroup)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := db.Get(fmt.Sprintf("w%d-%d", w, i)); err != nil {
				t.Fatalf("get w%d-%d after commit: %v", w, i, err)
			}
		}
	}
	checkSingleInvariants(t, db)
}

// TestLSMRecallUnderInsertStorm bootstraps an index over 500 vectors of an
// InternalA-shaped corpus, then lands two insert storms — 250 and 2,000
// upserts from 8 concurrent writers through the group committer — while a
// searcher queries. Right after each storm, with the storm still sitting
// unflushed in the delta store, recall@10 must be within 1 point of the
// idle index's; a Maintain then folds the backlog before the next storm.
func TestLSMRecallUnderInsertStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("insert storms over a 512-d corpus")
	}
	spec, rows, queries := internalAVectors(t, 0.02)
	db := openTest(t, Options{Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed, TargetPartitionSize: 100})
	const bootstrap, writers = 500, 8
	items := make([]Item, bootstrap)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("a%05d", i), Vector: rows[i]}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	queries = queries[:min(15, len(queries))]
	idleRecall := meanRecall(t, db, queries, 8)

	next := bootstrap
	for _, size := range []int{250, 2000} {
		stop := backgroundSearcher(t, db, queries)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(lo int) {
				defer wg.Done()
				for i := lo; i < next+size; i += writers {
					if err := db.Upsert(Item{ID: fmt.Sprintf("a%05d", i), Vector: rows[i]}); err != nil {
						t.Errorf("upsert %d: %v", i, err)
						return
					}
				}
			}(next + w)
		}
		wg.Wait()
		searches := stop()
		next += size
		recall := meanRecall(t, db, queries, 8)
		t.Logf("storm of %d upserts (%d searches during it): recall@10 %.4f vs idle %.4f", size, searches, recall, idleRecall)
		if idleRecall-recall > 0.01+1e-9 {
			t.Errorf("recall@10 %.4f after a %d-upsert storm, more than 1 point below idle %.4f", recall, size, idleRecall)
		}
		if _, err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLSMHammer races group-committed writers against searches and
// maintenance (delta flushes and splits) across the quantization and shard
// matrix. Run with -race in CI; the final state is reconciled against a
// per-writer mirror and the invariant battery.
func TestLSMHammer(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quant  Quantization
		shards int
	}{
		{"float32-single", QuantNone, 0},
		{"float32-3shard", QuantNone, 3},
		{"sq8-single", QuantSQ8, 0},
		{"sq8-3shard", QuantSQ8, 3},
		{"sq4-single", QuantSQ4, 0},
		{"sq4-3shard", QuantSQ4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Dim: 8, Backend: BackendMemory, Seed: 9,
				TargetPartitionSize: 32,
				Quantization:        tc.quant,
			}
			var db Store
			var sdb *ShardedDB
			var single *DB
			var err error
			if tc.shards > 0 {
				opts.Shards = tc.shards
				sdb, err = OpenSharded(t.TempDir(), opts)
				db = sdb
			} else {
				single, err = Open("", opts)
				db = single
			}
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			// Build a base index so the flush and rerank paths are live.
			rng := rand.New(rand.NewSource(13))
			base := make([]Item, 0, 128)
			for i := 0; i < 128; i++ {
				base = append(base, Item{ID: fmt.Sprintf("base%d", i), Vector: lsmVec(rng, 8)})
			}
			if err := db.UpsertBatch(base); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Rebuild(); err != nil {
				t.Fatal(err)
			}

			const writers, ops = 4, 120
			mirrors := make([]map[string][]float32, writers)
			var writerWG, auxWG sync.WaitGroup
			stop := make(chan struct{})
			// Searchers: random probes plus exact queries, continuously.
			for s := 0; s < 2; s++ {
				auxWG.Add(1)
				go func(s int) {
					defer auxWG.Done()
					rng := rand.New(rand.NewSource(100 + int64(s)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						req := SearchRequest{Vector: lsmVec(rng, 8), K: 5, Exact: s == 0}
						if _, err := db.Search(req); err != nil {
							t.Errorf("search: %v", err)
							return
						}
					}
				}(s)
			}
			// Maintainer: keeps flushing the delta while writers fill it.
			auxWG.Add(1)
			go func() {
				defer auxWG.Done()
				for {
					select {
					case <-stop:
						return
					case <-time.After(2 * time.Millisecond):
					}
					if _, err := db.Maintain(); err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("maintain: %v", err)
						return
					}
				}
			}()
			// Writers: each owns its own id space, so the mirror needs no
			// cross-goroutine coordination.
			for w := 0; w < writers; w++ {
				writerWG.Add(1)
				go func(w int) {
					defer writerWG.Done()
					rng := rand.New(rand.NewSource(200 + int64(w)))
					mirror := make(map[string][]float32)
					mirrors[w] = mirror
					for i := 0; i < ops; i++ {
						id := fmt.Sprintf("w%d-%d", w, rng.Intn(40))
						if _, ok := mirror[id]; ok && rng.Intn(4) == 0 {
							if err := db.Delete(id); err != nil {
								t.Errorf("delete %s: %v", id, err)
								return
							}
							delete(mirror, id)
							continue
						}
						v := lsmVec(rng, 8)
						if err := db.Upsert(Item{ID: id, Vector: v}); err != nil {
							t.Errorf("upsert %s: %v", id, err)
							return
						}
						mirror[id] = v
					}
				}(w)
			}
			// Writers finish on their own; searchers and the maintainer run
			// until they do.
			done := make(chan struct{})
			go func() { writerWG.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("hammer timed out")
			}
			close(stop)
			auxWG.Wait()

			if t.Failed() {
				return
			}
			// Reconcile every writer's mirror against the database.
			for w := 0; w < writers; w++ {
				for id, v := range mirrors[w] {
					got, err := db.Get(id)
					if err != nil {
						t.Fatalf("get %s: %v", id, err)
					}
					for d := range v {
						if got.Vector[d] != v[d] {
							t.Fatalf("id %s dim %d: got %v want %v", id, d, got.Vector[d], v[d])
						}
					}
				}
				for i := 0; i < 40; i++ {
					id := fmt.Sprintf("w%d-%d", w, i)
					if _, ok := mirrors[w][id]; ok {
						continue
					}
					if _, err := db.Get(id); !errors.Is(err, ErrNotFound) {
						t.Fatalf("deleted id %s: err = %v, want ErrNotFound", id, err)
					}
				}
			}
			if sdb != nil {
				if err := sdb.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			} else {
				checkSingleInvariants(t, single)
			}
		})
	}
}

// TestNegativeCacheRevalidatesOnCommit is the regression test for negative
// caching: an empty (negative) response is cached and served on repeat, but
// a commit — here, an upsert that makes the filter match — must invalidate
// it, never serve the stale empty result.
func TestNegativeCacheRevalidatesOnCommit(t *testing.T) {
	db, err := Open("", Options{
		Dim: 4, Backend: BackendMemory, Seed: 6,
		Attributes:  []AttributeDef{{Name: "color", Type: AttrText, Indexed: true}},
		ResultCache: ResultCacheOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		err := db.Upsert(Item{
			ID: fmt.Sprintf("r%d", i), Vector: lsmVec(rng, 4),
			Attributes: map[string]any{"color": "red"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	q := lsmVec(rng, 4)
	req := SearchRequest{Vector: q, K: 5, Filters: []Filter{Eq("color", "blue")}}

	resp, err := db.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("expected empty result, got %+v", resp.Results)
	}
	if cs := db.ResultCacheStats(); cs.Entries == 0 {
		t.Fatalf("Entries = 0, want the empty response cached (stats %+v)", cs)
	}

	resp, err = db.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("repeat: expected empty result, got %+v", resp.Results)
	}
	if got := db.ResultCacheStats(); got.Hits == 0 {
		t.Fatalf("Hits = 0 after identical repeat, want a negative cache hit (stats %+v)", got)
	}

	// The write makes the filter non-empty and moves the commit horizon:
	// the cached negative entry must revalidate, not answer.
	blue := lsmVec(rng, 4)
	err = db.Upsert(Item{ID: "b1", Vector: blue, Attributes: map[string]any{"color": "blue"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = db.Search(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "b1" {
		t.Fatalf("post-bump search served stale negative entry: %+v", resp.Results)
	}
	if got := db.ResultCacheStats(); got.Invalidations == 0 {
		t.Fatalf("Invalidations = 0 after a commit, stats %+v", got)
	}
}

// TestFilterHeavyAdmission checks the TTL doorkeeper: a filter-heavy query
// is cached only on its second occurrence, whether or not it has results.
func TestFilterHeavyAdmission(t *testing.T) {
	db, err := Open("", Options{
		Dim: 4, Backend: BackendMemory, Seed: 8,
		Attributes: []AttributeDef{
			{Name: "color", Type: AttrText, Indexed: true},
			{Name: "size", Type: AttrInt, Indexed: true},
		},
		ResultCache: ResultCacheOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		err := db.Upsert(Item{
			ID: fmt.Sprintf("x%d", i), Vector: lsmVec(rng, 4),
			Attributes: map[string]any{"color": "red", "size": int64(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	q := lsmVec(rng, 4)
	heavy := SearchRequest{Vector: q, K: 5, Filters: []Filter{Eq("color", "red"), Ge("size", int64(0))}}

	if _, err := db.Search(heavy); err != nil {
		t.Fatal(err)
	}
	cs := db.ResultCacheStats()
	if cs.AdmissionDeferred == 0 {
		t.Fatalf("AdmissionDeferred = 0 after first filter-heavy query, stats %+v", cs)
	}
	if cs.Entries != 0 {
		t.Fatalf("Entries = %d after deferred admission, want 0", cs.Entries)
	}

	if _, err := db.Search(heavy); err != nil {
		t.Fatal(err)
	}
	if got := db.ResultCacheStats(); got.Entries == 0 {
		t.Fatalf("second occurrence not admitted, stats %+v", got)
	}
	if _, err := db.Search(heavy); err != nil {
		t.Fatal(err)
	}
	if got := db.ResultCacheStats(); got.Hits == 0 {
		t.Fatalf("third occurrence not served from cache, stats %+v", got)
	}

	// Filter-heavy and negative: deferred like any filter-heavy response.
	neg := SearchRequest{Vector: q, K: 5, Filters: []Filter{Eq("color", "blue"), Ge("size", int64(0))}}
	before := db.ResultCacheStats()
	if _, err := db.Search(neg); err != nil {
		t.Fatal(err)
	}
	after := db.ResultCacheStats()
	if after.AdmissionDeferred != before.AdmissionDeferred+1 || after.Entries != before.Entries {
		t.Fatalf("negative filter-heavy response not deferred on first sight: %+v -> %+v", before, after)
	}
}
