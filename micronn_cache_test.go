package micronn

// The result-cache proof battery.
//
//   - TestCacheStalenessOracle: seeded randomized interleavings of
//     Search/BatchSearch/Upsert/Delete/Maintain/FlushDelta/Analyze/Rebuild
//     on single-store and sharded databases, float32, SQ8 and SQ4. After
//     every mutation, cached responses are compared against a cache-off
//     oracle run of the same request at the same moment — byte-identical
//     results required, every time. Each schedule ends with a Checkpoint
//     and a Maintain pass that finds nothing to do; neither commits, so a
//     repeated query after them must be a hit. Failures log the schedule
//     seed; re-run with MICRONN_CACHE_SEED=<seed>.
//   - TestCacheRaceHammer: concurrent hot searches + writes + maintenance
//     on a 4-shard cached database under -race.
//   - TestShardedCachePartialReuse: a point write moves one shard's
//     generation; the repeat re-scans only that shard.
//   - TestDropCachesClearsResultCache: the DropCaches regression fix.
//   - TestResultCacheZipfHitRatio: a read-only Zipfian stream is mostly
//     served from the cache.
//   - TestCacheEnvOverride: the MICRONN_TEST_CACHE=1 matrix override.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"
)

// cacheOracleSeed returns the battery's base seed: MICRONN_CACHE_SEED when
// set (exact repro), a time-derived seed otherwise. It is always logged.
func cacheOracleSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("MICRONN_CACHE_SEED"); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MICRONN_CACHE_SEED %q: %v", s, err)
		}
		t.Logf("cache oracle seed %d (from MICRONN_CACHE_SEED)", seed)
		return seed
	}
	seed := time.Now().UnixNano()
	t.Logf("cache oracle seed %d (repro: MICRONN_CACHE_SEED=%d)", seed, seed)
	return seed
}

// sameResults requires got and want to be byte-identical hit lists.
func sameResults(t *testing.T, tag string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: cached returned %d results, oracle %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
			t.Fatalf("%s: result %d diverged: cached (%s, %v) vs oracle (%s, %v)",
				tag, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
}

func cacheStatsOfStore(t *testing.T, db Store) CacheStats {
	t.Helper()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Cache
}

// oracleCheck issues req cached twice and uncached once at a quiesced
// moment and requires all three responses identical: the first cached call
// fills or revalidates the entry, the second must serve from cache, the
// NoCache run is ground truth.
func oracleCheck(t *testing.T, db Store, tag string, req SearchRequest) {
	t.Helper()
	first, err := db.Search(req)
	if err != nil {
		t.Fatalf("%s: cached search: %v", tag, err)
	}
	second, err := db.Search(req)
	if err != nil {
		t.Fatalf("%s: cached repeat: %v", tag, err)
	}
	oracle := req
	oracle.NoCache = true
	want, err := db.Search(oracle)
	if err != nil {
		t.Fatalf("%s: oracle search: %v", tag, err)
	}
	sameResults(t, tag+"/first", first.Results, want.Results)
	sameResults(t, tag+"/repeat", second.Results, want.Results)
}

func oracleBatchCheck(t *testing.T, db Store, tag string, req BatchSearchRequest) {
	t.Helper()
	got, err := db.BatchSearch(req)
	if err != nil {
		t.Fatalf("%s: cached batch: %v", tag, err)
	}
	oracle := req
	oracle.NoCache = true
	want, err := db.BatchSearch(oracle)
	if err != nil {
		t.Fatalf("%s: oracle batch: %v", tag, err)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: cached batch returned %d result lists, oracle %d", tag, len(got.Results), len(want.Results))
	}
	for qi := range got.Results {
		sameResults(t, fmt.Sprintf("%s/q%d", tag, qi), got.Results[qi], want.Results[qi])
	}
}

// quiescentHit checks that a Checkpoint, and a Maintain pass that finds
// nothing to do, commit nothing: req, cached before them, is a hit after
// them and still equals the oracle.
func quiescentHit(t *testing.T, db Store, tag string, req SearchRequest) {
	t.Helper()
	for i := 0; ; i++ { // settle: the last pass planned nothing
		rep, err := db.Maintain()
		if err != nil {
			t.Fatalf("%s: maintain: %v", tag, err)
		}
		if rep.Action == "none" {
			break
		}
		if i == 10 {
			t.Fatalf("%s: maintenance did not settle in %d passes (last %+v)", tag, i+1, rep)
		}
	}
	if _, err := db.Search(req); err != nil {
		t.Fatalf("%s: cached search: %v", tag, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("%s: checkpoint: %v", tag, err)
	}
	if rep, err := db.Maintain(); err != nil || rep.Action != "none" || rep.Steps != 0 {
		t.Fatalf("%s: settled maintain: %+v, %v; want a pass with nothing to do", tag, rep, err)
	}
	before := cacheStatsOfStore(t, db)
	got, err := db.Search(req)
	if err != nil {
		t.Fatalf("%s: cached repeat: %v", tag, err)
	}
	after := cacheStatsOfStore(t, db)
	if after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Invalidations != before.Invalidations {
		t.Fatalf("%s: repeat after checkpoint and idle maintain was not a hit: %+v -> %+v", tag, before, after)
	}
	oracle := req
	oracle.NoCache = true
	want, err := db.Search(oracle)
	if err != nil {
		t.Fatalf("%s: oracle search: %v", tag, err)
	}
	sameResults(t, tag+"/quiescent", got.Results, want.Results)
}

// runCacheOracle drives one configuration through `schedules` seeded
// randomized interleavings.
func runCacheOracle(t *testing.T, qt Quantization, shards int, baseSeed int64, schedules int) {
	dim := shardTestDim
	opts := Options{
		Dim:                 dim,
		TargetPartitionSize: 24,
		Seed:                baseSeed,
		Quantization:        qt,
		Attributes:          []AttributeDef{{Name: "grp", Type: AttrInt, Indexed: true}},
		ResultCache:         ResultCacheOptions{Enabled: true},
	}
	var db Store
	if shards > 0 {
		opts.Shards = shards
		db = openShardedTest(t, filepath.Join(t.TempDir(), "oracle.d"), opts)
	} else {
		d, err := Open(filepath.Join(t.TempDir(), "oracle.mnn"), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		db = d
	}

	const corpus = 200
	vecs := clusteredVecs(baseSeed, corpus, dim, 6)
	items := make([]Item, corpus)
	for i := range items {
		items[i] = Item{
			ID:         fmt.Sprintf("a%04d", i),
			Vector:     vecs[i],
			Attributes: map[string]any{"grp": int64(i % 5)},
		}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// A small pool of hot queries: repeats are the workload the cache
	// exists for, and repeats are what exposes staleness.
	queries := clusteredVecs(baseSeed+1, 6, dim, 6)

	nextID := corpus
	for sched := 0; sched < schedules; sched++ {
		seed := baseSeed + int64(sched)*7919
		rng := rand.New(rand.NewSource(seed))
		tag := fmt.Sprintf("schedule %d (seed %d)", sched, seed)
		steps := 6 + rng.Intn(6)
		for step := 0; step < steps; step++ {
			stag := fmt.Sprintf("%s step %d", tag, step)
			switch op := rng.Intn(11); {
			case op < 4: // upsert batch: mix of fresh ids and overwrites
				n := 1 + rng.Intn(5)
				batch := make([]Item, n)
				for j := range batch {
					var id string
					if rng.Intn(3) == 0 {
						id = fmt.Sprintf("a%04d", rng.Intn(corpus))
					} else {
						id = fmt.Sprintf("a%04d", nextID)
						nextID++
					}
					// Perturb the base vector so no two items are ever
					// bit-identical: exact distance ties at the K boundary
					// are resolved nondeterministically by the parallel
					// scans (a pre-existing engine property, orthogonal to
					// cache staleness), and the oracle demands
					// byte-identical responses.
					v := append([]float32(nil), vecs[rng.Intn(corpus)]...)
					for d := range v {
						v[d] += float32(rng.NormFloat64()) * 0.01
					}
					batch[j] = Item{
						ID:         id,
						Vector:     v,
						Attributes: map[string]any{"grp": int64(rng.Intn(5))},
					}
				}
				if err := db.UpsertBatch(batch); err != nil {
					t.Fatalf("%s: upsert: %v", stag, err)
				}
			case op < 6: // delete (possibly absent: DeleteBatch tolerates)
				if err := db.DeleteBatch([]string{fmt.Sprintf("a%04d", rng.Intn(nextID))}); err != nil {
					t.Fatalf("%s: delete: %v", stag, err)
				}
			case op < 8: // incremental maintenance
				if _, err := db.Maintain(); err != nil {
					t.Fatalf("%s: maintain: %v", stag, err)
				}
			case op < 9: // explicit flush
				if _, err := db.FlushDelta(); err != nil {
					t.Fatalf("%s: flush: %v", stag, err)
				}
			case op < 10: // statistics only: may flip PlanAuto's choice
				if err := db.Analyze(); err != nil {
					t.Fatalf("%s: analyze: %v", stag, err)
				}
			default: // full rebuild (rare)
				if _, err := db.Rebuild(); err != nil {
					t.Fatalf("%s: rebuild: %v", stag, err)
				}
			}

			// Every mutation is followed by oracle-checked queries: a hot
			// repeat, a parameter variant, sometimes a filtered or exact
			// search, sometimes a batch.
			q := queries[rng.Intn(3)] // zipf-ish: favor the hottest three
			req := SearchRequest{Vector: q, K: 5 + rng.Intn(6), NProbe: 4 + rng.Intn(8)}
			switch rng.Intn(5) {
			case 0:
				req.Filters = []Filter{Ge("grp", int64(rng.Intn(4)))}
			case 1:
				req.Exact = true
			case 2:
				if qt != QuantNone {
					req.RerankFactor = 2 + rng.Intn(4)
				}
			}
			oracleCheck(t, db, stag, req)
			if rng.Intn(4) == 0 {
				oracleBatchCheck(t, db, stag, BatchSearchRequest{
					Vectors: [][]float32{queries[rng.Intn(len(queries))], queries[rng.Intn(3)]},
					K:       8, NProbe: 6,
				})
			}
		}
		quiescentHit(t, db, tag, SearchRequest{Vector: queries[rng.Intn(3)], K: 8, NProbe: 6})
	}

	cs := cacheStatsOfStore(t, db)
	if cs.Hits == 0 {
		t.Fatalf("oracle finished without a single cache hit: %+v", cs)
	}
	if cs.Invalidations == 0 {
		t.Fatalf("oracle finished without a single invalidation (mutations did not move the generation?): %+v", cs)
	}
	t.Logf("cache stats: %+v (hit ratio %.2f)", cs, cs.HitRatio())
}

// TestCacheStalenessOracle is the battery's core: across the four
// configurations it runs well over 200 seeded interleavings (~260 at full
// count), each interleaving a randomized op schedule with byte-identical
// cached-vs-oracle comparison after every mutation.
func TestCacheStalenessOracle(t *testing.T) {
	base := cacheOracleSeed(t)
	schedules := 65
	if testing.Short() {
		schedules = 8
	}
	for i, cfg := range []struct {
		name   string
		quant  Quantization
		shards int
	}{
		{"float32/single", QuantNone, 0},
		{"float32/sharded", QuantNone, 3},
		{"sq8/single", QuantSQ8, 0},
		{"sq8/sharded", QuantSQ8, 3},
		{"sq4/single", QuantSQ4, 0},
		{"sq4/sharded", QuantSQ4, 3},
	} {
		cfg, i := cfg, i
		t.Run(cfg.name, func(t *testing.T) {
			t.Parallel()
			runCacheOracle(t, cfg.quant, cfg.shards, base+int64(i), schedules)
		})
	}
}

// TestCacheRaceHammer runs hot repeated searches, batched searches, point
// writes and auto-maintenance concurrently on a 4-shard cached database.
// Run under -race in CI. Asserts the hit counter advances, the sharded
// invariants hold afterwards, and the quiesced cache still agrees with the
// oracle.
func TestCacheRaceHammer(t *testing.T) {
	dim := shardTestDim
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "hammer.d"), Options{
		Dim:                 dim,
		Shards:              4,
		TargetPartitionSize: 24,
		Seed:                42,
		AutoMaintain:        true,
		MaintainInterval:    5 * time.Millisecond,
		ResultCache:         ResultCacheOptions{Enabled: true},
	})
	vecs := clusteredVecs(99, 400, dim, 6)
	items := make([]Item, 300)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("h%04d", i), Vector: vecs[i]}
	}
	if err := sdb.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Rebuild(); err != nil {
		t.Fatal(err)
	}

	duration := 1500 * time.Millisecond
	if testing.Short() {
		duration = 400 * time.Millisecond
	}
	deadline := time.Now().Add(duration)
	hot := clusteredVecs(7, 4, dim, 6)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}

	// Hot searchers: the same four queries over and over — the cache's
	// bread and butter, racing the writers' invalidations.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				q := hot[(g+i)%len(hot)]
				// Back-to-back repeats of the same query: unless a write
				// lands in the sub-millisecond gap, the second serves from
				// the cache — the hot-repeat pattern the cache exists for.
				for r := 0; r < 2; r++ {
					if _, err := sdb.Search(SearchRequest{Vector: q, K: 10, NProbe: 8}); err != nil {
						fail(fmt.Errorf("searcher %d: %w", g, err))
						return
					}
				}
				if i%16 == 0 {
					if _, err := sdb.BatchSearch(BatchSearchRequest{Vectors: hot[:2], K: 10, NProbe: 8}); err != nil {
						fail(fmt.Errorf("batcher %d: %w", g, err))
						return
					}
				}
			}
		}(g)
	}
	// Writer: upserts and deletes keep every shard's generation moving, in
	// bursts with quiet windows between them. The bursts hammer the
	// invalidation and partial-reuse paths; the quiet windows guarantee
	// hot repeats can actually hit, however much -race slows each search
	// (an unthrottled writer would invalidate between every pair of
	// searches and prove only the invalidation path).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 300; time.Now().Before(deadline); {
			for b := 0; b < 8 && time.Now().Before(deadline); b++ {
				if err := sdb.Upsert(Item{ID: fmt.Sprintf("h%04d", i%400), Vector: vecs[i%400]}); err != nil {
					fail(fmt.Errorf("writer: %w", err))
					return
				}
				i++
				if rng.Intn(4) == 0 {
					if err := sdb.DeleteBatch([]string{fmt.Sprintf("h%04d", rng.Intn(400))}); err != nil {
						fail(fmt.Errorf("deleter: %w", err))
						return
					}
				}
				time.Sleep(time.Millisecond)
			}
			time.Sleep(40 * time.Millisecond)
		}
	}()
	// Stats poller (reads the cache counters concurrently).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			if _, err := sdb.Stats(); err != nil {
				fail(fmt.Errorf("stats: %w", err))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	cs := sdb.ResultCacheStats()
	if cs.Hits == 0 {
		t.Fatalf("hammer finished without a cache hit: %+v", cs)
	}
	if err := sdb.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Quiesced: the cache must agree with the oracle on every hot query.
	for i, q := range hot {
		oracleCheck(t, sdb, fmt.Sprintf("post-hammer q%d", i), SearchRequest{Vector: q, K: 10, NProbe: 8})
	}
	t.Logf("hammer cache stats: %+v", cs)
}

// TestShardedCachePartialReuse pins the tentpole's scatter-skipping
// behavior: after a point write that touches exactly one shard, the repeat
// of a cached query re-scans only that shard and reuses the other three
// shards' cached candidates — and still matches the oracle exactly.
func TestShardedCachePartialReuse(t *testing.T) {
	dim := shardTestDim
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "partial.d"), Options{
		Dim:                 dim,
		Shards:              4,
		TargetPartitionSize: 24,
		Seed:                7,
		ResultCache:         ResultCacheOptions{Enabled: true},
	})
	vecs := clusteredVecs(5, 240, dim, 5)
	items := make([]Item, 240)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("p%04d", i), Vector: vecs[i]}
	}
	if err := sdb.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Rebuild(); err != nil {
		t.Fatal(err)
	}

	q := clusteredVecs(11, 1, dim, 5)[0]
	req := SearchRequest{Vector: q, K: 10, NProbe: 8}
	if _, err := sdb.Search(req); err != nil { // fill
		t.Fatal(err)
	}
	if _, err := sdb.Search(req); err != nil { // hit
		t.Fatal(err)
	}
	cs := sdb.ResultCacheStats()
	if cs.Hits != 1 || cs.SkippedShardScans != 0 {
		t.Fatalf("warmup stats: %+v; want exactly 1 hit, 0 skipped scans", cs)
	}

	// One point write moves exactly one shard's generation.
	if err := sdb.Upsert(Item{ID: "solo", Vector: vecs[0]}); err != nil {
		t.Fatal(err)
	}
	oracleCheck(t, sdb, "after point write", req)
	cs = sdb.ResultCacheStats()
	if cs.Invalidations == 0 {
		t.Fatalf("point write did not invalidate: %+v", cs)
	}
	if want := uint64(sdb.Shards() - 1); cs.SkippedShardScans != want {
		t.Fatalf("partial reuse skipped %d shard scans; want %d (stats %+v)", cs.SkippedShardScans, want, cs)
	}

	// Unchanged since the re-fill: full hit again.
	before := cs.Hits
	if _, err := sdb.Search(req); err != nil {
		t.Fatal(err)
	}
	if cs = sdb.ResultCacheStats(); cs.Hits <= before {
		t.Fatalf("repeat after revalidation did not hit: %+v", cs)
	}
}

// TestShardedSnapshotDoesNotPolluteCache: a long-lived snapshot pinned to
// an old horizon may read through the cache but must never store entries —
// an entry stamped with old generations would displace the entry live
// traffic still needs. Runs on a single store and on a sharded one.
func TestShardedSnapshotDoesNotPolluteCache(t *testing.T) {
	dim := shardTestDim
	opts := Options{
		Dim: dim, TargetPartitionSize: 24, Seed: 13,
		ResultCache: ResultCacheOptions{Enabled: true},
	}
	vecs := clusteredVecs(21, 150, dim, 4)
	items := make([]Item, 150)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("s%04d", i), Vector: vecs[i]}
	}
	q := clusteredVecs(22, 1, dim, 4)[0]
	req := SearchRequest{Vector: q, K: 10, NProbe: 8}

	// A single DB is the router's one-shard case: the contract is the same.
	check := func(t *testing.T, sdb interface {
		Store
		ResultCacheStats() CacheStats
	}) {
		if err := sdb.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.Rebuild(); err != nil {
			t.Fatal(err)
		}

		// Pin an old horizon, then advance the live database.
		snap, err := sdb.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Close()
		if err := sdb.Upsert(Item{ID: "newer", Vector: vecs[1]}); err != nil {
			t.Fatal(err)
		}

		// Live search caches an entry at the current generations.
		if _, err := sdb.Search(req); err != nil {
			t.Fatal(err)
		}
		// The old-horizon snapshot runs the same query: it must compute (its
		// generations don't match the entry) without overwriting the entry.
		snapResp, err := snap.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		// The live repeat must still be a full hit on the live entry.
		hitsBefore := sdb.ResultCacheStats().Hits
		liveResp, err := sdb.Search(req)
		if err != nil {
			t.Fatal(err)
		}
		if cs := sdb.ResultCacheStats(); cs.Hits != hitsBefore+1 {
			t.Fatalf("live repeat after snapshot search did not hit (snapshot polluted the cache): %+v", cs)
		}
		// And the snapshot's answer reflects its own horizon, not the cache's:
		// "newer" was upserted after the snapshot was pinned.
		for _, r := range snapResp.Results {
			if r.ID == "newer" {
				t.Fatal("snapshot search observed a post-snapshot write")
			}
		}
		_ = liveResp
	}
	t.Run("single", func(t *testing.T) {
		check(t, openTest(t, opts))
	})
	t.Run("shards2", func(t *testing.T) {
		o := opts
		o.Shards = 2
		check(t, openShardedTest(t, filepath.Join(t.TempDir(), "snappollute.d"), o))
	})
}

// TestDropCachesClearsResultCache is the regression test for the
// DropCaches fix: cold-start benchmarks call DropCaches to measure true
// cold paths, so it must clear the result cache on both database flavors.
func TestDropCachesClearsResultCache(t *testing.T) {
	dim := shardTestDim
	vecs := clusteredVecs(3, 120, dim, 4)
	items := make([]Item, 120)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("d%04d", i), Vector: vecs[i]}
	}
	q := clusteredVecs(4, 1, dim, 4)[0]
	req := SearchRequest{Vector: q, K: 10, NProbe: 8}

	check := func(t *testing.T, db Store) {
		t.Helper()
		if err := db.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Rebuild(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := db.Search(req); err != nil {
				t.Fatal(err)
			}
		}
		cs := cacheStatsOfStore(t, db)
		if cs.Entries == 0 || cs.Hits == 0 {
			t.Fatalf("warmup left no cached entry: %+v", cs)
		}
		db.DropCaches()
		cs = cacheStatsOfStore(t, db)
		if cs.Entries != 0 || cs.Bytes != 0 {
			t.Fatalf("DropCaches left %d entries, %d bytes in the result cache", cs.Entries, cs.Bytes)
		}
		missesBefore := cs.Misses
		if _, err := db.Search(req); err != nil {
			t.Fatal(err)
		}
		if cs = cacheStatsOfStore(t, db); cs.Misses != missesBefore+1 {
			t.Fatalf("post-drop search should miss (cold), stats %+v", cs)
		}
	}

	t.Run("single", func(t *testing.T) {
		db, err := Open(filepath.Join(t.TempDir(), "drop.mnn"), Options{
			Dim: dim, TargetPartitionSize: 24, Seed: 1,
			ResultCache: ResultCacheOptions{Enabled: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		check(t, db)
	})
	t.Run("sharded", func(t *testing.T) {
		sdb := openShardedTest(t, filepath.Join(t.TempDir(), "drop.d"), Options{
			Dim: dim, Shards: 3, TargetPartitionSize: 24, Seed: 1,
			ResultCache: ResultCacheOptions{Enabled: true},
		})
		check(t, sdb)
	})
}

// TestResultCacheZipfHitRatio replays the workload the result cache exists
// for — a Zipfian stream of repeated queries (type-ahead, repeated RAG
// lookups) over a store with no writes in flight — and requires at least
// half the lookups to be answered from the cache.
func TestResultCacheZipfHitRatio(t *testing.T) {
	const dim, numQueries, streamLen = 32, 50, 600
	db, err := Open(filepath.Join(t.TempDir(), "zipf.mnn"), Options{
		Dim: dim, Seed: 1, ResultCache: ResultCacheOptions{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vecs := clusteredVecs(5, 2000, dim, 16)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("z%05d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	queries := clusteredVecs(6, numQueries, dim, 16)
	zipf := rand.NewZipf(rand.New(rand.NewSource(5)), 1.3, 2, numQueries-1)

	db.DropCaches() // start cold
	before := db.ResultCacheStats()
	for i := 0; i < streamLen; i++ {
		q := queries[zipf.Uint64()]
		if _, err := db.Search(SearchRequest{Vector: q, K: 10, NProbe: 16}); err != nil {
			t.Fatal(err)
		}
	}
	after := db.ResultCacheStats()
	stream := CacheStats{
		Hits:          after.Hits - before.Hits,
		Misses:        after.Misses - before.Misses,
		Invalidations: after.Invalidations - before.Invalidations,
	}
	ratio := stream.HitRatio()
	t.Logf("read-only Zipfian stream: %d hits, %d misses, %d invalidations: hit ratio %.3f",
		stream.Hits, stream.Misses, stream.Invalidations, ratio)
	if ratio < 0.5 {
		t.Errorf("hit ratio %.3f on the read-only Zipfian stream, want >= 0.5", ratio)
	}
}

// TestCacheEnvOverride proves the MICRONN_TEST_CACHE=1 matrix leg reaches
// databases opened without a configured cache — and that the per-shard
// stores under a router do NOT each grow one.
func TestCacheEnvOverride(t *testing.T) {
	t.Setenv(EnvCacheVar, "1")
	dim := shardTestDim
	vecs := clusteredVecs(8, 60, dim, 3)
	items := make([]Item, 60)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("e%04d", i), Vector: vecs[i]}
	}
	req := SearchRequest{Vector: vecs[0], K: 5, NProbe: 4}

	db, err := Open(filepath.Join(t.TempDir(), "env.mnn"), Options{Dim: dim, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	cs := db.ResultCacheStats()
	if !cs.Enabled || cs.Hits == 0 {
		t.Fatalf("env override did not enable the single-store cache: %+v", cs)
	}

	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "env.d"), Options{Dim: dim, Shards: 2, Seed: 1})
	if err := sdb.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sdb.Search(req); err != nil {
			t.Fatal(err)
		}
	}
	if cs := sdb.ResultCacheStats(); !cs.Enabled || cs.Hits == 0 {
		t.Fatalf("env override did not enable the router cache: %+v", cs)
	}
	for i := 0; i < sdb.Shards(); i++ {
		if sdb.Shard(i).cache != nil {
			t.Fatalf("shard %d grew its own cache under the router", i)
		}
	}
}

// TestCacheMatchKeyIsTokenSet: a MATCH filter means its query's unique
// token set, so MATCH queries that differ only in token order or case are
// one query to the result cache: "cat dog", "dog cat" and "CAT dog" make
// one miss and one entry, and the later two are hits.
func TestCacheMatchKeyIsTokenSet(t *testing.T) {
	const dim = 8
	db, err := Open(filepath.Join(t.TempDir(), "match.mnn"), Options{
		Dim: dim, Seed: 1, ResultCache: ResultCacheOptions{Enabled: true},
		Attributes: []AttributeDef{{Name: "tags", Type: AttrText, FullText: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	vecs := randomVecs(3, 50, dim)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("m%02d", i), Vector: v, Attributes: map[string]any{"tags": []string{"cat", "dog", "cat dog", "bird"}[i%4]}}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	var first []Result
	for i, text := range []string{"cat dog", "dog cat", "CAT dog"} {
		resp, err := db.Search(SearchRequest{Vector: vecs[0], K: 5, Filters: []Filter{Match("tags", text)}})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = resp.Results
		} else {
			sameResults(t, text, resp.Results, first)
		}
	}
	if cs := db.ResultCacheStats(); cs.Misses != 1 || cs.Hits != 2 || cs.Entries != 1 {
		t.Fatalf("three MATCH texts with one token set: %d misses, %d hits, %d entries; want 1, 2, 1", cs.Misses, cs.Hits, cs.Entries)
	}
}
