package micronn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func openTest(t testing.TB, opts Options) *DB {
	t.Helper()
	if opts.Dim == 0 {
		opts.Dim = 8
	}
	db, err := Open(filepath.Join(t.TempDir(), "test.mnn"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func randomVecs(seed int64, n, dim int) [][]float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestOpenRequiresDim(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "x.mnn"), Options{}); err == nil {
		t.Error("Open without Dim should fail for a new database")
	}
}

func TestUpsertSearchRoundTrip(t *testing.T) {
	db := openTest(t, Options{Dim: 4})
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Item{ID: "b", Vector: []float32{0, 1, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	resp, err := db.Search(SearchRequest{Vector: []float32{1, 0.1, 0, 0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "a" {
		t.Errorf("results = %+v", resp.Results)
	}
}

func TestGetAndAttributes(t *testing.T) {
	db := openTest(t, Options{
		Dim: 4,
		Attributes: []AttributeDef{
			{Name: "location", Type: AttrText, Indexed: true},
			{Name: "ts", Type: AttrInt},
		},
	})
	err := db.Upsert(Item{
		ID:         "x",
		Vector:     []float32{1, 2, 3, 4},
		Attributes: map[string]any{"location": "Seattle", "ts": 42},
	})
	if err != nil {
		t.Fatal(err)
	}
	item, err := db.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if item.Vector[2] != 3 {
		t.Errorf("vector = %v", item.Vector)
	}
	if item.Attributes["location"] != "Seattle" || item.Attributes["ts"] != int64(42) {
		t.Errorf("attributes = %v", item.Attributes)
	}
	if _, err := db.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v", err)
	}
}

func TestDeleteAndBatch(t *testing.T) {
	db := openTest(t, Options{Dim: 4})
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("i%d", i), Vector: []float32{float32(i), 0, 0, 0}}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("i3"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("i3"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete = %v", err)
	}
	if err := db.DeleteBatch([]string{"i4", "i4", "nope"}); err != nil {
		t.Errorf("DeleteBatch with absent ids = %v", err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVectors != 8 {
		t.Errorf("NumVectors = %d, want 8", st.NumVectors)
	}
}

func TestRebuildMaintainFlow(t *testing.T) {
	db := openTest(t, Options{Dim: 8, TargetPartitionSize: 20, Seed: 1, FlushThreshold: 10})
	vecs := randomVecs(1, 300, 8)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}

	// Maintain on a never-built index performs the initial build.
	rep, err := db.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "rebuild" {
		t.Errorf("action = %s, want rebuild", rep.Action)
	}
	if rep.Partitions != 15 {
		t.Errorf("partitions = %d, want 15", rep.Partitions)
	}

	// Nothing to do right after a build.
	rep, err = db.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "none" {
		t.Errorf("action = %s, want none", rep.Action)
	}

	// A dozen inserts exceed FlushThreshold -> incremental flush.
	extra := randomVecs(2, 12, 8)
	for i, v := range extra {
		if err := db.Upsert(Item{ID: fmt.Sprintf("e%d", i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = db.Maintain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != "flush" {
		t.Errorf("action = %s, want flush", rep.Action)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaCount != 0 {
		t.Errorf("delta after flush = %d", st.DeltaCount)
	}
}

func TestHybridFilterAPI(t *testing.T) {
	db := openTest(t, Options{
		Dim: 4, TargetPartitionSize: 10, Seed: 2,
		Attributes: []AttributeDef{
			{Name: "kind", Type: AttrText, Indexed: true},
			{Name: "score", Type: AttrFloat, Indexed: true},
			{Name: "tags", Type: AttrText, FullText: true},
		},
	})
	for i := 0; i < 100; i++ {
		kind := "photo"
		if i%10 == 0 {
			kind = "video"
		}
		err := db.Upsert(Item{
			ID:     fmt.Sprintf("a%d", i),
			Vector: []float32{float32(i), 1, 0, 0},
			Attributes: map[string]any{
				"kind":  kind,
				"score": float64(i) / 100,
				"tags":  fmt.Sprintf("tag%d common", i%5),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := db.Analyze(); err != nil {
		t.Fatal(err)
	}

	q := []float32{50, 1, 0, 0}
	resp, err := db.Search(SearchRequest{
		Vector: q, K: 100,
		Filters: []Filter{Eq("kind", "video")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 10 {
		t.Errorf("video results = %d, want 10", len(resp.Results))
	}

	resp, err = db.Search(SearchRequest{
		Vector: q, K: 100,
		Filters: []Filter{Match("tags", "tag3"), Gt("score", 0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		var id int
		fmt.Sscanf(r.ID, "a%d", &id)
		if id%5 != 3 || id <= 50 {
			t.Errorf("result %s violates filters", r.ID)
		}
	}

	// OR group via Any.
	resp, err = db.Search(SearchRequest{
		Vector: q, K: 100, Exact: true,
		Filters: []Filter{Any(Eq("kind", "video"), Gt("score", 0.95))},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := 0; i < 100; i++ {
		if i%10 == 0 || float64(i)/100 > 0.95 {
			want[fmt.Sprintf("a%d", i)] = true
		}
	}
	if len(resp.Results) != len(want) {
		t.Errorf("OR results = %d, want %d", len(resp.Results), len(want))
	}
}

// TestAnalyzeReachesOptimizer checks that Analyze's statistics reach the
// hybrid optimizer at once, on a single store and on a sharded one: after
// Analyze a filtered search must report the filter selectivity it reports
// once every in-memory cache is dropped. The index is built, and searched,
// while every row has c=0; Analyze then sees half the rows at c=7.
func TestAnalyzeReachesOptimizer(t *testing.T) {
	opts := Options{Dim: 8, Seed: 1, Attributes: []AttributeDef{{Name: "c", Type: AttrInt, Indexed: true}}}
	sharded := opts
	sharded.Shards = 2
	for _, tc := range []struct {
		name string
		db   Store
	}{
		{"single", openTest(t, opts)},
		{"sharded", openShardedTest(t, filepath.Join(t.TempDir(), "analyze.d"), sharded)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := tc.db
			vecs := randomVecs(3, 800, 8)
			upsert := func(lo, hi, c int) {
				items := make([]Item, 0, hi-lo)
				for i := lo; i < hi; i++ {
					items = append(items, Item{ID: fmt.Sprintf("v%d", i), Vector: vecs[i], Attributes: map[string]any{"c": c}})
				}
				if err := db.UpsertBatch(items); err != nil {
					t.Fatal(err)
				}
			}
			upsert(0, 400, 0)
			if _, err := db.Rebuild(); err != nil {
				t.Fatal(err)
			}
			selectivity := func() float64 {
				t.Helper()
				resp, err := db.Search(SearchRequest{Vector: vecs[0], K: 10, Filters: []Filter{Eq("c", 7)}, NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				return resp.Plan.FilterSelectivity
			}
			selectivity() // loads the statistics of the build
			upsert(400, 800, 7)
			if err := db.Analyze(); err != nil {
				t.Fatal(err)
			}
			got := selectivity()
			db.DropCaches()
			if want := selectivity(); got != want {
				t.Errorf("FilterSelectivity after Analyze = %.4f, after DropCaches = %.4f", got, want)
			}
		})
	}
}

func TestBatchSearchAPI(t *testing.T) {
	db := openTest(t, Options{Dim: 8, TargetPartitionSize: 20, Seed: 3})
	vecs := randomVecs(5, 400, 8)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	queries := [][]float32{vecs[1], vecs[100], vecs[399]}
	resp, err := db.BatchSearch(BatchSearchRequest{Vectors: queries, K: 5, NProbe: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch results = %d", len(resp.Results))
	}
	for qi, want := range []string{"v1", "v100", "v399"} {
		if resp.Results[qi][0].ID != want {
			t.Errorf("query %d top = %s, want %s", qi, resp.Results[qi][0].ID, want)
		}
	}
	if resp.Info.PartitionScans == 0 || resp.Info.PartitionScans > resp.Info.QueryPartitionPairs {
		t.Errorf("batch info = %+v", resp.Info)
	}
	// Empty batch.
	empty, err := db.BatchSearch(BatchSearchRequest{})
	if err != nil || len(empty.Results) != 0 {
		t.Errorf("empty batch = %+v, %v", empty, err)
	}
}

func TestConcurrentSearchesAndWrites(t *testing.T) {
	db := openTest(t, Options{Dim: 8, TargetPartitionSize: 25, Seed: 4})
	vecs := randomVecs(7, 500, 8)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				q := vecs[rng.Intn(len(vecs))]
				if _, err := db.Search(SearchRequest{Vector: q, K: 10, NProbe: 4}); err != nil {
					errCh <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := randomVecs(9, 50, 8)
		for i, v := range extra {
			if err := db.Upsert(Item{ID: fmt.Sprintf("w%d", i), Vector: v}); err != nil {
				errCh <- err
				return
			}
		}
		if _, err := db.FlushDelta(); err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVectors != 550 {
		t.Errorf("NumVectors = %d, want 550", st.NumVectors)
	}
}

func TestReopenKeepsEverything(t *testing.T) {
	skipIfEphemeralBackend(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "p.mnn")
	db, err := Open(path, Options{Dim: 4, TargetPartitionSize: 10, Seed: 5,
		Attributes: []AttributeDef{{Name: "k", Type: AttrText, Indexed: true}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		err := db.Upsert(Item{
			ID: fmt.Sprintf("v%d", i), Vector: []float32{float32(i), 0, 0, 0},
			Attributes: map[string]any{"k": fmt.Sprintf("g%d", i%3)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{}) // config restored from disk
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Dim() != 4 {
		t.Errorf("Dim = %d", db2.Dim())
	}
	st, err := db2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVectors != 50 || st.NumPartitions != 5 {
		t.Errorf("stats = %+v", st)
	}
	resp, err := db2.Search(SearchRequest{
		Vector: []float32{7, 0, 0, 0}, K: 3,
		Filters: []Filter{Eq("k", "g1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != "v7" {
		t.Errorf("results = %+v", resp.Results)
	}
}

func TestStatsFields(t *testing.T) {
	db := openTest(t, Options{Dim: 4, Device: DeviceSmall})
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheBudget != DeviceSmall.CacheBytes {
		t.Errorf("CacheBudget = %d", st.CacheBudget)
	}
	if st.FileBytes == 0 {
		t.Error("FileBytes = 0")
	}
	if st.NumVectors != 1 || st.DeltaCount != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDropCachesThenSearch(t *testing.T) {
	db := openTest(t, Options{Dim: 8, TargetPartitionSize: 10, Seed: 6})
	vecs := randomVecs(11, 200, 8)
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	db.DropCaches() // cold start
	resp, err := db.Search(SearchRequest{Vector: vecs[5], K: 1, NProbe: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "v5" {
		t.Errorf("cold search = %+v", resp.Results)
	}
}

func TestSQ8OptionEndToEnd(t *testing.T) {
	const dim, n = 16, 400
	db := openTest(t, Options{Dim: dim, TargetPartitionSize: 40, Seed: 9, Quantization: QuantSQ8})
	vecs := randomVecs(42, n, dim)
	items := make([]Item, n)
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	resp, err := db.Search(SearchRequest{Vector: vecs[7], K: 5, NProbe: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != "v7" {
		t.Fatalf("self-query results = %+v", resp.Results)
	}
	if resp.Plan.Reranked == 0 {
		t.Error("quantized search reported no reranked candidates")
	}
	// One byte per dimension scanned (plus the float32 delta, empty here).
	if resp.Plan.BytesScanned >= resp.Plan.VectorsScanned*int64(dim)*4 {
		t.Errorf("BytesScanned %d not reduced for %d scanned vectors", resp.Plan.BytesScanned, resp.Plan.VectorsScanned)
	}

	// Get must return the exact float32 vector despite quantized storage.
	item, err := db.Get("v7")
	if err != nil {
		t.Fatal(err)
	}
	for d := range item.Vector {
		if item.Vector[d] != vecs[7][d] {
			t.Fatalf("Get dim %d = %v, want exact %v", d, item.Vector[d], vecs[7][d])
		}
	}

	// Per-query rerank override, also through a pinned snapshot.
	if _, err := db.Search(SearchRequest{Vector: vecs[3], K: 5, RerankFactor: 10}); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sresp, err := snap.Search(SearchRequest{Vector: vecs[3], K: 5, RerankFactor: 10})
	snap.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sresp.Plan.Reranked != 50 {
		t.Errorf("snapshot Reranked = %d, want 50 (K=5 * RerankFactor=10)", sresp.Plan.Reranked)
	}
	bresp, err := db.BatchSearch(BatchSearchRequest{Vectors: vecs[:8], K: 5, NProbe: 6})
	if err != nil {
		t.Fatal(err)
	}
	for qi, rs := range bresp.Results {
		if len(rs) == 0 || rs[0].ID != fmt.Sprintf("v%d", qi) {
			t.Fatalf("batch query %d results = %+v", qi, rs)
		}
	}
}

func TestSQ8ReopenKeepsCodebook(t *testing.T) {
	skipIfEphemeralBackend(t)
	const dim = 8
	dir := t.TempDir()
	path := filepath.Join(dir, "q.mnn")
	db, err := Open(path, Options{Dim: dim, TargetPartitionSize: 20, Seed: 4, Quantization: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	vecs := randomVecs(77, 100, dim)
	for i, v := range vecs {
		if err := db.Upsert(Item{ID: fmt.Sprintf("v%d", i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Quantization is restored from disk; RerankFactor is a search-time
	// default and must be honored on reopen.
	db2, err := Open(path, Options{RerankFactor: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	resp, err := db2.Search(SearchRequest{Vector: vecs[13], K: 1, NProbe: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != "v13" {
		t.Fatalf("post-reopen results = %+v", resp.Results)
	}
	if resp.Plan.Reranked != 8 {
		t.Errorf("Reranked = %d, want 8 (reopen RerankFactor override)", resp.Plan.Reranked)
	}
}

// TestBatchSearchMatchesSearch: BatchSearch with one query is Search's
// one-query case on the same scan engine, so it returns exactly Search's
// ids and bit-identical distances, on every encoding, single and sharded,
// live and through a Snapshot. In a multi-query batch, float32 partitions
// that several queries probe are scored with the norm-expansion kernel, so
// there the ids must agree and the distances only within 1e-5 relative.
func TestBatchSearchMatchesSearch(t *testing.T) {
	const dim, n, nq, k = 16, 600, 20, 10
	vecs := randomVecs(21, n, dim)
	queries := randomVecs(22, nq, dim)
	items := make([]Item, n)
	for i, v := range vecs {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	for _, q := range []Quantization{QuantNone, QuantSQ8, QuantSQ4} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v-shards%d", q, shards), func(t *testing.T) {
				st := openStoreTest(t, shards, Options{Dim: dim, TargetPartitionSize: 20, Seed: 6, Quantization: q})
				if err := st.UpsertBatch(items[:500]); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Rebuild(); err != nil {
					t.Fatal(err)
				}
				if err := st.UpsertBatch(items[500:]); err != nil { // left in the delta
					t.Fatal(err)
				}
				snap, err := st.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				defer snap.Close()
				multi, err := st.BatchSearch(BatchSearchRequest{Vectors: queries, K: k, NProbe: 4, NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				for qi, qv := range queries {
					single, err := st.Search(SearchRequest{Vector: qv, K: k, NProbe: 4, NoCache: true})
					if err != nil {
						t.Fatal(err)
					}
					for _, b := range []interface {
						BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
					}{st, snap} {
						one, err := b.BatchSearch(BatchSearchRequest{Vectors: [][]float32{qv}, K: k, NProbe: 4, NoCache: true})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(one.Results[0], single.Results) {
							t.Fatalf("query %d: BatchSearch([q]) = %v, Search = %v", qi, one.Results[0], single.Results)
						}
					}
					got := multi.Results[qi]
					if len(got) != len(single.Results) {
						t.Fatalf("query %d: batch %d results, Search %d", qi, len(got), len(single.Results))
					}
					for i, r := range single.Results {
						if got[i].ID != r.ID || math.Abs(float64(got[i].Distance-r.Distance)) > 1e-5*math.Abs(float64(r.Distance)) {
							t.Fatalf("query %d rank %d: batch %+v, Search %+v", qi, i, got[i], r)
						}
					}
				}
			})
		}
	}
}
