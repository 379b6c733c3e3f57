package micronn

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"micronn/internal/ivf"
)

func openErrTestDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "err.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestTypedErrNotFound(t *testing.T) {
	db := openErrTestDB(t)
	if _, err := db.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing): %v, want ErrNotFound", err)
	}
	if err := db.Delete("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(missing): %v, want ErrNotFound", err)
	}
}

func TestTypedErrBadRequest(t *testing.T) {
	db := openErrTestDB(t)
	q := []float32{1, 0, 0, 0}
	for _, req := range []SearchRequest{
		{Vector: q, K: -1},
		{Vector: q, K: 5, NProbe: -2},
		{Vector: q, K: 5, RerankFactor: -1},
	} {
		if _, err := db.Search(req); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("Search(%+v): %v, want ErrBadRequest", req, err)
		}
	}
	if _, err := db.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: -3}); !errors.Is(err, ErrBadRequest) {
		t.Fatal("BatchSearch with negative K did not return ErrBadRequest")
	}
	// Create-time option validation uses the same sentinel.
	if _, err := Open(filepath.Join(t.TempDir(), "bad.mnn"), Options{Dim: 4, Quantization: Quantization(9)}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Open with unknown quantization: %v, want ErrBadRequest", err)
	}
	if _, err := Open(filepath.Join(t.TempDir(), "bad2.mnn"), Options{Dim: 4, ClipPercentile: 0.5}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("Open with ClipPercentile 0.5: %v, want ErrBadRequest", err)
	}
}

func TestTypedErrDimMismatch(t *testing.T) {
	db := openErrTestDB(t)
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Upsert wrong dim: %v, want ErrDimMismatch", err)
	}
	if _, err := db.Search(SearchRequest{Vector: []float32{1, 2, 3}, K: 5}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Search wrong dim: %v, want ErrDimMismatch", err)
	}
	// The batch path names the offending query index.
	_, err := db.BatchSearch(BatchSearchRequest{
		Vectors: [][]float32{{1, 0, 0, 0}, {1, 2}}, K: 5,
	})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("BatchSearch wrong dim: %v, want ErrDimMismatch", err)
	}
	if got := err.Error(); !containsStr(got, "query 1") {
		t.Fatalf("batch dim error %q does not name the offending query", got)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestTypedErrClosedDB(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "closed.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double Close: %v, want nil", err)
	}
	q := []float32{1, 0, 0, 0}
	checks := []struct {
		name string
		err  error
	}{
		{"Search", func() error { _, err := db.Search(SearchRequest{Vector: q, K: 1}); return err }()},
		{"BatchSearch", func() error {
			_, err := db.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: 1})
			return err
		}()},
		{"Upsert", db.Upsert(Item{ID: "b", Vector: q})},
		{"Get", func() error { _, err := db.Get("a"); return err }()},
		{"Delete", db.Delete("a")},
		{"Stats", func() error { _, err := db.Stats(); return err }()},
		{"Rebuild", func() error { _, err := db.Rebuild(); return err }()},
		{"Maintain", func() error { _, err := db.Maintain(); return err }()},
		{"Snapshot", func() error { _, err := db.Snapshot(); return err }()},
	}
	for _, c := range checks {
		if !errors.Is(c.err, ErrClosed) {
			t.Fatalf("%s after Close: %v, want ErrClosed", c.name, c.err)
		}
	}
}

func TestTypedErrClosedSharded(t *testing.T) {
	sdb, err := OpenSharded(filepath.Join(t.TempDir(), "closed.d"), Options{Dim: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatalf("double Close: %v, want nil", err)
	}
	q := []float32{1, 0, 0, 0}
	if _, err := sdb.Search(SearchRequest{Vector: q, K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Search after Close: %v, want ErrClosed", err)
	}
	if _, err := sdb.BatchSearch(BatchSearchRequest{Vectors: [][]float32{q}, K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded BatchSearch after Close: %v, want ErrClosed", err)
	}
	if _, err := sdb.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := sdb.Upsert(Item{ID: "a", Vector: q}); !errors.Is(err, ErrClosed) {
		t.Fatalf("sharded Upsert after Close: %v, want ErrClosed", err)
	}
}

func TestShardedTypedErrorsMatchSingle(t *testing.T) {
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "typed.d"), Options{Dim: 4, Shards: 3})
	if _, err := sdb.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("sharded Get(missing): %v, want ErrNotFound", err)
	}
	if _, err := sdb.Search(SearchRequest{Vector: []float32{1, 2}, K: 1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("sharded Search wrong dim: %v, want ErrDimMismatch", err)
	}
	if _, err := sdb.Search(SearchRequest{Vector: []float32{1, 0, 0, 0}, K: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("sharded Search negative K: %v, want ErrBadRequest", err)
	}
}

func TestParseQuantization(t *testing.T) {
	for name, want := range map[string]Quantization{
		"": QuantNone, "none": QuantNone, "sq8": QuantSQ8, "sq4": QuantSQ4,
	} {
		got, err := ParseQuantization(name)
		if err != nil || got != want {
			t.Fatalf("ParseQuantization(%q) = %v, %v; want %v", name, got, err, want)
		}
		if name != "" && got.String() != name {
			t.Fatalf("String round trip: %q -> %q", name, got.String())
		}
	}
	if _, err := ParseQuantization("pq"); err == nil {
		t.Fatal("ParseQuantization accepted unknown scheme")
	}
}

func TestEnvQuantOverride(t *testing.T) {
	t.Setenv(EnvQuantVar, "sq4")
	db, err := Open(filepath.Join(t.TempDir(), "env.mnn"), Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Quantization != QuantSQ4 {
		t.Fatalf("env override quantization: %v, want sq4", st.Quantization)
	}
	// Explicit options always win over the environment.
	db2, err := Open(filepath.Join(t.TempDir(), "env2.mnn"), Options{Dim: 4, Quantization: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if st, err = db2.Stats(); err != nil || st.Quantization != QuantSQ8 {
		t.Fatalf("explicit quantization: %v, %v; want sq8", st.Quantization, err)
	}
	// A bogus value fails loudly rather than silently running unquantized.
	t.Setenv(EnvQuantVar, "sq2")
	if _, err := Open(filepath.Join(t.TempDir(), "env3.mnn"), Options{Dim: 4}); err == nil {
		t.Fatal("bogus MICRONN_TEST_QUANT accepted")
	}
}

func TestNormalizeSearchDefaults(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "norm.mnn"), Options{Dim: 4, Quantization: QuantSQ8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 30; i++ {
		if err := db.Upsert(Item{ID: fmt.Sprintf("n%02d", i), Vector: []float32{float32(i), 1, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	// K defaults to 10; zero NProbe picks the config default; requests are
	// normalized once through the shared path, so a zero-valued request
	// succeeds on every entry point.
	resp, err := db.Search(SearchRequest{Vector: []float32{3, 1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 10 {
		t.Fatalf("defaulted K: got %d results, want 10", len(resp.Results))
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := snap.Search(SearchRequest{Vector: []float32{3, 1, 0, 0}}); err != nil {
		t.Fatalf("snapshot zero-valued search: %v", err)
	}
	if _, err := snap.Search(SearchRequest{Vector: []float32{3, 1}, K: 2}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("snapshot wrong dim: %v, want ErrDimMismatch", err)
	}
}

// openStoreTest opens a single store for shards == 1 and a ShardedDB
// otherwise, so one battery runs against both.
func openStoreTest(t *testing.T, shards int, opts Options) Store {
	t.Helper()
	if shards == 1 {
		return openTest(t, opts)
	}
	opts.Shards = shards
	return openShardedTest(t, filepath.Join(t.TempDir(), "store.d"), opts)
}

// TestNonFiniteRejected: a NaN or ±Inf component in a written vector or a
// query is ErrBadRequest. Accepted, one such vector pulls every rebuilt
// vector into a single partition, and a NaN query returns NaN distances.
// A rejected batch writes nothing: the good item riding with the bad one
// is routed to the same shard, whose sub-batch is the atomic unit.
func TestNonFiniteRejected(t *testing.T) {
	const dim = 4
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			st := openStoreTest(t, shards, Options{Dim: dim, TargetPartitionSize: 10, Seed: 1,
				Attributes: []AttributeDef{{Name: "txt", Type: AttrText, FullText: true}}})
			vecs := randomVecs(3, 60, dim)
			items := make([]Item, len(vecs))
			for i, v := range vecs {
				items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v, Attributes: map[string]any{"txt": "word"}}
			}
			if err := st.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Rebuild(); err != nil {
				t.Fatal(err)
			}
			// good shares bad's shard, so the batch is one sub-batch.
			good := "good0"
			if sdb, ok := st.(*ShardedDB); ok {
				for i := 1; sdb.shardOf(good) != sdb.shardOf("bad"); i++ {
					good = fmt.Sprintf("good%d", i)
				}
			}
			ok := []float32{0.5, 0.5, 0.5, 0.5}
			cases := []struct {
				name string
				run  func() error
			}{
				{"Upsert NaN", func() error { return st.Upsert(Item{ID: "bad", Vector: []float32{1, nan, 0, 0}}) }},
				{"Upsert +Inf", func() error { return st.Upsert(Item{ID: "bad", Vector: []float32{inf, 0, 0, 0}}) }},
				{"Upsert -Inf", func() error { return st.Upsert(Item{ID: "bad", Vector: []float32{0, 0, 0, -inf}}) }},
				{"UpsertBatch", func() error {
					return st.UpsertBatch([]Item{{ID: good, Vector: ok}, {ID: "bad", Vector: []float32{0, nan, 0, 0}}})
				}},
				{"Search", func() error { _, err := st.Search(SearchRequest{Vector: []float32{nan, 0, 0, 0}, K: 3}); return err }},
				{"Search exact", func() error {
					_, err := st.Search(SearchRequest{Vector: []float32{0, inf, 0, 0}, K: 3, Exact: true})
					return err
				}},
				{"BatchSearch", func() error {
					_, err := st.BatchSearch(BatchSearchRequest{Vectors: [][]float32{ok, {0, 0, -inf, 0}}, K: 3})
					return err
				}},
				{"HybridSearch", func() error {
					_, err := st.HybridSearch(HybridRequest{Vector: []float32{0, 0, nan, 0}, K: 3, Text: "word"})
					return err
				}},
				{"HybridSearch vector only", func() error {
					_, err := st.HybridSearch(HybridRequest{Vector: []float32{0, 0, 0, nan}, K: 3})
					return err
				}},
			}
			for _, c := range cases {
				if err := c.run(); !errors.Is(err, ErrBadRequest) {
					t.Fatalf("%s: %v, want ErrBadRequest", c.name, err)
				}
			}
			for _, id := range []string{good, "bad"} {
				if _, err := st.Get(id); !errors.Is(err, ErrNotFound) {
					t.Fatalf("Get(%s) after rejected writes: %v, want ErrNotFound", id, err)
				}
			}
			stats, err := st.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if stats.NumVectors != int64(len(vecs)) {
				t.Fatalf("NumVectors = %d after rejected writes, want %d", stats.NumVectors, len(vecs))
			}
		})
	}
}

// TestHugeKRejected: a K, or on a quantized store a K·RerankFactor, beyond
// int32 is ErrBadRequest on every query kind, checked without the product
// overflowing; a K just inside the bound returns every vector instead of
// reserving memory for K results.
func TestHugeKRejected(t *testing.T) {
	const dim, n = 4, 40
	for _, q := range []Quantization{QuantNone, QuantSQ8} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v-shards%d", q, shards), func(t *testing.T) {
				st := openStoreTest(t, shards, Options{Dim: dim, TargetPartitionSize: 10, Seed: 2, Quantization: q,
					Attributes: []AttributeDef{{Name: "txt", Type: AttrText, FullText: true}}})
				vecs := randomVecs(4, n, dim)
				items := make([]Item, n)
				for i, v := range vecs {
					items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v, Attributes: map[string]any{"txt": "word"}}
				}
				if err := st.UpsertBatch(items); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Rebuild(); err != nil {
					t.Fatal(err)
				}
				stats, err := st.Stats()
				if err != nil {
					t.Fatal(err)
				}
				// MICRONN_TEST_QUANT may quantize the QuantNone store.
				quantized := stats.Quantization != QuantNone
				qv := vecs[0]
				// K values past MaxInt32; a 32-bit int holds none of them.
				for _, k64 := range []int64{1 << 40, 1 << 62, math.MaxInt64} {
					if k64 > math.MaxInt {
						continue
					}
					k := int(k64)
					if _, err := st.Search(SearchRequest{Vector: qv, K: k}); !errors.Is(err, ErrBadRequest) {
						t.Fatalf("Search K=%d: %v, want ErrBadRequest", k, err)
					}
					if _, err := st.BatchSearch(BatchSearchRequest{Vectors: [][]float32{qv}, K: k}); !errors.Is(err, ErrBadRequest) {
						t.Fatalf("BatchSearch K=%d: %v, want ErrBadRequest", k, err)
					}
					if _, err := st.HybridSearch(HybridRequest{Vector: qv, K: k, Text: "word"}); !errors.Is(err, ErrBadRequest) {
						t.Fatalf("HybridSearch K=%d: %v, want ErrBadRequest", k, err)
					}
				}
				// The product overflows int32 even though K alone fits.
				if quantized {
					req := SearchRequest{Vector: qv, K: math.MaxInt32/4 + 1, RerankFactor: 4}
					if _, err := st.Search(req); !errors.Is(err, ErrBadRequest) {
						t.Fatalf("Search K·RerankFactor > MaxInt32: %v, want ErrBadRequest", err)
					}
				}
				big := math.MaxInt32
				if quantized {
					big = math.MaxInt32 / 4
				}
				resp, err := st.Search(SearchRequest{Vector: qv, K: big, RerankFactor: 4})
				if err != nil || len(resp.Results) != n {
					t.Fatalf("Search K=%d: %v, %v; want %d results", big, resp, err, n)
				}
				exact, err := st.Search(SearchRequest{Vector: qv, K: big, Exact: true})
				if err != nil || len(exact.Results) != n {
					t.Fatalf("exact Search K=%d: %v, %v; want %d results", big, exact, err, n)
				}
				bresp, err := st.BatchSearch(BatchSearchRequest{Vectors: [][]float32{qv, vecs[1]}, K: big, RerankFactor: 4})
				if err != nil || len(bresp.Results[1]) != n {
					t.Fatalf("BatchSearch K=%d: %v, %v; want %d results each", big, bresp, err, n)
				}
				hresp, err := st.HybridSearch(HybridRequest{Vector: qv, K: big, RerankFactor: 4, Text: "word"})
				if err != nil || len(hresp.Results) != n {
					t.Fatalf("HybridSearch K=%d: %v, %v; want %d results", big, hresp, err, n)
				}
			})
		}
	}
}

// TestUnknownFilterColumnFails: a filter on an undeclared attribute, and a
// MATCH on a text attribute without FullText, fail with ivf.ErrNoFilter
// under every plan whatever the store holds: nothing, only a delta, a
// built index, or a built and analyzed one, on a single store and on two
// shards. A MATCH without tokens constrains nothing: every plan returns
// exactly the unfiltered response.
func TestUnknownFilterColumnFails(t *testing.T) {
	const dim = 4
	plans := []struct {
		name  string
		plan  PlanType
		exact bool
	}{{"auto", PlanAuto, false}, {"pre", PlanPreFilter, false}, {"post", PlanPostFilter, false}, {"exact", PlanAuto, true}}
	filters := []struct {
		name    string
		filter  Filter
		wantErr error // nil: the unfiltered response
	}{
		{"unknown column", Eq("nope", 1), ivf.ErrNoFilter},
		{"MATCH without FullText", Match("title", "word"), ivf.ErrNoFilter},
		{"MATCH without tokens", Match("tags", "!!"), nil},
		{"empty MATCH", Match("tags", ""), nil},
	}
	for _, shards := range []int{1, 2} {
		st := openStoreTest(t, shards, Options{Dim: dim, TargetPartitionSize: 10, Seed: 1,
			Attributes: []AttributeDef{
				{Name: "n", Type: AttrInt, Indexed: true},
				{Name: "title", Type: AttrText},
				{Name: "tags", Type: AttrText, FullText: true},
			}})
		vecs := randomVecs(5, 50, dim)
		items := make([]Item, len(vecs))
		for i, v := range vecs {
			items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v, Attributes: map[string]any{
				"n": int64(i), "title": "word", "tags": fmt.Sprintf("t%d common", i%5)}}
		}
		stages := []struct {
			name string
			run  func() error
		}{
			{"empty", func() error { return nil }},
			{"delta", func() error { return st.UpsertBatch(items) }},
			{"rebuilt", func() error { _, err := st.Rebuild(); return err }},
			{"rebuilt and analyzed", st.Analyze},
		}
		for _, stage := range stages {
			if err := stage.run(); err != nil {
				t.Fatal(err)
			}
			for _, p := range plans {
				req := SearchRequest{Vector: vecs[0], K: 10, Plan: p.plan, Exact: p.exact, NoCache: true}
				unfiltered, err := st.Search(req)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range filters {
					req.Filters = []Filter{f.filter}
					resp, err := st.Search(req)
					where := fmt.Sprintf("%d shards, %s store, %s plan, %s", shards, stage.name, p.name, f.name)
					switch {
					case f.wantErr != nil:
						if !errors.Is(err, f.wantErr) {
							t.Errorf("%s: %v, want %v", where, err, f.wantErr)
						}
					case err != nil:
						t.Errorf("%s: %v", where, err)
					case !reflect.DeepEqual(resp.Results, unfiltered.Results):
						t.Errorf("%s: %v, want the unfiltered %v", where, resp.Results, unfiltered.Results)
					}
				}
			}
		}
	}
}
