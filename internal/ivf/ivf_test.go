package ivf

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/storage/storagetest"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// testEnv bundles a store, reldb and index for tests.
type testEnv struct {
	store *storage.Store
	db    *reldb.DB
	ix    *Index
	// nextAsset numbers the ids handed out by upsertN (maintain_test.go).
	nextAsset int
}

func newEnv(t testing.TB, cfg Config) *testEnv {
	t.Helper()
	s, err := storage.Open(filepath.Join(t.TempDir(), "t.db"), storage.Options{
		Sync: storage.SyncOff, CheckpointFrames: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	var ix *Index
	err = s.Update(func(wt *storage.WriteTxn) error {
		ix, err = Create(db, wt, cfg)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{store: s, db: db, ix: ix}
}

// clusteredData builds a deterministic Gaussian-mixture dataset.
func clusteredData(seed int64, n, dim, centers int) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	ctr := vec.NewMatrix(centers, dim)
	for c := 0; c < centers; c++ {
		for j := 0; j < dim; j++ {
			ctr.Row(c)[j] = float32(rng.NormFloat64() * 10)
		}
	}
	data := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		c := rng.Intn(centers)
		for j := 0; j < dim; j++ {
			data.Row(i)[j] = ctr.Row(c)[j] + float32(rng.NormFloat64())
		}
	}
	return data
}

func (e *testEnv) upsertAll(t testing.TB, data *vec.Matrix, attrs func(i int) map[string]reldb.Value) {
	t.Helper()
	err := e.store.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < data.Rows; i++ {
			var a map[string]reldb.Value
			if attrs != nil {
				a = attrs(i)
			}
			if err := e.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), a); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func (e *testEnv) rebuild(t testing.TB) *MaintenanceStats {
	t.Helper()
	var ms *MaintenanceStats
	err := e.store.Update(func(wt *storage.WriteTxn) error {
		var err error
		ms, err = e.ix.Rebuild(wt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// bruteForce computes the exact top-k over data for query q.
func bruteForce(metric vec.Metric, data *vec.Matrix, q []float32, k int) []topk.Result {
	h := topk.New(k)
	for i := 0; i < data.Rows; i++ {
		h.Push(topk.Result{
			AssetID:  fmt.Sprintf("asset-%d", i),
			VectorID: int64(i),
			Distance: vec.Distance(metric, q, data.Row(i)),
		})
	}
	return h.Results()
}

func recallOf(got, want []topk.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	set := make(map[string]struct{}, len(want))
	for _, r := range want {
		set[r.AssetID] = struct{}{}
	}
	hit := 0
	for _, r := range got {
		if _, ok := set[r.AssetID]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestUpsertAndDeltaSearch(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 50, Seed: 1})
	data := clusteredData(1, 200, 8, 5)
	env.upsertAll(t, data, nil)

	// Without a rebuild everything is in the delta, which is always
	// scanned: results must equal exact brute force.
	err := env.store.View(func(rt *storage.ReadTxn) error {
		st, err := env.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.NumVectors != 200 || st.DeltaCount != 200 || st.NumPartitions != 0 {
			t.Errorf("stats = %+v", st)
		}
		q := data.Row(17)
		got, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 4})
		if err != nil {
			return err
		}
		want := bruteForce(vec.L2, data, q, 10)
		if r := recallOf(got, want); r != 1 {
			t.Errorf("delta-only recall = %v, want 1", r)
		}
		if got[0].AssetID != "asset-17" || got[0].Distance != 0 {
			t.Errorf("top hit = %+v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpsertReplacesAsset(t *testing.T) {
	env := newEnv(t, Config{Dim: 4, Seed: 1})
	v1 := []float32{1, 0, 0, 0}
	v2 := []float32{0, 1, 0, 0}
	err := env.store.Update(func(wt *storage.WriteTxn) error {
		if err := env.ix.Upsert(wt, "a", v1, nil); err != nil {
			return err
		}
		return env.ix.Upsert(wt, "a", v2, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = env.store.View(func(rt *storage.ReadTxn) error {
		st, err := env.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.NumVectors != 1 {
			t.Errorf("NumVectors = %d, want 1", st.NumVectors)
		}
		v, _, err := env.ix.GetVector(rt, "a")
		if err != nil {
			return err
		}
		if v[1] != 1 || v[0] != 0 {
			t.Errorf("vector = %v, want v2", v)
		}
		got, _, err := env.ix.Search(rt, v2, SearchOptions{K: 5})
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0].AssetID != "a" {
			t.Errorf("results = %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	env := newEnv(t, Config{Dim: 4, Seed: 1})
	err := env.store.Update(func(wt *storage.WriteTxn) error {
		if err := env.ix.Upsert(wt, "a", []float32{1, 2, 3, 4}, nil); err != nil {
			return err
		}
		if err := env.ix.Delete(wt, "a"); err != nil {
			return err
		}
		if err := env.ix.Delete(wt, "a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("second delete = %v, want ErrNotFound", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = env.store.View(func(rt *storage.ReadTxn) error {
		st, err := env.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.NumVectors != 0 || st.DeltaCount != 0 {
			t.Errorf("stats after delete = %+v", st)
		}
		if _, _, err := env.ix.GetVector(rt, "a"); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetVector = %v", err)
		}
		got, _, err := env.ix.Search(rt, []float32{1, 2, 3, 4}, SearchOptions{K: 5})
		if err != nil {
			return err
		}
		if len(got) != 0 {
			t.Errorf("search after delete = %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRebuildRecall(t *testing.T) {
	env := newEnv(t, Config{Dim: 16, TargetPartitionSize: 50, Seed: 2})
	data := clusteredData(3, 2000, 16, 20)
	env.upsertAll(t, data, nil)
	ms := env.rebuild(t)
	if ms.Partitions != 40 { // 2000/50
		t.Errorf("partitions = %d, want 40", ms.Partitions)
	}
	if ms.VectorsAssigned != 2000 {
		t.Errorf("assigned = %d", ms.VectorsAssigned)
	}

	rng := rand.New(rand.NewSource(9))
	err := env.store.View(func(rt *storage.ReadTxn) error {
		st, err := env.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.DeltaCount != 0 {
			t.Errorf("delta after rebuild = %d", st.DeltaCount)
		}
		var totalRecall float64
		const queries = 20
		for qi := 0; qi < queries; qi++ {
			q := data.Row(rng.Intn(data.Rows))
			got, info, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 8})
			if err != nil {
				return err
			}
			if info.PartitionsScanned != 9 { // 8 + delta
				t.Errorf("partitions scanned = %d", info.PartitionsScanned)
			}
			totalRecall += recallOf(got, bruteForce(vec.L2, data, q, 10))
		}
		avg := totalRecall / queries
		if avg < 0.9 {
			t.Errorf("avg recall@10 with nprobe=8 = %v, want >= 0.9", avg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExactSearchMatchesBruteForce(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 4})
	data := clusteredData(5, 300, 8, 6)
	env.upsertAll(t, data, nil)
	env.rebuild(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		for _, qi := range []int{0, 50, 299} {
			q := data.Row(qi)
			got, _, err := env.ix.Search(rt, q, SearchOptions{K: 15, Exact: true})
			if err != nil {
				return err
			}
			want := bruteForce(vec.L2, data, q, 15)
			if r := recallOf(got, want); r != 1 {
				t.Errorf("exact recall = %v, want 1", r)
			}
			for i := range got {
				if got[i].Distance != want[i].Distance {
					t.Errorf("distance[%d] = %v, want %v", i, got[i].Distance, want[i].Distance)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchAfterUpdatesIncludesDelta(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 20, Seed: 6})
	data := clusteredData(7, 400, 8, 8)
	env.upsertAll(t, data, nil)
	env.rebuild(t)

	// Insert a brand-new vector far from everything; it lands in the
	// delta and must be findable immediately.
	outlier := make([]float32, 8)
	for j := range outlier {
		outlier[j] = 100
	}
	err := env.store.Update(func(wt *storage.WriteTxn) error {
		return env.ix.Upsert(wt, "outlier", outlier, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = env.store.View(func(rt *storage.ReadTxn) error {
		got, _, err := env.ix.Search(rt, outlier, SearchOptions{K: 1, NProbe: 2})
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0].AssetID != "outlier" {
			t.Errorf("results = %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushDelta(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 25, Seed: 8})
	data := clusteredData(11, 500, 8, 10)
	first, second := 400, 100
	firstData := &vec.Matrix{Data: data.Data[:first*8], Rows: first, Dim: 8}
	env.upsertAll(t, firstData, nil)
	env.rebuild(t)

	err := env.store.Update(func(wt *storage.WriteTxn) error {
		for i := first; i < first+second; i++ {
			if err := env.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var ms *MaintenanceStats
	err = env.store.Update(func(wt *storage.WriteTxn) error {
		ms, err = env.ix.FlushDelta(wt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if ms.VectorsAssigned != int64(second) {
		t.Errorf("flushed = %d, want %d", ms.VectorsAssigned, second)
	}
	// Incremental flush I/O is proportional to the delta, not the index.
	if ms.RowChanges > int64(second)*4+int64(ms.Partitions) {
		t.Errorf("row changes = %d, too high for incremental flush", ms.RowChanges)
	}

	err = env.store.View(func(rt *storage.ReadTxn) error {
		st, err := env.ix.Stats(rt)
		if err != nil {
			return err
		}
		if st.DeltaCount != 0 {
			t.Errorf("delta after flush = %d", st.DeltaCount)
		}
		if st.NumVectors != int64(first+second) {
			t.Errorf("NumVectors = %d", st.NumVectors)
		}
		// All flushed vectors remain findable.
		var recall float64
		for i := first; i < first+second; i += 10 {
			got, _, err := env.ix.Search(rt, data.Row(i), SearchOptions{K: 5, NProbe: 6})
			if err != nil {
				return err
			}
			found := false
			for _, r := range got {
				if r.AssetID == fmt.Sprintf("asset-%d", i) {
					found = true
				}
			}
			if found {
				recall++
			}
		}
		if recall < 8 { // 10 probes
			t.Errorf("self-recall after flush = %v/10", recall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushWithoutBuildErrors(t *testing.T) {
	env := newEnv(t, Config{Dim: 4, Seed: 1})
	err := env.store.Update(func(wt *storage.WriteTxn) error {
		if err := env.ix.Upsert(wt, "a", []float32{1, 2, 3, 4}, nil); err != nil {
			return err
		}
		_, err := env.ix.FlushDelta(wt)
		if !errors.Is(err, ErrNotBuilt) {
			t.Errorf("FlushDelta = %v, want ErrNotBuilt", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBatchSearchMatchesSingle(t *testing.T) {
	env := newEnv(t, Config{Dim: 8, TargetPartitionSize: 25, Seed: 10, Workers: 2})
	data := clusteredData(17, 800, 8, 10)
	env.upsertAll(t, data, nil)
	env.rebuild(t)

	queries := vec.NewMatrix(16, 8)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < queries.Rows; i++ {
		queries.SetRow(i, data.Row(rng.Intn(data.Rows)))
	}

	err := env.store.View(func(rt *storage.ReadTxn) error {
		batch, info, err := env.ix.BatchSearch(rt, queries, BatchOptions{K: 10, NProbe: 6})
		if err != nil {
			return err
		}
		if info.PartitionScans > info.QueryPartitionPairs {
			t.Errorf("MQO scanned more partitions (%d) than query-at-a-time (%d)",
				info.PartitionScans, info.QueryPartitionPairs)
		}
		for qi := 0; qi < queries.Rows; qi++ {
			single, _, err := env.ix.Search(rt, queries.Row(qi), SearchOptions{K: 10, NProbe: 6})
			if err != nil {
				return err
			}
			if len(batch[qi]) != len(single) {
				t.Fatalf("query %d: batch %d results, single %d", qi, len(batch[qi]), len(single))
			}
			for i := range single {
				if batch[qi][i].VectorID != single[i].VectorID {
					t.Errorf("query %d result %d: batch vid %d, single vid %d",
						qi, i, batch[qi][i].VectorID, single[i].VectorID)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSearchDuringWrites(t *testing.T) {
	env := newEnv(t, Config{Dim: 4, TargetPartitionSize: 10, Seed: 12})
	err := env.store.Update(func(wt *storage.WriteTxn) error {
		return env.ix.Upsert(wt, "stable", []float32{1, 1, 1, 1}, nil)
	})
	if err != nil {
		t.Fatal(err)
	}

	rt, err := env.store.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Concurrent write: a new vector and a rebuild.
	err = env.store.Update(func(wt *storage.WriteTxn) error {
		if err := env.ix.Upsert(wt, "later", []float32{2, 2, 2, 2}, nil); err != nil {
			return err
		}
		_, err := env.ix.Rebuild(wt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// The old reader must see exactly one vector.
	got, _, err := env.ix.Search(rt, []float32{1, 1, 1, 1}, SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].AssetID != "stable" {
		t.Errorf("snapshot search = %+v, want only 'stable'", got)
	}

	// A fresh reader sees both.
	err = env.store.View(func(rt2 *storage.ReadTxn) error {
		got, _, err := env.ix.Search(rt2, []float32{1, 1, 1, 1}, SearchOptions{K: 10})
		if err != nil {
			return err
		}
		if len(got) != 2 {
			t.Errorf("fresh search = %+v, want 2 results", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	storagetest.SkipIfEphemeral(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	opts := storage.Options{Sync: storage.SyncOff, CheckpointFrames: -1}
	s, err := storage.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	var ix *Index
	err = s.Update(func(wt *storage.WriteTxn) error {
		ix, err = Create(db, wt, Config{Dim: 8, TargetPartitionSize: 20, Seed: 3})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	data := clusteredData(19, 300, 8, 5)
	err = s.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < data.Rows; i++ {
			if err := ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), nil); err != nil {
				return err
			}
		}
		_, err := ix.Rebuild(wt)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := storage.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	db2, err := reldb.Open(s2)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(db2)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Config().Dim != 8 || ix2.Config().TargetPartitionSize != 20 {
		t.Errorf("config = %+v", ix2.Config())
	}
	err = s2.View(func(rt *storage.ReadTxn) error {
		st, err := ix2.Stats(rt)
		if err != nil {
			return err
		}
		if st.NumVectors != 300 {
			t.Errorf("NumVectors = %d", st.NumVectors)
		}
		q := data.Row(42)
		got, _, err := ix2.Search(rt, q, SearchOptions{K: 5, NProbe: 5})
		if err != nil {
			return err
		}
		found := false
		for _, r := range got {
			if r.AssetID == "asset-42" {
				found = true
			}
		}
		if !found {
			t.Errorf("asset-42 missing after reopen: %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSearchValidation(t *testing.T) {
	env := newEnv(t, Config{Dim: 4, Seed: 1})
	err := env.store.View(func(rt *storage.ReadTxn) error {
		if _, _, err := env.ix.Search(rt, []float32{1, 2}, SearchOptions{K: 5}); !errors.Is(err, ErrDimMismatch) {
			t.Errorf("dim mismatch = %v", err)
		}
		if _, _, err := env.ix.Search(rt, []float32{1, 2, 3, 4}, SearchOptions{K: 0}); err == nil {
			t.Error("K=0 accepted")
		}
		got, _, err := env.ix.Search(rt, []float32{1, 2, 3, 4}, SearchOptions{K: 5})
		if err != nil {
			return err
		}
		if len(got) != 0 {
			t.Errorf("empty index results = %+v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Undeclared attribute rejected on upsert.
	err = env.store.Update(func(wt *storage.WriteTxn) error {
		err := env.ix.Upsert(wt, "a", []float32{1, 2, 3, 4}, map[string]reldb.Value{"bogus": reldb.I(1)})
		if err == nil {
			t.Error("undeclared attribute accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- hybrid search tests ---

func hybridEnv(t *testing.T) (*testEnv, *vec.Matrix) {
	t.Helper()
	env := newEnv(t, Config{
		Dim: 8, TargetPartitionSize: 25, Seed: 21,
		Attributes: []AttributeDef{
			{Name: "location", Type: reldb.TypeText, Indexed: true},
			{Name: "ts", Type: reldb.TypeInt64, Indexed: true},
			{Name: "tags", Type: reldb.TypeText, FullText: true},
		},
	})
	data := clusteredData(23, 1000, 8, 10)
	env.upsertAll(t, data, func(i int) map[string]reldb.Value {
		loc := "Seattle"
		if i < 10 {
			loc = "NewYork"
		}
		tags := "common"
		if i%100 == 0 {
			tags = "common rare"
		}
		return map[string]reldb.Value{
			"location": reldb.S(loc),
			"ts":       reldb.I(int64(i)),
			"tags":     reldb.S(tags),
		}
	})
	env.rebuild(t)
	return env, data
}

func TestHybridPreFilterExactOverQualifying(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(5)
		filters := stats.And(reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("NewYork")})
		got, info, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 4, Filters: filters, Plan: PlanPreFilter})
		if err != nil {
			return err
		}
		if info.Plan != PlanPreFilter {
			t.Errorf("plan = %v", info.Plan)
		}
		// Exactly the 10 NewYork assets qualify; all must be returned.
		if len(got) != 10 {
			t.Fatalf("results = %d, want 10", len(got))
		}
		for _, r := range got {
			var id int
			fmt.Sscanf(r.AssetID, "asset-%d", &id)
			if id >= 10 {
				t.Errorf("non-NewYork asset %s returned", r.AssetID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEvalFiltersReadsOnlyPredicateColumns: post-filter evaluation of a
// comparison decodes only the columns it names from the vids row (here the
// int column after a text one), so an int predicate allocates nothing,
// and verdicts match the attributes, also with a MATCH probe in between.
func TestEvalFiltersReadsOnlyPredicateColumns(t *testing.T) {
	env, _ := hybridEnv(t)
	tsLt := stats.And(reldb.Predicate{Column: "ts", Op: reldb.OpLt, Value: reldb.I(500)})
	mixed := stats.And(
		reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("rare")},
		reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("NewYork")},
	)
	sf, err := env.ix.splitFilters(mixed)
	if err != nil {
		t.Fatal(err)
	}
	err = env.store.View(func(rt *storage.ReadTxn) error {
		var lk lookups
		lk.bind(env.ix, rt)
		var vid int64
		for i := 0; i < 1000; i += 37 {
			row, err := env.ix.assets.Get(rt, reldb.S(fmt.Sprintf("asset-%d", i)))
			if err != nil {
				return err
			}
			vid = row[2].Int
			if got, err := env.ix.evalFilters(&lk, vid, nil, tsLt, nil); err != nil || got != (i < 500) {
				t.Errorf("asset-%d: ts < 500 = %v, %v", i, got, err)
			}
			// asset-0 is the only NewYork asset tagged rare.
			if got, err := env.ix.evalFilters(&lk, vid, nil, mixed, sf.tokens); err != nil || got != (i == 0) {
				t.Errorf("asset-%d: tags MATCH rare AND location = NewYork: %v, %v", i, got, err)
			}
		}
		var err error
		allocs := testing.AllocsPerRun(100, func() { _, err = env.ix.evalFilters(&lk, vid, nil, tsLt, nil) })
		if allocs != 0 {
			t.Errorf("%.1f allocations per int-predicate evaluation, want 0", allocs)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridPostFilterAppliesPredicates(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(500)
		filters := stats.And(reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("Seattle")})
		got, info, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 6, Filters: filters, Plan: PlanPostFilter})
		if err != nil {
			return err
		}
		if info.Plan != PlanPostFilter {
			t.Errorf("plan = %v", info.Plan)
		}
		if len(got) != 10 {
			t.Fatalf("results = %d, want 10", len(got))
		}
		for _, r := range got {
			var id int
			fmt.Sscanf(r.AssetID, "asset-%d", &id)
			if id < 10 {
				t.Errorf("NewYork asset %s passed Seattle filter", r.AssetID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOptimizerChoosesPlanBySelectivity(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(0)
		// Highly selective: 1% of rows -> pre-filter.
		rare := stats.And(reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("NewYork")})
		_, info, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 4, Filters: rare})
		if err != nil {
			return err
		}
		// F_IVF = 4*25/1000 = 0.1; F_filters ~ 0.01 -> pre.
		if info.Plan != PlanPreFilter {
			t.Errorf("rare filter plan = %v (fsel=%v ivf=%v)", info.Plan, info.FilterSelectivity, info.IVFSelectivity)
		}
		// Low selectivity: 99% of rows -> post-filter.
		common := stats.And(reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("Seattle")})
		_, info, err = env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 4, Filters: common})
		if err != nil {
			return err
		}
		if info.Plan != PlanPostFilter {
			t.Errorf("common filter plan = %v (fsel=%v ivf=%v)", info.Plan, info.FilterSelectivity, info.IVFSelectivity)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridMatchPredicate(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(100)
		filters := stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("rare")})
		got, info, err := env.ix.Search(rt, q, SearchOptions{K: 20, NProbe: 4, Filters: filters})
		if err != nil {
			return err
		}
		// 10 assets are tagged rare (every 100th); MATCH is selective so
		// the optimizer must pick pre-filter and find all of them.
		if info.Plan != PlanPreFilter {
			t.Errorf("plan = %v", info.Plan)
		}
		if len(got) != 10 {
			t.Errorf("results = %d, want 10", len(got))
		}
		for _, r := range got {
			var id int
			fmt.Sscanf(r.AssetID, "asset-%d", &id)
			if id%100 != 0 {
				t.Errorf("asset %s lacks 'rare' tag", r.AssetID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridRangePredicate(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(3)
		filters := stats.And(reldb.Predicate{Column: "ts", Op: reldb.OpLt, Value: reldb.I(50)})
		got, _, err := env.ix.Search(rt, q, SearchOptions{K: 50, NProbe: 4, Filters: filters, Plan: PlanPreFilter})
		if err != nil {
			return err
		}
		if len(got) != 50 {
			t.Fatalf("results = %d, want 50", len(got))
		}
		for _, r := range got {
			var id int
			fmt.Sscanf(r.AssetID, "asset-%d", &id)
			if id >= 50 {
				t.Errorf("asset %s violates ts < 50", r.AssetID)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridConjunction(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(3)
		filters := stats.And(
			reldb.Predicate{Column: "location", Op: reldb.OpEq, Value: reldb.S("NewYork")},
			reldb.Predicate{Column: "ts", Op: reldb.OpLt, Value: reldb.I(5)},
		)
		for _, plan := range []PlanType{PlanPreFilter, PlanPostFilter} {
			got, _, err := env.ix.Search(rt, q, SearchOptions{K: 20, NProbe: 40, Filters: filters, Plan: plan})
			if err != nil {
				return err
			}
			if len(got) != 5 {
				t.Errorf("plan %v: results = %d, want 5", plan, len(got))
			}
			for _, r := range got {
				var id int
				fmt.Sscanf(r.AssetID, "asset-%d", &id)
				if id >= 5 {
					t.Errorf("plan %v: asset %s fails conjunction", plan, r.AssetID)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridUnknownColumn(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		filters := stats.And(reldb.Predicate{Column: "missing", Op: reldb.OpEq, Value: reldb.I(1)})
		_, _, err := env.ix.Search(rt, data.Row(0), SearchOptions{K: 5, Filters: filters, Plan: PlanPostFilter})
		if !errors.Is(err, ErrNoFilter) {
			t.Errorf("unknown filter column = %v, want ErrNoFilter", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMemIndexRecallAndMemory(t *testing.T) {
	data := clusteredData(31, 2000, 16, 20)
	assets := make([]string, data.Rows)
	for i := range assets {
		assets[i] = fmt.Sprintf("asset-%d", i)
	}
	m, err := BuildMemIndex(MemIndexConfig{TargetPartitionSize: 50, Seed: 5, Workers: 2}, data, assets)
	if err != nil {
		t.Fatal(err)
	}
	if m.Partitions() != 40 {
		t.Errorf("partitions = %d", m.Partitions())
	}
	if m.MemoryBytes() < int64(data.Rows*16*4) {
		t.Errorf("MemoryBytes = %d, below raw vector size", m.MemoryBytes())
	}
	rng := rand.New(rand.NewSource(7))
	var total float64
	for qi := 0; qi < 20; qi++ {
		q := data.Row(rng.Intn(data.Rows))
		got, err := m.Search(q, 10, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.SearchExact(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		total += recallOf(got, want)
	}
	if avg := total / 20; avg < 0.9 {
		t.Errorf("mem index recall = %v", avg)
	}
}

func TestProbeSetDeterministicOrder(t *testing.T) {
	env, data := hybridEnv(t)
	err := env.store.View(func(rt *storage.ReadTxn) error {
		q := data.Row(1)
		r1, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 5})
		if err != nil {
			return err
		}
		r2, _, err := env.ix.Search(rt, q, SearchOptions{K: 10, NProbe: 5})
		if err != nil {
			return err
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("non-deterministic results: %+v vs %+v", r1[i], r2[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCreateRejectsReservedAttributeNames: attributes share the vids row
// with its vid key and asset column, so an attribute may not take either
// name.
func TestCreateRejectsReservedAttributeNames(t *testing.T) {
	for _, name := range []string{"vid", "asset"} {
		s, err := storage.Open(filepath.Join(t.TempDir(), "t.db"), storage.Options{Sync: storage.SyncOff})
		if err != nil {
			t.Fatal(err)
		}
		db, err := reldb.Open(s)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Update(func(wt *storage.WriteTxn) error {
			_, err := Create(db, wt, Config{Dim: 4, Attributes: []AttributeDef{{Name: name, Type: reldb.TypeText}}})
			return err
		})
		if err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("attribute %q: Create = %v, want a reserved-name error", name, err)
		}
		s.Close()
	}
}
