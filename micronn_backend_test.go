package micronn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"micronn/internal/storage"
	"micronn/internal/storage/storagetest"
)

// skipIfEphemeralBackend marks tests whose assertions require persistence
// across reopen; see storagetest.SkipIfEphemeral.
func skipIfEphemeralBackend(t testing.TB) {
	storagetest.SkipIfEphemeral(t)
}

func idOf(i int) string { return fmt.Sprintf("v%d", i) }

func randVecs(n, dim int, seed int64) [][]float32 {
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

// TestBackendMmapReopenAutoDetect creates an mmap-backed database, fills
// and rebuilds it, and proves a BackendDefault reopen lands on the same
// engine with the data intact and searchable.
func TestBackendMmapReopenAutoDetect(t *testing.T) {
	skipIfEphemeralBackend(t)
	path := filepath.Join(t.TempDir(), "mm.mnn")
	vecs := randVecs(400, 16, 42)
	db, err := Open(path, Options{Dim: 16, Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := db.Upsert(Item{ID: idOf(i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "mmap" {
		t.Errorf("Stats.Backend = %q, want mmap", st.Backend)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := db2.InternalStore().Kind(); got != storage.BackendMmap {
		t.Errorf("auto-detected backend = %v, want mmap", got)
	}
	resp, err := db2.Search(SearchRequest{Vector: vecs[7], K: 1, NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != idOf(7) {
		t.Errorf("post-reopen search = %+v", resp.Results)
	}

	// Switching to the file backend explicitly still opens the same data:
	// one on-disk format.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(path, Options{Backend: BackendFile})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if got, err := db3.Get(idOf(7)); err != nil || got == nil {
		t.Errorf("Get via file backend: %v, %v", got, err)
	}
}

// TestBackendMemoryEphemeralDB checks the memory backend end to end at the
// micronn layer: fully functional while open, Stats reports it, nothing is
// left on disk, and reopening yields a fresh database.
func TestBackendMemoryEphemeralDB(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mem.mnn")
	vecs := randVecs(300, 8, 7)
	db, err := Open(path, Options{Dim: 8, Backend: BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := db.Upsert(Item{ID: idOf(i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	resp, err := db.Search(SearchRequest{Vector: vecs[3], K: 1, NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != idOf(3) {
		t.Errorf("memory search = %+v", resp.Results)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "memory" {
		t.Errorf("Stats.Backend = %q, want memory", st.Backend)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("memory backend left files behind: %v (err=%v)", entries, err)
	}
	// Reopen with the backend pinned: fresh, empty database (Dim required
	// proves there is no store to inherit it from).
	if _, err := Open(path, Options{Backend: BackendMemory}); err == nil {
		t.Error("reopening an ephemeral database without Dim should fail (nothing persisted)")
	}
}

// TestBackendShardedMemoryEphemeral: an explicitly memory-backed sharded
// database must honor the same contract as a single store — fully
// functional while open (including the cross-shard invariant battery),
// and no manifest or shard directories left on disk.
func TestBackendShardedMemoryEphemeral(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ms.d")
	vecs := randVecs(120, 8, 5)
	sdb, err := OpenSharded(dir, Options{Dim: 8, Shards: 2, Backend: BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := sdb.Upsert(Item{ID: idOf(i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sdb.Rebuild(); err != nil {
		t.Fatal(err)
	}
	resp, err := sdb.Search(SearchRequest{Vector: vecs[9], K: 1, NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || resp.Results[0].ID != idOf(9) {
		t.Errorf("sharded memory search = %+v", resp.Results)
	}
	if err := sdb.CheckInvariants(); err != nil {
		t.Errorf("CheckInvariants on ephemeral sharded db: %v", err)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("sharded memory database left %s on disk (err=%v)", dir, err)
	}
}

// TestBackendShardedManifestPinning creates a sharded database with an
// explicit backend, and checks the manifest records it, reopen adopts it,
// and a conflicting explicit reopen fails fast.
func TestBackendShardedManifestPinning(t *testing.T) {
	skipIfEphemeralBackend(t)
	dir := filepath.Join(t.TempDir(), "sb.d")
	vecs := randVecs(200, 8, 9)
	sdb, err := OpenSharded(dir, Options{Dim: 8, Shards: 2, Backend: BackendMmap})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs {
		if err := sdb.Upsert(Item{ID: idOf(i), Vector: v}); err != nil {
			t.Fatal(err)
		}
	}
	if m := sdb.Manifest(); m.Backend != "mmap" {
		t.Errorf("manifest backend = %q, want mmap", m.Backend)
	}
	st, err := sdb.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "mmap" {
		t.Errorf("aggregated Stats.Backend = %q, want mmap", st.Backend)
	}
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenSharded(dir, Options{Backend: BackendFile}); err == nil {
		t.Error("conflicting explicit backend on reopen should fail")
	}
	re, err := OpenSharded(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < 2; i++ {
		if got := re.Shard(i).InternalStore().Kind(); got != storage.BackendMmap {
			t.Errorf("shard %d backend = %v, want mmap", i, got)
		}
	}
	if got, err := re.Get(idOf(11)); err != nil || got == nil {
		t.Errorf("Get after sharded mmap reopen: %v, %v", got, err)
	}
}

// TestBackendPoolCountersExposed proves cache effectiveness is visible:
// the file backend reports pool hits/misses (and evictions under a tiny
// budget), single-store and aggregated across shards.
func TestBackendPoolCountersExposed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "pc.d")
	vecs := randVecs(600, 32, 3)
	sdb, err := OpenSharded(dir, Options{
		Dim: 32, Shards: 2, Backend: BackendFile,
		Device: DeviceProfile{CacheBytes: 2 << 20, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	items := make([]Item, len(vecs))
	for i, v := range vecs {
		items[i] = Item{ID: idOf(i), Vector: v}
	}
	if err := sdb.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := sdb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sdb.DropCaches()
	for q := 0; q < 20; q++ {
		if _, err := sdb.Search(SearchRequest{Vector: vecs[q], K: 5, NProbe: 4}); err != nil {
			t.Fatal(err)
		}
	}
	per, err := sdb.ShardStats()
	if err != nil {
		t.Fatal(err)
	}
	agg := AggregateStats(per)
	if agg.CacheMisses == 0 {
		t.Error("cold queries produced no pool misses")
	}
	if agg.CacheHits == 0 {
		t.Error("repeated queries produced no pool hits")
	}
	var sumHits uint64
	for _, st := range per {
		sumHits += st.CacheHits
	}
	if agg.CacheHits != sumHits {
		t.Errorf("aggregated hits %d != sum of per-shard %d", agg.CacheHits, sumHits)
	}
}

// TestBackendsReturnIdenticalResults builds the same data with the same
// seed on every page-store engine — file, read-mmap (where supported) and
// memory — under a buffer pool far smaller than the store, so the file
// engine really reads through the pool while the zero-copy engines bypass
// it. The engines differ in how bytes are read, never in which bytes
// exist: every approximate search must return the file engine's results
// exactly, and recall@10 against exact search must match to 1e-6.
func TestBackendsReturnIdenticalResults(t *testing.T) {
	const dim, n, numQueries, nprobe = 32, 4000, 30, 4
	vecs := clusteredVecs(11, n, dim, 20)
	queries := clusteredVecs(12, numQueries, dim, 20)

	kinds := []Backend{BackendFile}
	if storage.MmapSupported() {
		kinds = append(kinds, BackendMmap)
	}
	kinds = append(kinds, BackendMemory)

	type run struct {
		results [][]Result
		recall  float64
	}
	runs := make([]run, len(kinds))
	for ki, kind := range kinds {
		db, err := Open(filepath.Join(t.TempDir(), kind.String()+".mnn"), Options{
			Dim: dim, Seed: 3, TargetPartitionSize: 100, Backend: kind,
			Device: DeviceProfile{CacheBytes: 256 << 10, WriteBufferBytes: 1 << 20, Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		items := make([]Item, n)
		for i, v := range vecs {
			items[i] = Item{ID: idOf(i), Vector: v}
		}
		if err := db.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Rebuild(); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		db.DropCaches()
		for _, q := range queries {
			exact, err := db.Search(SearchRequest{Vector: q, K: 10, Exact: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Search(SearchRequest{Vector: q, K: 10, NProbe: nprobe})
			if err != nil {
				t.Fatal(err)
			}
			runs[ki].results = append(runs[ki].results, got.Results)
			runs[ki].recall += recallAgainst(exact.Results, got.Results)
		}
		runs[ki].recall /= numQueries
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	file := runs[0]
	t.Logf("file recall@10 = %.4f at nprobe %d", file.recall, nprobe)
	for ki, kind := range kinds[1:] {
		r := runs[ki+1]
		if math.Abs(r.recall-file.recall) >= 1e-6 {
			t.Errorf("%s recall@10 %.6f differs from file %.6f", kind, r.recall, file.recall)
		}
		for qi := range queries {
			if !slices.Equal(r.results[qi], file.results[qi]) {
				t.Errorf("%s query %d results differ from file:\n got %v\nwant %v", kind, qi, r.results[qi], file.results[qi])
			}
		}
	}
}
