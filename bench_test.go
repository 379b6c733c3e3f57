// Benchmarks for the timings no other harness takes. The paper's tables
// and figures are the internal/bench registry's experiments
// (`micronn-bench -list`), the end-to-end workloads are perfbench's, and
// the kernel, heap and codec costs are package microbenchmarks. Four
// benchmarks remain here, each reporting its timings as custom metrics
// (correctness verdicts are ordinary tests):
//   - ExactKNN: brute-force search, which no workload runs.
//   - BackendSearch: hot and cold search on the file, mmap and memory
//     backends; the workloads run only the file backend.
//   - ShardedSearch: the single-store baseline against 1, 2 and 4 shards
//     under sustained upserts; the workloads run one shard count.
//   - GroupCommitIngest: 8 concurrent writers against one; the workloads
//     drive a single client.
package micronn_test

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"micronn"
	"micronn/internal/storage"
	"micronn/internal/workload"
)

// benchScale keeps benchmark datasets small; the shapes (not absolute
// numbers) are what the metrics compare.
const benchScale = 0.002

func buildBenchDB(path string, ds *workload.Dataset, opts micronn.Options) (*micronn.DB, error) {
	db, err := micronn.Open(path, opts)
	if err != nil {
		return nil, err
	}
	items := make([]micronn.Item, 0, 2000)
	for i := 0; i < ds.Train.Rows; i++ {
		items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
		if len(items) == cap(items) || i == ds.Train.Rows-1 {
			if err := db.UpsertBatch(items); err != nil {
				db.Close()
				return nil, err
			}
			items = items[:0]
		}
	}
	if _, err := db.Rebuild(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// BenchmarkExactKNN times brute-force top-100 search, the ground-truth
// path recall is measured against.
func BenchmarkExactKNN(b *testing.B) {
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	db, err := buildBenchDB(filepath.Join(b.TempDir(), "exact.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries.Row(i % ds.Queries.Rows)
		if _, err := db.Search(micronn.SearchRequest{Vector: q, K: 100, Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// recallAt10 is the mean recall@10 of NProbe-8 search against exact search
// over the first measured queries. Callers quiesce the store first so both
// searches see the same collection.
func recallAt10(b *testing.B, db micronn.Store, ds *workload.Dataset, measured int) float64 {
	b.Helper()
	var recall float64
	for q := 0; q < measured; q++ {
		qv := ds.Queries.Row(q % ds.Queries.Rows)
		resp, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, NProbe: 8})
		if err != nil {
			b.Fatal(err)
		}
		exact, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, Exact: true})
		if err != nil {
			b.Fatal(err)
		}
		want := make(map[string]bool, len(exact.Results))
		for _, r := range exact.Results {
			want[r.ID] = true
		}
		hits := 0
		for _, r := range resp.Results {
			if want[r.ID] {
				hits++
			}
		}
		if len(exact.Results) > 0 {
			recall += float64(hits) / float64(len(exact.Results))
		}
	}
	return recall / float64(measured)
}

// tailMs sorts durs and returns, in milliseconds, the highest of the p99,
// p95, p90, p75 and p50 that has at least ten samples above it, with that
// percentile: a tail read from fewer samples is one or two samples' noise
// (p99 of 32 samples is their maximum). 150 samples give the p90; fewer
// than 41 give the median.
func tailMs(durs []time.Duration) (ms float64, pct int) {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pct = 50
	for _, p := range []int{99, 95, 90, 75} {
		if len(durs)-1-len(durs)*p/100 >= 10 {
			pct = p
			break
		}
	}
	return float64(durs[len(durs)*pct/100]) / 1e6, pct
}

// benchShardedSearch measures search tail latency under a sustained upsert
// stream at a given shard count (0 = the single-store baseline): a writer
// goroutine streams batches with auto-maintain running while the measured
// loop times queries and sums scanned bytes; recall@10 is then measured
// against exact search on the quiesced final state (measuring it mid-storm
// would compare against a moving ground truth). It reports, per variant,
// the search tail (search-p50-ms: tailMs of 32 samples is the median),
// recall@10 and scan-bytes/op.
func benchShardedSearch(b *testing.B, shards int) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	opts := micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
		TargetPartitionSize: 100, Shards: shards,
		AutoMaintain: true, MaintainInterval: 10 * time.Millisecond,
	}
	var db micronn.Store
	if shards == 0 {
		db, err = micronn.Open(filepath.Join(b.TempDir(), "sb.mnn"), opts)
	} else {
		db, err = micronn.OpenSharded(filepath.Join(b.TempDir(), "sb.d"), opts)
	}
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	insert := func(prefix string, lo, hi int) error {
		items := make([]micronn.Item, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, micronn.Item{
				ID:     fmt.Sprintf("%s-%d", prefix, i),
				Vector: ds.Train.Row(i % ds.Train.Rows),
			})
		}
		return db.UpsertBatch(items)
	}
	if err := insert("b", 0, ds.Train.Rows); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		b.Fatal(err)
	}

	// Sustained upserts for the whole measurement.
	stop := make(chan struct{})
	done := make(chan struct{})
	werrCh := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			lo := i * 100
			if err := insert("w", lo, lo+100); err != nil {
				werrCh <- err
				return
			}
		}
	}()

	const measured = 32
	var tailSum float64
	var tailPct int
	var bytesScanned int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		durs := make([]time.Duration, 0, measured)
		for q := 0; q < measured; q++ {
			qv := ds.Queries.Row(q % ds.Queries.Rows)
			start := time.Now()
			resp, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, NProbe: 8})
			if err != nil {
				b.Fatal(err)
			}
			durs = append(durs, time.Since(start))
			bytesScanned += resp.Plan.BytesScanned
		}
		ms, pct := tailMs(durs)
		tailSum += ms
		tailPct = pct
	}
	b.StopTimer()
	close(stop)
	<-done
	select {
	case werr := <-werrCh:
		b.Fatal(werr)
	default:
	}
	if _, err := db.Maintain(); err != nil {
		b.Fatal(err)
	}

	b.ReportMetric(tailSum/float64(b.N), fmt.Sprintf("search-p%d-ms", tailPct))
	// Recall on the quiesced final state: approximate and exact search now
	// see the same collection.
	b.ReportMetric(recallAt10(b, db, ds, measured), "recall@10")
	b.ReportMetric(float64(bytesScanned)/float64(b.N*measured), "scan-bytes/op")
}

// benchBackendSearch measures hot and cold search on one page-store
// backend under a tight 1 MiB pool budget (so the read path dominates),
// reporting hot p50, cold p50 and recall@10.
func benchBackendSearch(b *testing.B, kind micronn.Backend) {
	if kind == micronn.BackendMmap && !storage.MmapSupported() {
		b.Skip("mmap backend not supported on this platform")
	}
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	dir := b.TempDir()
	db, err := buildBenchDB(filepath.Join(dir, "backend.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
		Backend: kind,
		Device:  micronn.DeviceProfile{CacheBytes: 1 << 20, WriteBufferBytes: 4 << 20, Workers: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	const measured = 24
	search := func(qi int) time.Duration {
		start := time.Now()
		if _, err := db.Search(micronn.SearchRequest{Vector: ds.Queries.Row(qi % ds.Queries.Rows), K: 10, NProbe: 8}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm round.
	for q := 0; q < measured; q++ {
		search(q)
	}
	var hotP50Sum, coldP50Sum float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hot := make([]float64, 0, measured)
		for q := 0; q < measured; q++ {
			hot = append(hot, float64(search(q).Nanoseconds())/1e6)
		}
		sort.Float64s(hot)
		hotP50Sum += hot[len(hot)/2]
		cold := make([]float64, 0, measured)
		for q := 0; q < measured; q++ {
			db.DropCaches()
			cold = append(cold, float64(search(q).Nanoseconds())/1e6)
		}
		sort.Float64s(cold)
		coldP50Sum += cold[len(cold)/2]
	}
	b.StopTimer()
	b.ReportMetric(hotP50Sum/float64(b.N), "hot-p50-ms")
	b.ReportMetric(coldP50Sum/float64(b.N), "cold-p50-ms")
	b.ReportMetric(recallAt10(b, db, ds, measured), "recall@10")
}

// BenchmarkBackendSearch compares the page-store backends on the hot and
// cold search path: mmap's hot-p50-ms against file's shows what skipping
// the pread path saves (a reported timing, never a test verdict).
// Identical results across backends is TestBackendsReturnIdenticalResults.
func BenchmarkBackendSearch(b *testing.B) {
	b.Run("file", func(b *testing.B) { benchBackendSearch(b, micronn.BackendFile) })
	b.Run("mmap", func(b *testing.B) { benchBackendSearch(b, micronn.BackendMmap) })
	b.Run("memory", func(b *testing.B) { benchBackendSearch(b, micronn.BackendMemory) })
}

// BenchmarkShardedSearch runs the sustained-upsert search workload on the
// single-store baseline and at 1/2/4 shards, reporting each variant's
// search tail, recall@10 and scanned bytes. Recall parity with the single
// store is asserted by TestShardedEquivalence.
func BenchmarkShardedSearch(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchShardedSearch(b, 0) })
	b.Run("shards=1", func(b *testing.B) { benchShardedSearch(b, 1) })
	b.Run("shards=2", func(b *testing.B) { benchShardedSearch(b, 2) })
	b.Run("shards=4", func(b *testing.B) { benchShardedSearch(b, 4) })
}

// BenchmarkGroupCommitIngest measures the write path: single-writer vs
// 8-writer group-committed insert throughput, the average group size, then
// the search tail idle vs during a saturating insert storm absorbed by the
// delta store. On multi-core hosts the 8-writer rate should clear the
// single-writer rate (writers amortize the writer gate and WAL commit);
// storm-p90-ms should stay near idle-p90-ms at unchanged recall@10 (tailMs
// of 150 samples is the p90).
// Batching and recall under the storm are asserted by
// TestLSMGroupCommitVisibility and TestLSMRecallUnderInsertStorm.
func BenchmarkGroupCommitIngest(b *testing.B) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	n := ds.Train.Rows
	bootstrap := n / 2
	const stormN = 800
	row := func(i int) []float32 { return ds.Train.Row(i % n) }
	mk := func(name string) *micronn.DB {
		db, err := micronn.Open(filepath.Join(b.TempDir(), name+".mnn"), micronn.Options{
			Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
			TargetPartitionSize: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		items := make([]micronn.Item, 0, bootstrap)
		for i := 0; i < bootstrap; i++ {
			items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
		}
		if err := db.UpsertBatch(items); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Rebuild(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	searchOnce := func(db *micronn.DB, i int) time.Duration {
		time.Sleep(500 * time.Microsecond)
		q := ds.Queries.Row(i % ds.Queries.Rows)
		start := time.Now()
		if _, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	var singleRate, groupedRate, avgGroup, idleTail, stormTail, recall, writeAmp float64
	var tailPct int
	for iter := 0; iter < b.N; iter++ {
		// Single-writer baseline: one goroutine, one group per insert.
		db := mk(fmt.Sprintf("gci-single%d", iter))
		start := time.Now()
		for i := 0; i < stormN; i++ {
			if err := db.Upsert(micronn.Item{ID: fmt.Sprintf("s%d", i), Vector: row(i)}); err != nil {
				b.Fatal(err)
			}
		}
		singleRate += float64(stormN) / time.Since(start).Seconds()
		db.Close()

		// Grouped: 8 writers race into the committer. Maintenance row
		// writes are measured from here to the quiesced end of the iter:
		// divided by the rows ingested they are the write-amplification
		// factor.
		db = mk(fmt.Sprintf("gci-grouped%d", iter))
		st0, err := db.Stats()
		if err != nil {
			b.Fatal(err)
		}
		const writers = 8
		var wg sync.WaitGroup
		start = time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < stormN/writers; i++ {
					if err := db.Upsert(micronn.Item{ID: fmt.Sprintf("g%d-%d", w, i), Vector: row(w*stormN/writers + i)}); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		groupedRate += float64(stormN/writers*writers) / time.Since(start).Seconds()
		st, err := db.Stats()
		if err != nil {
			b.Fatal(err)
		}
		if st.Ingest.GroupCommits > 0 {
			avgGroup += float64(st.Ingest.GroupedOps) / float64(st.Ingest.GroupCommits)
		}
		if _, err := db.Maintain(); err != nil {
			b.Fatal(err)
		}

		// Search tail: idle window, then under a capped saturating storm.
		idle := make([]time.Duration, 0, 150)
		for i := 0; i < 150; i++ {
			idle = append(idle, searchOnce(db, i))
		}
		stop := make(chan struct{})
		werr := make(chan error, 1)
		var stormed int
		go func() {
			for i := 0; i < 1500; i++ {
				select {
				case <-stop:
					werr <- nil
					return
				default:
				}
				if err := db.Upsert(micronn.Item{ID: fmt.Sprintf("storm%d", i), Vector: row(i)}); err != nil {
					werr <- err
					return
				}
				stormed++
			}
			werr <- nil
		}()
		storm := make([]time.Duration, 0, 150)
		for i := 0; i < 150; i++ {
			storm = append(storm, searchOnce(db, i))
		}
		close(stop)
		if err := <-werr; err != nil {
			b.Fatal(err)
		}
		ms, _ := tailMs(idle)
		idleTail += ms
		ms, tailPct = tailMs(storm)
		stormTail += ms

		// Recall@10 on the quiesced store.
		if _, err := db.Maintain(); err != nil {
			b.Fatal(err)
		}
		st1, err := db.Stats()
		if err != nil {
			b.Fatal(err)
		}
		writeAmp += float64(st1.Maintenance.RowChanges-st0.Maintenance.RowChanges) /
			float64(stormN+stormed)
		recall += recallAt10(b, db, ds, 15)
		db.Close()
	}
	b.ReportMetric(singleRate/float64(b.N), "single-inserts/s")
	b.ReportMetric(groupedRate/float64(b.N), "grouped-inserts/s")
	b.ReportMetric(groupedRate/singleRate, "grouped-speedup-x")
	b.ReportMetric(avgGroup/float64(b.N), "avg-group-size")
	b.ReportMetric(idleTail/float64(b.N), fmt.Sprintf("idle-p%d-ms", tailPct))
	b.ReportMetric(stormTail/float64(b.N), fmt.Sprintf("storm-p%d-ms", tailPct))
	b.ReportMetric(recall/float64(b.N), "recall@10")
	b.ReportMetric(writeAmp/float64(b.N), "write-amp-rows/row")
}

// TestTailMs: the reported tail always has at least ten samples above it.
func TestTailMs(t *testing.T) {
	for _, tc := range []struct{ n, pct int }{{32, 50}, {40, 50}, {41, 75}, {150, 90}, {1100, 99}} {
		durs := make([]time.Duration, tc.n)
		for i := range durs {
			durs[i] = time.Duration(tc.n-i) * time.Millisecond
		}
		ms, pct := tailMs(durs)
		above := tc.n - int(ms)
		if pct != tc.pct || above < 10 {
			t.Errorf("%d samples: p%d = %v ms with %d samples above, want p%d with >= 10 above", tc.n, pct, ms, above, tc.pct)
		}
	}
}
