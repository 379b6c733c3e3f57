// Benchmarks mapping to the paper's tables and figures (the experiment
// index is the internal/bench registry: `micronn-bench -list`). Each
// BenchmarkFigN exercises the code path behind that figure with a small,
// fixed workload so `go test -bench=.` stays fast; the full parameter
// sweeps with printed tables live in cmd/micronn-bench. The benchmarks
// after the figures report the system's own timings (search during splits,
// sharding, backends, result cache, group commit, hybrid fusion) as custom
// metrics; their correctness verdicts are ordinary tests.
package micronn_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"micronn"
	"micronn/internal/clustering"
	"micronn/internal/ivf"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
	"micronn/internal/workload"
)

// benchScale keeps benchmark datasets small; the shapes (not absolute
// numbers) are what map to the paper.
const benchScale = 0.002

// sharedDB lazily builds one SIFT-scaled database reused by the query-path
// benchmarks.
var (
	sharedOnce sync.Once
	sharedDB   *micronn.DB
	sharedDS   *workload.Dataset
	sharedErr  error
)

func sharedSetup(b *testing.B) (*micronn.DB, *workload.Dataset) {
	b.Helper()
	sharedOnce.Do(func() {
		spec, err := workload.ByName("SIFT")
		if err != nil {
			sharedErr = err
			return
		}
		spec = spec.Scaled(benchScale)
		sharedDS = spec.Generate()
		dir, err := os.MkdirTemp("", "micronn-bench-*")
		if err != nil {
			sharedErr = err
			return
		}
		sharedDB, sharedErr = buildBenchDB(filepath.Join(dir, "shared.mnn"), sharedDS, micronn.Options{
			Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
		})
	})
	if sharedErr != nil {
		b.Fatal(sharedErr)
	}
	return sharedDB, sharedDS
}

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

// --- Figure 4: query latency (InMemory / WarmCache / ColdStart) ---

func BenchmarkFig4WarmCacheSearch(b *testing.B) {
	db, ds := sharedSetup(b)
	// Warm the caches.
	for i := 0; i < 8; i++ {
		if _, err := db.Search(micronn.SearchRequest{Vector: ds.Queries.Row(i), K: 100, NProbe: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries.Row(i % ds.Queries.Rows)
		if _, err := db.Search(micronn.SearchRequest{Vector: q, K: 100, NProbe: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4ColdStartSearch(b *testing.B) {
	db, ds := sharedSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db.DropCaches()
		b.StartTimer()
		q := ds.Queries.Row(i % ds.Queries.Rows)
		if _, err := db.Search(micronn.SearchRequest{Vector: q, K: 100, NProbe: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4InMemorySearch(b *testing.B) {
	_, ds := sharedSetup(b)
	assets := make([]string, ds.Train.Rows)
	for i := range assets {
		assets[i] = workload.AssetID(i)
	}
	mem, err := ivf.BuildMemIndex(ivf.MemIndexConfig{
		Metric: ds.Spec.Metric, TargetPartitionSize: 100, Seed: 1,
	}, ds.Train, assets)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries.Row(i % ds.Queries.Rows)
		if _, err := mem.Search(q, 100, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6: index construction ---

func BenchmarkFig6ConstructionMicroNN(b *testing.B) {
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := buildBenchDB(filepath.Join(dir, fmt.Sprintf("c%d.mnn", i)), ds, micronn.Options{
			Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		db.Close()
	}
}

func BenchmarkFig6ConstructionInMemory(b *testing.B) {
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	assets := make([]string, ds.Train.Rows)
	for i := range assets {
		assets[i] = workload.AssetID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ivf.BuildMemIndex(ivf.MemIndexConfig{
			Metric: spec.Metric, TargetPartitionSize: 100, Seed: int64(i),
		}, ds.Train, assets); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: hybrid plans ---

var (
	hybridOnce sync.Once
	hybridDB   *micronn.DB
	hybridFD   *workload.FilteredDataset
	hybridErr  error
)

func hybridSetup(b *testing.B) (*micronn.DB, *workload.FilteredDataset) {
	b.Helper()
	hybridOnce.Do(func() {
		fd := workload.GenerateFiltered(workload.FilteredSpec{
			Dim: 32, NumVectors: 8000, NumQueries: 50, Seed: 9,
		})
		hybridFD = fd
		dir, err := os.MkdirTemp("", "micronn-hybrid-*")
		if err != nil {
			hybridErr = err
			return
		}
		db, err := micronn.Open(filepath.Join(dir, "h.mnn"), micronn.Options{
			Dim: fd.Spec.Dim, Metric: micronn.Cosine, TargetPartitionSize: 100, Seed: 9,
			Attributes: []micronn.AttributeDef{{Name: "tags", Type: micronn.AttrText, FullText: true}},
		})
		if err != nil {
			hybridErr = err
			return
		}
		items := make([]micronn.Item, 0, 1000)
		for i := 0; i < fd.Train.Rows; i++ {
			items = append(items, micronn.Item{
				ID: workload.AssetID(i), Vector: fd.Train.Row(i),
				Attributes: map[string]any{"tags": fd.Tags[i]},
			})
			if len(items) == cap(items) || i == fd.Train.Rows-1 {
				if err := db.UpsertBatch(items); err != nil {
					hybridErr = err
					return
				}
				items = items[:0]
			}
		}
		if _, err := db.Rebuild(); err != nil {
			hybridErr = err
			return
		}
		hybridDB = db
	})
	if hybridErr != nil {
		b.Fatal(hybridErr)
	}
	return hybridDB, hybridFD
}

func benchHybridPlan(b *testing.B, plan micronn.PlanType) {
	db, fd := hybridSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % fd.Queries.Rows
		_, err := db.Search(micronn.SearchRequest{
			Vector: fd.Queries.Row(qi), K: 100, NProbe: 8,
			Filters: []micronn.Filter{micronn.Match("tags", fd.QueryTags[qi])},
			Plan:    plan,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7PreFilter(b *testing.B)  { benchHybridPlan(b, micronn.PlanPreFilter) }
func BenchmarkFig7PostFilter(b *testing.B) { benchHybridPlan(b, micronn.PlanPostFilter) }
func BenchmarkFig7Optimizer(b *testing.B)  { benchHybridPlan(b, micronn.PlanAuto) }

// --- Figure 8: mini-batch k-means trainer ---

func benchMiniBatch(b *testing.B, batchFrac float64) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	batch := int(float64(ds.Train.Rows) * batchFrac)
	if batch < 8 {
		batch = 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := clustering.MiniBatchKMeans(clustering.Config{
			TargetClusterSize: 100, BatchSize: batch, Metric: spec.Metric, Seed: int64(i),
		}, clustering.MatrixSource{M: ds.Train})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8MiniBatch1pct(b *testing.B)   { benchMiniBatch(b, 0.01) }
func BenchmarkFig8MiniBatch100pct(b *testing.B) { benchMiniBatch(b, 1.0) }

// --- Figure 9: batch search (MQO) ---

func benchBatchSearch(b *testing.B, batchSize int) {
	db, ds := sharedSetup(b)
	vecs := make([][]float32, batchSize)
	for i := range vecs {
		vecs[i] = ds.Queries.Row(i % ds.Queries.Rows)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.BatchSearch(micronn.BatchSearchRequest{Vectors: vecs, K: 100, NProbe: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchSize)/1e6, "ms/query")
}

func BenchmarkFig9Batch1(b *testing.B)   { benchBatchSearch(b, 1) }
func BenchmarkFig9Batch64(b *testing.B)  { benchBatchSearch(b, 64) }
func BenchmarkFig9Batch512(b *testing.B) { benchBatchSearch(b, 512) }

// --- Figure 10: maintenance ---

func BenchmarkFig10FullRebuild(b *testing.B) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	db, err := buildBenchDB(filepath.Join(b.TempDir(), "f10.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10IncrementalFlush(b *testing.B) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	db, err := buildBenchDB(filepath.Join(b.TempDir(), "f10i.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	// Per iteration: insert a 3% epoch then flush it incrementally.
	epoch := ds.Train.Rows * 3 / 100
	if epoch < 1 {
		epoch = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		items := make([]micronn.Item, epoch)
		for j := range items {
			items[j] = micronn.Item{ID: fmt.Sprintf("new-%d-%d", i, j), Vector: ds.Train.Row(j)}
		}
		if err := db.UpsertBatch(items); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := db.FlushDelta(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationClusteredScan(b *testing.B) {
	db, _ := sharedSetup(b)
	ix := db.InternalIndex()
	store := db.InternalStore()
	rt, err := store.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	parts, err := ix.PartitionIDs(rt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		part := parts[i%len(parts)]
		err := ix.ScanPartition(rt, part, func(vid int64, blob []byte) error {
			n++
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if n == 0 {
		b.Fatal("scanned nothing")
	}
}

func BenchmarkAblationRandomLookups(b *testing.B) {
	db, ds := sharedSetup(b)
	ix := db.InternalIndex()
	store := db.InternalStore()
	rt, err := store.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	// One benchmark op = fetching as many vectors as one partition scan
	// touches (~TargetPartitionSize), but by random vid.
	per := 100
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < per; j++ {
			vid := int64((i*per + j) % ds.Train.Rows)
			if _, err := ix.FetchVector(rt, vid); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkAblationBalancePenalty(b *testing.B) {
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	for _, penalty := range []float32{1e-9, 0.12} {
		b.Run(fmt.Sprintf("penalty=%g", penalty), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := clustering.MiniBatchKMeans(clustering.Config{
					TargetClusterSize: 100, BalancePenalty: penalty,
					Metric: spec.Metric, Seed: int64(i),
				}, clustering.MatrixSource{M: ds.Train})
				if err != nil {
					b.Fatal(err)
				}
				// Report partition-size stddev as the quality metric.
				counts := make([]int, res.Centroids.Rows)
				scratch := make([]float32, res.Centroids.Rows)
				for v := 0; v < ds.Train.Rows; v++ {
					counts[clustering.Assign(spec.Metric, res.Centroids, ds.Train.Row(v), scratch)]++
				}
				mean := float64(ds.Train.Rows) / float64(len(counts))
				var varSum float64
				for _, c := range counts {
					d := float64(c) - mean
					varSum += d * d
				}
				b.ReportMetric(varSum/float64(len(counts)), "size-variance")
			}
		})
	}
}

// --- Concurrency: search availability during partition splits ---

// BenchmarkSearchDuringSplits measures the search tail while a maintenance
// stream flushes the delta and splits oversized partitions concurrently.
// With partition-granular write locking each split transaction excludes
// searches only from the partitions it rewrites — never from the whole
// store — so split-p99-ms should track idle-p99-ms. One iteration runs
// both measurement windows on a fresh database and reports idle and
// during-split p50/p99 as custom metrics.
func BenchmarkSearchDuringSplits(b *testing.B) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	n := ds.Train.Rows
	bootstrap := n / 2

	pctMs := func(durs []time.Duration, pct int) float64 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return float64(durs[len(durs)*pct/100]) / 1e6
	}
	// The searcher is paced: a closed loop with a short think time, like an
	// interactive client. An unpaced tight loop would saturate the CPU and
	// measure how the scheduler starves the maintainer (or vice versa on a
	// small host), not how long a query takes while splits run.
	searchOnce := func(db *micronn.DB, i int) (time.Duration, error) {
		time.Sleep(500 * time.Microsecond)
		q := ds.Queries.Row(i % ds.Queries.Rows)
		start := time.Now()
		_, serr := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
		return time.Since(start), serr
	}

	var idleP50, idleP99, splitP50, splitP99 float64
	for iter := 0; iter < b.N; iter++ {
		db, err := micronn.Open(filepath.Join(b.TempDir(), fmt.Sprintf("split%d.mnn", iter)), micronn.Options{
			Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed, TargetPartitionSize: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		insert := func(lo, hi int) error {
			items := make([]micronn.Item, 0, hi-lo)
			for i := lo; i < hi; i++ {
				items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
			}
			return db.UpsertBatch(items)
		}
		if err := insert(0, bootstrap); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Rebuild(); err != nil {
			b.Fatal(err)
		}
		// Settle GC debt from the build (and, in a full `-bench=.` run,
		// from earlier benchmarks) so both windows start from the same
		// heap state and the tail measures the index, not the collector.
		runtime.GC()

		idle := make([]time.Duration, 0, 300)
		for i := 0; i < 300; i++ {
			d, err := searchOnce(db, i)
			if err != nil {
				b.Fatal(err)
			}
			idle = append(idle, d)
		}

		done := make(chan error, 1)
		go func() {
			const chunk = 50
			for lo := bootstrap; lo < n; lo += chunk {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				if err := insert(lo, hi); err != nil {
					done <- err
					return
				}
				if _, err := db.Maintain(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		var storm []time.Duration
	window:
		for i := 0; ; i++ {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				break window
			default:
			}
			d, err := searchOnce(db, i)
			if err != nil {
				b.Fatal(err)
			}
			storm = append(storm, d)
		}
		// Top the window up after the stream drains so tiny scales still
		// produce meaningful percentiles.
		deadline := time.Now().Add(2 * time.Second)
		for i := len(storm); len(storm) < 100 && time.Now().Before(deadline); i++ {
			d, err := searchOnce(db, i)
			if err != nil {
				b.Fatal(err)
			}
			storm = append(storm, d)
		}

		idleP50 += pctMs(idle, 50)
		idleP99 += pctMs(idle, 99)
		splitP50 += pctMs(storm, 50)
		splitP99 += pctMs(storm, 99)
		db.Close()
	}
	b.ReportMetric(idleP50/float64(b.N), "idle-p50-ms")
	b.ReportMetric(idleP99/float64(b.N), "idle-p99-ms")
	b.ReportMetric(splitP50/float64(b.N), "split-p50-ms")
	b.ReportMetric(splitP99/float64(b.N), "split-p99-ms")
}

// --- Core operation benchmarks ---

func BenchmarkUpsert(b *testing.B) {
	spec, _ := workload.ByName("SIFT")
	dim := spec.Dim
	db, err := micronn.Open(filepath.Join(b.TempDir(), "up.mnn"), micronn.Options{Dim: dim})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	v := make([]float32, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v[0] = float32(i)
		if err := db.Upsert(micronn.Item{ID: fmt.Sprintf("u%d", i), Vector: v}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactKNN(b *testing.B) {
	db, ds := sharedSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := ds.Queries.Row(i % ds.Queries.Rows)
		if _, err := db.Search(micronn.SearchRequest{Vector: q, K: 100, Exact: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistanceKernelBaseline(b *testing.B) {
	// Raw kernel throughput for context: one partition's worth of
	// 128-dim distance computations.
	data := vec.NewMatrix(100, 128)
	q := make([]float32, 128)
	out := make([]float32, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec.DistancesOneToMany(vec.L2, q, data, nil, out)
	}
}

// --- Quantization: SQ8/SQ4 scans + exact rerank vs float32 ---

// The quant benchmarks get their own dataset, a bit larger than the shared
// one and probed deeper, so the partition scan (the thing the codes shrink)
// dominates the per-query bytes rather than the constant-size rerank fetch.
const (
	quantScale  = 0.005
	quantNProbe = 40
)

var (
	quantOnce sync.Once
	quantDS   *workload.Dataset
	quantGT   [][]topk.Result
	quantDBs  map[micronn.Quantization]*micronn.DB
	quantErr  error
)

// quantSetup builds three twins of one dataset — float32, SQ8 and
// bit-packed SQ4 — and the exact top-10 ground truth for every query. Both
// quantized twins run RerankFactor 10: 16-level codes rank candidates more
// coarsely than 256-level ones, and this is the operating point at which
// SQ4's recall lands within a point of SQ8's, so the byte comparison below
// holds recall fixed rather than trading it away.
func quantSetup(b *testing.B, q micronn.Quantization) (*micronn.DB, *workload.Dataset, [][]topk.Result) {
	b.Helper()
	quantOnce.Do(func() {
		spec, err := workload.ByName("SIFT")
		if err != nil {
			quantErr = err
			return
		}
		spec = spec.Scaled(quantScale)
		quantDS = spec.Generate()
		quantGT = workload.GroundTruth(spec.Metric, quantDS.Train, quantDS.Queries, 10)
		dir, err := os.MkdirTemp("", "micronn-bench-quant-*")
		if err != nil {
			quantErr = err
			return
		}
		quantDBs = make(map[micronn.Quantization]*micronn.DB)
		for _, v := range []struct {
			name string
			opts micronn.Options
		}{
			{"float32", micronn.Options{}},
			{"sq8", micronn.Options{Quantization: micronn.QuantSQ8, RerankFactor: 10}},
			{"sq4", micronn.Options{Quantization: micronn.QuantSQ4, RerankFactor: 10}},
		} {
			opts := v.opts
			opts.Dim, opts.Metric, opts.Seed = spec.Dim, spec.Metric, spec.Seed
			db, err := buildBenchDB(filepath.Join(dir, v.name+".mnn"), quantDS, opts)
			if err != nil {
				quantErr = err
				return
			}
			quantDBs[opts.Quantization] = db
		}
	})
	if quantErr != nil {
		b.Fatal(quantErr)
	}
	return quantDBs[q], quantDS, quantGT
}

// benchScanBytes runs the warm-cache search workload on one quant twin and
// reports scanned bytes per op and recall@10, so the variants stay provably
// identical apart from the database they hit. K is 10 (not Fig4's 100): at
// the smoke-test dataset scale, K=100 would make the rerank fetch
// (RerankFactor*K exact rows) rival the whole collection and measure that
// degenerate regime instead of the scan.
func benchScanBytes(b *testing.B, q micronn.Quantization) {
	db, ds, gt := quantSetup(b, q)
	for i := 0; i < 8; i++ {
		if _, err := db.Search(micronn.SearchRequest{Vector: ds.Queries.Row(i), K: 10, NProbe: quantNProbe}); err != nil {
			b.Fatal(err)
		}
	}
	var bytesScanned int64
	var recall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qi := i % ds.Queries.Rows
		resp, err := db.Search(micronn.SearchRequest{Vector: ds.Queries.Row(qi), K: 10, NProbe: quantNProbe})
		if err != nil {
			b.Fatal(err)
		}
		bytesScanned += resp.Plan.BytesScanned
		ids := make([]string, len(resp.Results))
		for j, r := range resp.Results {
			ids[j] = r.ID
		}
		recall += workload.RecallByID(ids, gt[qi])
	}
	b.ReportMetric(float64(bytesScanned)/float64(b.N), "scan-bytes/op")
	b.ReportMetric(recall/float64(b.N), "recall@10")
}

// BenchmarkQuantSQ8Search runs the scan-bytes workload on the SQ8 index:
// partition scans read one-byte codes and rerank the top candidates against
// exact vectors.
func BenchmarkQuantSQ8Search(b *testing.B) { benchScanBytes(b, micronn.QuantSQ8) }

// BenchmarkQuantSQ4Search is the same workload on the bit-packed SQ4 index
// — two dimensions per code byte, so partition scans read about half the
// bytes of the SQ8 run at matching recall.
func BenchmarkQuantSQ4Search(b *testing.B) { benchScanBytes(b, micronn.QuantSQ4) }

// BenchmarkQuantFloat32Search is the same workload on the float32 baseline,
// for direct comparison with the quantized runs.
func BenchmarkQuantFloat32Search(b *testing.B) { benchScanBytes(b, micronn.QuantNone) }

// --- Incremental maintenance ---

// BenchmarkMaintenanceEpoch is one epoch of the streaming-update loop:
// insert a batch, run incremental maintenance (flush + splits/merges, never
// a full rebuild on a built index), then measure search latency and
// recall@10 on the maintained index. It reports search-p99-ms, recall@10
// and the per-epoch maintenance row writes.
func BenchmarkMaintenanceEpoch(b *testing.B) {
	spec, err := workload.ByName("InternalA")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	db, err := buildBenchDB(filepath.Join(b.TempDir(), "maint.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	epoch := ds.Train.Rows / 10
	if epoch < 10 {
		epoch = 10
	}
	const measured = 32
	var rowChanges, rebuilds int64
	var p99Sum, recallSum float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		items := make([]micronn.Item, epoch)
		for j := range items {
			items[j] = micronn.Item{ID: fmt.Sprintf("m-%d-%d", i, j), Vector: ds.Train.Row((i*epoch + j) % ds.Train.Rows)}
		}
		if err := db.UpsertBatch(items); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rep, err := db.Maintain()
		if err != nil {
			b.Fatal(err)
		}
		rowChanges += rep.RowChanges
		rebuilds += int64(rep.Rebuilds)

		b.StopTimer()
		durs := make([]float64, 0, measured)
		var recall float64
		for q := 0; q < measured; q++ {
			qv := ds.Queries.Row(q % ds.Queries.Rows)
			start := time.Now()
			resp, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, NProbe: 8})
			if err != nil {
				b.Fatal(err)
			}
			durs = append(durs, float64(time.Since(start).Nanoseconds())/1e6)
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
		sort.Float64s(durs)
		p99Sum += durs[len(durs)*99/100]
		recallSum += recall / measured
		b.StartTimer()
	}
	if rebuilds != 0 {
		b.Fatalf("built index full-rebuilt %d times during maintenance", rebuilds)
	}
	b.ReportMetric(p99Sum/float64(b.N), "search-p99-ms")
	b.ReportMetric(recallSum/float64(b.N), "recall@10")
	b.ReportMetric(float64(rowChanges)/float64(b.N), "row-changes/op")
}

// --- Sharding ---

// benchShardedSearch measures search tail latency under a sustained upsert
// stream at a given shard count (0 = the single-store baseline): a writer
// goroutine streams batches with auto-maintain running while the measured
// loop times queries and sums scanned bytes; recall@10 is then measured
// against exact search on the quiesced final state (measuring it mid-storm
// would compare against a moving ground truth). It reports, per variant,
// search-p99-ms, recall@10 and scan-bytes/op.
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
	var p99Sum float64
	var bytesScanned int64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		durs := make([]float64, 0, measured)
		for q := 0; q < measured; q++ {
			qv := ds.Queries.Row(q % ds.Queries.Rows)
			start := time.Now()
			resp, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, NProbe: 8})
			if err != nil {
				b.Fatal(err)
			}
			durs = append(durs, float64(time.Since(start).Nanoseconds())/1e6)
			bytesScanned += resp.Plan.BytesScanned
		}
		sort.Float64s(durs)
		p99Sum += durs[len(durs)*99/100]
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

	// Recall on the quiesced final state: approximate and exact search now
	// see the same collection.
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
	b.ReportMetric(p99Sum/float64(b.N), "search-p99-ms")
	b.ReportMetric(recall/measured, "recall@10")
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
	b.ReportMetric(hotP50Sum/float64(b.N), "hot-p50-ms")
	b.ReportMetric(coldP50Sum/float64(b.N), "cold-p50-ms")
	b.ReportMetric(recall/measured, "recall@10")
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
// search p99, recall@10 and scanned bytes. Recall parity with the single
// store is asserted by TestShardedEquivalence.
func BenchmarkShardedSearch(b *testing.B) {
	b.Run("single", func(b *testing.B) { benchShardedSearch(b, 0) })
	b.Run("shards=1", func(b *testing.B) { benchShardedSearch(b, 1) })
	b.Run("shards=2", func(b *testing.B) { benchShardedSearch(b, 2) })
	b.Run("shards=4", func(b *testing.B) { benchShardedSearch(b, 4) })
}

// --- Result cache ---

// BenchmarkCachedSearch drives a Zipfian repeated-query stream (the
// type-ahead / repeated-RAG shape the result cache targets) through one
// database twice — cache bypassed, then cache on — and reports both p50s
// (cached should sit well below uncached: a hit replays the scan's own
// results), the hit ratio and recall@10. Interleaved upserts keep ~1 in 30
// lookups honestly invalidated, so the hit ratio reported is earned under
// updates, not on a frozen store. The read-only hit ratio is asserted by
// TestResultCacheZipfHitRatio, byte-identity by TestCacheStalenessOracle.
func BenchmarkCachedSearch(b *testing.B) {
	spec, err := workload.ByName("SIFT")
	if err != nil {
		b.Fatal(err)
	}
	spec = spec.Scaled(benchScale)
	ds := spec.Generate()
	db, err := buildBenchDB(filepath.Join(b.TempDir(), "cache.mnn"), ds, micronn.Options{
		Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed,
		ResultCache: micronn.ResultCacheOptions{Enabled: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()

	const streamLen = 96
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.3, 2, uint64(min(ds.Queries.Rows, 24)-1))
	stream := make([]int, streamLen)
	for i := range stream {
		stream[i] = int(zipf.Uint64())
	}

	runStream := func(noCache bool, iter int) []float64 {
		durs := make([]float64, 0, streamLen)
		for i, qi := range stream {
			if i%30 == 29 {
				// A small upsert batch moves the generation: cached runs
				// must revalidate, exactly like production streams.
				items := []micronn.Item{{
					ID:     fmt.Sprintf("c-%d-%d-%v", iter, i, noCache),
					Vector: ds.Train.Row((iter*streamLen + i) % ds.Train.Rows),
				}}
				if err := db.UpsertBatch(items); err != nil {
					b.Fatal(err)
				}
			}
			start := time.Now()
			if _, err := db.Search(micronn.SearchRequest{
				Vector: ds.Queries.Row(qi), K: 10, NProbe: 8, NoCache: noCache,
			}); err != nil {
				b.Fatal(err)
			}
			durs = append(durs, float64(time.Since(start).Nanoseconds())/1e6)
		}
		sort.Float64s(durs)
		return durs
	}

	var cachedP50Sum, uncachedP50Sum float64
	statsBefore := db.ResultCacheStats()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		un := runStream(true, 2*n)
		uncachedP50Sum += un[len(un)/2]
		ca := runStream(false, 2*n+1)
		cachedP50Sum += ca[len(ca)/2]
	}
	b.StopTimer()
	statsAfter := db.ResultCacheStats()
	lookups := (statsAfter.Hits - statsBefore.Hits) +
		(statsAfter.Misses - statsBefore.Misses) +
		(statsAfter.Invalidations - statsBefore.Invalidations)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(statsAfter.Hits-statsBefore.Hits) / float64(lookups)
	}

	// Recall@10 through the cache on the quiesced state (byte-identical to
	// the uncached path by the staleness-oracle contract, so one number
	// stands for both).
	const measured = 24
	var recall float64
	for q := 0; q < measured; q++ {
		qv := ds.Queries.Row(q % ds.Queries.Rows)
		resp, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, NProbe: 8})
		if err != nil {
			b.Fatal(err)
		}
		exact, err := db.Search(micronn.SearchRequest{Vector: qv, K: 10, Exact: true, NoCache: true})
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
	b.ReportMetric(cachedP50Sum/float64(b.N), "cached-p50-ms")
	b.ReportMetric(uncachedP50Sum/float64(b.N), "uncached-p50-ms")
	b.ReportMetric(hitRatio, "hit-ratio")
	b.ReportMetric(recall/measured, "recall@10")
}

// BenchmarkGroupCommitIngest measures the write path: single-writer vs
// 8-writer group-committed insert throughput, the average group size, then
// the search tail idle vs during a saturating insert storm absorbed by the
// delta store. On multi-core hosts the 8-writer rate should clear the
// single-writer rate (writers amortize the writer gate and WAL commit);
// storm-p99-ms should stay near idle-p99-ms at unchanged recall@10.
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
	pctMs := func(durs []time.Duration, pct int) float64 {
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return float64(durs[len(durs)*pct/100]) / 1e6
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

	var singleRate, groupedRate, avgGroup, idleP99, stormP99, recall, writeAmp float64
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
		idleP99 += pctMs(idle, 99)
		stormP99 += pctMs(storm, 99)

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
		const measured = 15
		var r float64
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
			for _, res := range exact.Results {
				want[res.ID] = true
			}
			hits := 0
			for _, res := range resp.Results {
				if want[res.ID] {
					hits++
				}
			}
			if len(exact.Results) > 0 {
				r += float64(hits) / float64(len(exact.Results))
			}
		}
		recall += r / measured
		db.Close()
	}
	b.ReportMetric(singleRate/float64(b.N), "single-inserts/s")
	b.ReportMetric(groupedRate/float64(b.N), "grouped-inserts/s")
	b.ReportMetric(groupedRate/singleRate, "grouped-speedup-x")
	b.ReportMetric(avgGroup/float64(b.N), "avg-group-size")
	b.ReportMetric(idleP99/float64(b.N), "idle-p99-ms")
	b.ReportMetric(stormP99/float64(b.N), "storm-p99-ms")
	b.ReportMetric(recall/float64(b.N), "recall@10")
	b.ReportMetric(writeAmp/float64(b.N), "write-amp-rows/row")
}

// --- Hybrid search: BM25 lexical leg fused with the vector leg ---

// BenchmarkHybridSearch times the fused query path on a tagged corpus,
// alongside the pure vector leg on the same store for the overhead
// comparison. Fused recall against the single legs is asserted by
// TestHybridFusedRecallBeatsSingleLegs.
func BenchmarkHybridSearch(b *testing.B) {
	fd := workload.GenerateFiltered(workload.FilteredSpec{
		Dim: 48, NumVectors: 4000, NumQueries: 64, Seed: 21,
	})
	db, err := micronn.Open(filepath.Join(b.TempDir(), "hybrid.mnn"), micronn.Options{
		Dim: 48, Metric: micronn.Cosine, Seed: 21,
		Attributes: []micronn.AttributeDef{{Name: "tags", Type: micronn.AttrText, FullText: true}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	items := make([]micronn.Item, 0, 1000)
	for i := 0; i < 4000; i++ {
		items = append(items, micronn.Item{
			ID:         workload.AssetID(i),
			Vector:     fd.Train.Row(i),
			Attributes: map[string]any{"tags": fd.Tags[i]},
		})
		if len(items) == 1000 || i == 3999 {
			if err := db.UpsertBatch(items); err != nil {
				b.Fatal(err)
			}
			items = items[:0]
		}
	}
	if _, err := db.Rebuild(); err != nil {
		b.Fatal(err)
	}
	b.Run("vector-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qi := i % 64
			_, err := db.HybridSearch(micronn.HybridRequest{
				Vector: fd.Queries.Row(qi), K: 10, NProbe: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			qi := i % 64
			_, err := db.HybridSearch(micronn.HybridRequest{
				Vector: fd.Queries.Row(qi), Text: fd.QueryTags[qi], K: 10, NProbe: 16,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
