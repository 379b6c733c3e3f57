// Command micronn is a small CLI for inspecting and exercising MicroNN
// databases: create an index, load random or CSV vectors, search, and show
// stats. It is a demonstration tool; the library API (package micronn) is
// the product.
//
// Usage:
//
//	micronn -db photos.mnn create -dim 128 -metric L2
//	micronn -db photos.mnn load -n 10000
//	micronn -db photos.mnn rebuild
//	micronn -db photos.mnn search -id v00000042 -k 10
//	micronn -db photos.mnn stats
//
// With create -shards N the path becomes a sharded database directory (one
// independent store per shard plus a topology manifest); every other
// command detects the manifest and routes through the sharded API
// automatically.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"micronn"
	"micronn/internal/storage"
	"micronn/internal/workload"
)

// Exit codes. Each typed library error maps to its own code so scripts can
// branch on the failure class without parsing stderr.
const (
	exitErr         = 1 // untyped failure
	exitUsage       = 2 // bad command line
	exitNotFound    = 3 // micronn.ErrNotFound
	exitBadRequest  = 4 // micronn.ErrBadRequest
	exitDimMismatch = 5 // micronn.ErrDimMismatch
	exitClosed      = 6 // micronn.ErrClosed
	exitFormat      = 7 // micronn.ErrUnsupportedFormat
)

// exitCode translates a command error into the process exit code.
func exitCode(err error) int {
	switch {
	case errors.Is(err, micronn.ErrNotFound):
		return exitNotFound
	case errors.Is(err, micronn.ErrBadRequest):
		return exitBadRequest
	case errors.Is(err, micronn.ErrDimMismatch):
		return exitDimMismatch
	case errors.Is(err, micronn.ErrClosed):
		return exitClosed
	case errors.Is(err, micronn.ErrUnsupportedFormat):
		return exitFormat
	}
	return exitErr
}

// openDB opens path as a sharded database when it is a directory carrying a
// topology manifest, and as a single-store database otherwise.
func openDB(path string, opts micronn.Options) (micronn.Store, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		if _, ok, err := storage.ReadManifest(path); err != nil {
			return nil, err
		} else if ok {
			return micronn.OpenSharded(path, opts)
		}
	}
	return micronn.Open(path, opts)
}

func main() {
	db := flag.String("db", "micronn.mnn", "database path")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(exitUsage)
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "create":
		err = cmdCreate(*db, rest)
	case "load":
		err = cmdLoad(*db, rest)
	case "rebuild":
		err = cmdRebuild(*db)
	case "flush":
		err = cmdFlush(*db)
	case "maintain":
		err = cmdMaintain(*db, rest)
	case "search":
		err = cmdSearch(*db, rest)
	case "stats":
		err = cmdStats(*db)
	case "delete":
		err = cmdDelete(*db, rest)
	default:
		usage()
		os.Exit(exitUsage)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "micronn:", err)
		os.Exit(exitCode(err))
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: micronn -db <path> <command> [flags]

commands:
  create  -dim N [-metric L2|cosine|dot] [-partition-size N]
          [-quant none|sq8|sq4] [-clip P] [-shards N] [-backend file|mmap|memory]
  load    [-n N] [-seed N]          load N random vectors (ids vNNNNNNNN)
  rebuild                           full index rebuild
  flush                             incremental delta flush
  maintain [-flush-threshold N] [-min N] [-max N] [-watch D]
                                    incremental maintenance: flush the delta,
                                    split/merge partitions outside [min, max];
                                    -watch repeats every interval (e.g. 5s)
  search  -id <asset> | -vec "f,f,..."  [-k N] [-nprobe N] [-exact] [-rerank N]
          [-repeat N] [-no-cache]       -repeat re-runs the query (repeats hit
                                        the result cache; -no-cache bypasses it)
          [-text "query"] [-text-col C] [-fusion K]
                                        -text adds a BM25 lexical leg fused
                                        with the vector leg by reciprocal-rank
                                        fusion (constant K, default 60);
                                        -text-col picks the full-text attribute
  delete  -id <asset>
  stats

exit codes: 1 error, 2 usage, 3 not found, 4 bad request, 5 dimension
mismatch, 6 database closed, 7 unsupported store format`)
}

func cmdCreate(path string, args []string) error {
	fs := flag.NewFlagSet("create", flag.ExitOnError)
	dim := fs.Int("dim", 0, "vector dimensionality (required)")
	metric := fs.String("metric", "L2", "distance metric: L2, cosine, dot")
	partSize := fs.Int("partition-size", 100, "target IVF partition size")
	quantName := fs.String("quant", "none", "partition-scan quantization: none, sq8, sq4")
	clip := fs.Float64("clip", 0, "codebook quantile clip percentile (0 = scheme default; sq4 defaults to 0.005)")
	shards := fs.Int("shards", 0, "hash-partition across N independent stores (path becomes a directory)")
	backendName := fs.String("backend", "", "page-store backend: file (default), mmap, memory; recorded in the store for reopen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dim <= 0 {
		return fmt.Errorf("create: -dim is required")
	}
	var m micronn.Metric
	switch strings.ToLower(*metric) {
	case "l2":
		m = micronn.L2
	case "cosine":
		m = micronn.Cosine
	case "dot":
		m = micronn.Dot
	default:
		return fmt.Errorf("create: unknown metric %q", *metric)
	}
	q, err := micronn.ParseQuantization(strings.ToLower(*quantName))
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	backend, err := micronn.ParseBackend(strings.ToLower(*backendName))
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	if backend == micronn.BackendMemory {
		fmt.Fprintln(os.Stderr, "note: the memory backend is ephemeral; the database vanishes when this command exits")
	}
	opts := micronn.Options{Dim: *dim, Metric: m, TargetPartitionSize: *partSize, Quantization: q, ClipPercentile: *clip, Backend: backend}
	if *shards > 0 {
		opts.Shards = *shards
		sd, err := micronn.OpenSharded(path, opts)
		if err != nil {
			return err
		}
		defer sd.Close()
		st, err := sd.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("created %s (dim=%d, metric=%s, quant=%s, shards=%d, backend=%s)\n", path, *dim, *metric, st.Quantization, *shards, st.Backend)
		return nil
	}
	d, err := micronn.Open(path, opts)
	if err != nil {
		return err
	}
	defer d.Close()
	st, err := d.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("created %s (dim=%d, metric=%s, quant=%s, backend=%s)\n", path, *dim, *metric, st.Quantization, st.Backend)
	return nil
}

func cmdLoad(path string, args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	n := fs.Int("n", 10000, "number of random vectors")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := openDB(path, micronn.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	dim := d.Dim()
	rng := rand.New(rand.NewSource(*seed))
	start := time.Now()
	const chunk = 1000
	items := make([]micronn.Item, 0, chunk)
	for i := 0; i < *n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: v})
		if len(items) == chunk || i == *n-1 {
			if err := d.UpsertBatch(items); err != nil {
				return err
			}
			items = items[:0]
		}
	}
	fmt.Printf("loaded %d vectors in %v\n", *n, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdRebuild(path string) error {
	d, err := openDB(path, micronn.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	rep, err := d.Rebuild()
	if err != nil {
		return err
	}
	fmt.Printf("rebuilt: %d partitions, %d vectors assigned, %d row changes, %v\n",
		rep.Partitions, rep.VectorsAssigned, rep.RowChanges, rep.Duration.Round(time.Millisecond))
	return nil
}

func cmdFlush(path string) error {
	d, err := openDB(path, micronn.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	rep, err := d.FlushDelta()
	if err != nil {
		return err
	}
	fmt.Printf("flushed: %d vectors assigned, %d row changes, %v\n",
		rep.VectorsAssigned, rep.RowChanges, rep.Duration.Round(time.Millisecond))
	return nil
}

func cmdMaintain(path string, args []string) error {
	fs := flag.NewFlagSet("maintain", flag.ExitOnError)
	flush := fs.Int("flush-threshold", 0, "flush the delta at this size (0 = partition target)")
	min := fs.Int("min", 0, "merge partitions smaller than this (0 = target/4)")
	max := fs.Int("max", 0, "split partitions larger than this (0 = 2*target)")
	watch := fs.Duration("watch", 0, "repeat maintenance on this interval until interrupted")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := openDB(path, micronn.Options{
		FlushThreshold:   *flush,
		MinPartitionSize: *min,
		MaxPartitionSize: *max,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	for {
		rep, err := d.Maintain()
		if err != nil {
			return err
		}
		st, err := d.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("maintain: %s (%d steps: %d flush, %d split, %d merge, %d rebuild), %d rows changed, %v; %d partitions sized [%d, %d]\n",
			rep.Action, rep.Steps, rep.Flushes, rep.Splits, rep.Merges, rep.Rebuilds,
			rep.RowChanges, rep.Duration.Round(time.Millisecond),
			st.NumPartitions, st.SmallestPartition, st.LargestPartition)
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
	}
}

func cmdSearch(path string, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	id := fs.String("id", "", "search near the vector of this asset id")
	vecStr := fs.String("vec", "", "comma-separated query vector")
	k := fs.Int("k", 10, "result count")
	nprobe := fs.Int("nprobe", 8, "partitions to scan")
	exact := fs.Bool("exact", false, "exhaustive KNN")
	rerank := fs.Int("rerank", 0, "quantized-search rerank multiplier (0 = default)")
	repeat := fs.Int("repeat", 1, "run the query N times (repeats are served by the result cache)")
	noCache := fs.Bool("no-cache", false, "bypass the result cache (every run scans the store)")
	text := fs.String("text", "", "lexical query: fuse a BM25 full-text leg with the vector leg")
	textCol := fs.String("text-col", "", "full-text attribute for -text (default: the store's only one)")
	fusion := fs.Int("fusion", 0, "reciprocal-rank fusion constant (0 = default 60)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := openDB(path, micronn.Options{ResultCache: micronn.ResultCacheOptions{Enabled: true}})
	if err != nil {
		return err
	}
	defer d.Close()

	var q []float32
	switch {
	case *id != "":
		item, err := d.Get(*id)
		if err != nil {
			return err
		}
		q = item.Vector
	case *vecStr != "":
		for _, f := range strings.Split(*vecStr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 32)
			if err != nil {
				return fmt.Errorf("search: bad vector component %q", f)
			}
			q = append(q, float32(v))
		}
	default:
		return fmt.Errorf("search: -id or -vec required")
	}

	if *repeat < 1 {
		*repeat = 1
	}
	var plan micronn.PlanInfo
	var nResults int
	var elapsed, firstRun time.Duration
	if *text != "" {
		req := micronn.HybridRequest{Vector: q, Text: *text, TextCol: *textCol, FusionK: *fusion,
			K: *k, NProbe: *nprobe, Exact: *exact, RerankFactor: *rerank, NoCache: *noCache}
		var resp *micronn.HybridResponse
		for run := 0; run < *repeat; run++ {
			start := time.Now()
			resp, err = d.HybridSearch(req)
			if err != nil {
				return err
			}
			elapsed = time.Since(start)
			if run == 0 {
				firstRun = elapsed
			}
		}
		for i, r := range resp.Results {
			fmt.Printf("%2d. %-16s score %.6f  dist %.6f  bm25 %.4f  (v#%d t#%d)\n",
				i+1, r.ID, r.Score, r.Distance, r.TextScore, r.VectorRank, r.TextRank)
		}
		plan, nResults = resp.Plan, len(resp.Results)
	} else {
		req := micronn.SearchRequest{Vector: q, K: *k, NProbe: *nprobe, Exact: *exact, RerankFactor: *rerank, NoCache: *noCache}
		var resp *micronn.SearchResponse
		for run := 0; run < *repeat; run++ {
			start := time.Now()
			resp, err = d.Search(req)
			if err != nil {
				return err
			}
			elapsed = time.Since(start)
			if run == 0 {
				firstRun = elapsed
			}
		}
		for i, r := range resp.Results {
			fmt.Printf("%2d. %-16s %.6f\n", i+1, r.ID, r.Distance)
		}
		plan, nResults = resp.Plan, len(resp.Results)
	}
	fmt.Printf("(%d results in %v, %d partitions, %d vectors scanned, %d KiB read, %d reranked)\n",
		nResults, elapsed.Round(time.Microsecond),
		plan.PartitionsScanned, plan.VectorsScanned,
		plan.BytesScanned/1024, plan.Reranked)
	if *repeat > 1 {
		st, err := d.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("(%d runs: first %v, last %v; cache %d hits / %d misses)\n",
			*repeat, firstRun.Round(time.Microsecond), elapsed.Round(time.Microsecond),
			st.Cache.Hits, st.Cache.Misses)
	}
	return nil
}

func cmdDelete(path string, args []string) error {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	id := fs.String("id", "", "asset id to delete")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("delete: -id required")
	}
	d, err := openDB(path, micronn.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Delete(*id); err != nil {
		return err
	}
	fmt.Printf("deleted %s\n", *id)
	return nil
}

func cmdStats(path string) error {
	d, err := openDB(path, micronn.Options{})
	if err != nil {
		return err
	}
	defer d.Close()
	// On a sharded database collect the per-shard stats once and aggregate
	// locally, so the totals and the breakdown describe the same pass.
	var st micronn.Stats
	var perShard []micronn.Stats
	sd, sharded := d.(*micronn.ShardedDB)
	if sharded {
		if perShard, err = sd.ShardStats(); err != nil {
			return err
		}
		st = micronn.AggregateStats(perShard)
		// The result cache lives at the router, not in any shard.
		st.Cache = sd.ResultCacheStats()
	} else if st, err = d.Stats(); err != nil {
		return err
	}
	fmt.Printf("vectors:          %d\n", st.NumVectors)
	fmt.Printf("delta-store:      %d\n", st.DeltaCount)
	fmt.Printf("partitions:       %d (avg size %.1f)\n", st.NumPartitions, st.AvgPartitionSize)
	fmt.Printf("backend:          %s\n", st.Backend)
	if st.Quantization == micronn.QuantNone {
		fmt.Printf("quantization:     none\n")
	} else if st.ClipPercentile > 0 {
		fmt.Printf("quantization:     %s (clip percentile %g)\n", st.Quantization, st.ClipPercentile)
	} else {
		fmt.Printf("quantization:     %s\n", st.Quantization)
	}
	if st.Quantization != micronn.QuantNone {
		if st.ResidualRows > 0 {
			fmt.Printf("codebook drift:   mean residual %.4g over %d vectors encoded since training\n",
				st.ResidualSum/float64(st.ResidualRows), st.ResidualRows)
		} else {
			fmt.Printf("codebook drift:   no vectors encoded since training\n")
		}
	}
	hitRatio := 0.0
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		hitRatio = 100 * float64(st.CacheHits) / float64(total)
	}
	fmt.Printf("page cache:       %.1f / %.1f MiB (hit ratio %.1f%%: %d hits, %d misses, %d evictions)\n",
		float64(st.CacheBytes)/(1<<20), float64(st.CacheBudget)/(1<<20),
		hitRatio, st.CacheHits, st.CacheMisses, st.CacheEvictions)
	if c := st.Cache; c.Enabled {
		fmt.Printf("result cache:     %d entries, %.1f KiB (hit ratio %.1f%%: %d hits, %d misses, %d invalidations, %d evictions, %d shard scans skipped)\n",
			c.Entries, float64(c.Bytes)/(1<<10), 100*c.HitRatio(),
			c.Hits, c.Misses, c.Invalidations, c.Evictions, c.SkippedShardScans)
	} else {
		fmt.Printf("result cache:     disabled\n")
	}
	if m := st.Maintenance; m.Passes > 0 {
		fmt.Printf("maintenance:      %d passes (%d flush, %d split, %d merge, %d rebuild), %d stale retries, %d errors, %d row changes\n",
			m.Passes, m.Flushes, m.Splits, m.Merges, m.Rebuilds, m.StaleRetries, m.Errors, m.RowChanges)
	}
	fmt.Printf("writer gate:      %d waits (%.1f ms total)\n",
		st.GateWaits, float64(st.GateWaitNs)/1e6)
	fmt.Printf("file size:        %.1f MiB (%.1f MiB free, WAL %.1f MiB)\n",
		float64(st.FileBytes)/(1<<20), float64(st.FreeBytes)/(1<<20), float64(st.WALBytes)/(1<<20))
	if sharded {
		fmt.Printf("shards:           %d (hash seed %d)\n", sd.Shards(), sd.Manifest().HashSeed)
		for i, s := range perShard {
			fmt.Printf("  shard %03d:      %d vectors (%d delta), %d partitions, %.1f MiB\n",
				i, s.NumVectors, s.DeltaCount, s.NumPartitions, float64(s.FileBytes)/(1<<20))
		}
	}
	return nil
}
