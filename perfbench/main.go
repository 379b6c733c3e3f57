// Command perfbench is MicroNN's repository benchmark: three seeded
// workloads driven through the public micronn API by one closed-loop client,
// with every response checked. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"micronn"
)

const dim = 128

// endToEndMetrics and perLayerNames are the metric sets BENCHMARK.json
// declares; every run prints all of one set (end-to-end untraced, per-layer
// traced). A per-layer metric a workload does not exercise reads 0.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_cpu_s", "1/s"}, {"search_p50_cpu_ms", "ms"},
	{"recall_at_k", "ratio"}, {"mem_mib", "MiB"}, {"space_amp", "ratio"},
}

var perLayerNames = []string{
	"storage.page_reads_per_query", "storage.pool_hit_ratio", "storage.page_fetch_us",
	"storage.wal_pages_per_write", "storage.commits_per_write",
	"btree.iter_ns_per_row", "reldb.decode_ns_per_row", "reldb.get_us",
	"vec.kernel_ns_per_row", "quant.kernel_ns_per_row",
	"ivf.partitions_per_query", "ivf.vectors_scanned_per_query", "ivf.bytes_scanned_per_query",
	"ivf.useful_ratio", "ivf.reranked_per_query", "ivf.rerank_ms",
	"ivf.prefilter_share", "ivf.rows_filtered_per_query", "ivf.batch_scan_share",
	"ivf.search_ms", "micronn.self_ms", "fts.lexical_ms",
	"ivf.maintain.row_changes_per_write", "ivf.maintain.steps", "ivf.delta_rows",
	"rescache.hit_ratio", "rescache.invalidations_per_write",
	"router.skipped_shard_scans_per_query", "router.self_ms",
	"setup.load_s", "setup.rebuild_s", "setup.checkpoint_s",
	"trace.overhead_ms",
}

var workloads = map[string]func(*bench) error{
	"ann-small-pool": runANN,
	"filtered-sq8":   runFiltered,
	"churn-sharded":  runChurn,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload: its settings, the operation and
// failure counts, and the metrics gathered so far.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for database files
	out     io.Writer

	attempted, failed int
	failures          []string

	recall      float64
	recallFloor float64

	e2e, layer map[string]metric
	tr         *tracer

	// keep holds what the benchmark built before the baseline heap reading
	// (inputs, ground truth, load items) until the run ends, so their
	// release cannot offset the database's footprint in mem_mib.
	keep []any
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: ann-small-pool, filtered-sq8 or churn-sharded")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 adds a traced run and prints per-layer metrics instead of end-to-end ones")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for database files (emptied)")
	tracedir := fs.String("tracedir", filepath.Join(".bench_build", "traces"), "where the traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, dir: dir, out: stdout,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if b.trace {
		b.tr = newTracer()
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  timed %v  trace %v  GOMAXPROCS %d\n",
		b.name, b.seed, b.seconds, b.trace, runtime.GOMAXPROCS(0))
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if b.trace {
		path := filepath.Join(*tracedir, fmt.Sprintf("%s-seed%d.json", b.name, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return b.finish(stdout)
}

// finish prints the failure summary and the one-line JSON result.
func (b *bench) finish(stdout io.Writer) int {
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if b.trace {
		for _, n := range perLayerNames {
			m, ok := b.layer[n]
			if !ok {
				m = metric{0, layerUnit(n)}
			}
			res.Metrics[n] = m
		}
	} else {
		for _, d := range endToEndMetrics {
			m, ok := b.e2e[d.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", b.name, d.name)
				return 1
			}
			res.Metrics[d.name] = m
		}
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "FAILED:", f)
	}
	recallOK := b.recall >= b.recallFloor
	if !recallOK {
		fmt.Fprintf(os.Stderr, "FAILED: recall_at_k %.4f is below the floor %.2f\n", b.recall, b.recallFloor)
	}
	res.Correct = b.failed == 0 && recallOK && b.attempted > 0
	fmt.Fprintf(stdout, "operations %d attempted, %d failed, correct %v\n", b.attempted, b.failed, res.Correct)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// op counts one public call: it fails when the call returned an error or
// its response broke a correctness check (problem != "").
func (b *bench) op(err error, problem string) {
	b.attempted++
	if err == nil && problem == "" {
		return
	}
	b.failed++
	if len(b.failures) < 10 {
		if err != nil {
			problem = err.Error()
		}
		b.failures = append(b.failures, problem)
	}
}

// endToEnd records and prints an end-to-end metric; n is its sample count.
func (b *bench) endToEnd(name string, v float64, n int) {
	for _, d := range endToEndMetrics {
		if d.name == name {
			b.e2e[name] = metric{v, d.unit}
			b.show(name, d.unit, v, n)
			return
		}
	}
	panic("perfbench: undeclared end-to-end metric " + name)
}

// show prints a metric that is reported but not part of the JSON result
// (the workload-specific latencies).
func (b *bench) show(name, unit string, v float64, n int) {
	fmt.Fprintf(b.out, "  %-38s %12.4f %-6s n=%d\n", name, v, unit, n)
}

// perLayer records a per-layer metric; it is printed with the rest of the
// layer report.
func (b *bench) perLayer(name string, v float64) {
	b.layer[name] = metric{v, layerUnit(name)}
}

func (b *bench) printLayers() {
	names := make([]string, 0, len(b.layer))
	for n := range b.layer {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(b.out, "per-layer:")
	for _, n := range names {
		m := b.layer[n]
		fmt.Fprintf(b.out, "  %-38s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ns_per_row"):
		return "ns/row"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	default:
		return "count"
	}
}

// heapMiB returns the live heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// spaceAmp is stored bytes over live vector payload bytes.
func spaceAmp(st micronn.Stats, live int) float64 {
	return float64(st.FileBytes+st.WALBytes) / float64(live*dim*4)
}

// setupReps is how many times each run builds its database from scratch;
// setup_s is the median, so one slow build cannot move it.
const setupReps = 3

// setUp builds the workload's database setupReps times — load, Rebuild,
// Checkpoint, each timed — and returns the last build open together with
// the live heap measured just before it was opened (the mem_mib baseline).
// Input generation and ground truth happen before and are not timed.
// setup_s and the setup.* steps are CPU seconds, as the other bounded
// times are; the wall time is printed beside them.
func (b *bench) setUp(open func(dir string) (micronn.Store, error), items []micronn.Item) (micronn.Store, float64, error) {
	b.keep = append(b.keep, items)
	var load, rebuild, ckpt, total, wall []float64
	var db micronn.Store
	var base float64
	for r := 0; r < setupReps; r++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("db%d", r))
		if r == setupReps-1 {
			base = heapMiB()
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		t0, c0 := time.Now(), cpuTime()
		s, err := open(dir)
		if err != nil {
			return nil, 0, fmt.Errorf("open: %w", err)
		}
		for i := 0; i < len(items); i += loadBatch {
			j := min(i+loadBatch, len(items))
			if err := s.UpsertBatch(items[i:j]); err != nil {
				s.Close()
				return nil, 0, fmt.Errorf("load: %w", err)
			}
		}
		c1 := cpuTime()
		if _, err := s.Rebuild(); err != nil {
			s.Close()
			return nil, 0, fmt.Errorf("rebuild: %w", err)
		}
		c2 := cpuTime()
		if err := s.Checkpoint(); err != nil {
			s.Close()
			return nil, 0, fmt.Errorf("checkpoint: %w", err)
		}
		c3, t3 := cpuTime(), time.Now()
		load = append(load, (c1 - c0).Seconds())
		rebuild = append(rebuild, (c2 - c1).Seconds())
		ckpt = append(ckpt, (c3 - c2).Seconds())
		total = append(total, (c3 - c0).Seconds())
		wall = append(wall, t3.Sub(t0).Seconds())
		if r < setupReps-1 {
			if err := s.Close(); err != nil {
				return nil, 0, fmt.Errorf("close: %w", err)
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
			continue
		}
		db = s
	}
	b.endToEnd("setup_s", median(total), len(total))
	b.show("setup_wall_s", "s", median(wall), len(wall))
	b.perLayer("setup.load_s", median(load))
	b.perLayer("setup.rebuild_s", median(rebuild))
	b.perLayer("setup.checkpoint_s", median(ckpt))
	return db, base, nil
}

// loadBatch is the UpsertBatch size used to load a database.
const loadBatch = 500

// warmCalls is how many calls an untimed warm-up makes: enough to touch
// every partition several times at the workloads' probe counts.
const warmCalls = 400

// timedCalls calls call(i) for i = 0, 1, ..., n-1, 0, 1, ... until budget
// has passed, always completing the first pass over the n inputs; first
// tells call whether that pass is still running. Per-layer counts come from
// the first pass only, so they do not depend on how fast the run went.
// firstDone, when non-nil, runs once right after the first pass.
func timedCalls(budget time.Duration, n int, call func(i int, first bool) error, firstDone func() error) error {
	start := time.Now()
	k := 0
	for ; k < n || time.Since(start) < budget; k++ {
		if k == n && firstDone != nil {
			if err := firstDone(); err != nil {
				return err
			}
		}
		if err := call(k%n, k < n); err != nil {
			return err
		}
	}
	if k == n && firstDone != nil {
		return firstDone()
	}
	return nil
}
