package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"micronn"
	"micronn/internal/workload"
)

// tinyConfig keeps runner smoke tests fast: floor-sized datasets, few
// queries.
func tinyConfig(t *testing.T, out *bytes.Buffer) Config {
	t.Helper()
	return Config{
		Out:         out,
		Dir:         t.TempDir(),
		Scale:       0.0005,
		Datasets:    []string{"MNIST"},
		K:           10,
		QuerySample: 5,
	}
}

func TestTable1PrintsMicroNNRow(t *testing.T) {
	var out bytes.Buffer
	if err := Table1(tinyConfig(t, &out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "MicroNN") || !strings.Contains(s, "Batch queries") {
		t.Errorf("table 1 output missing rows:\n%s", s)
	}
}

func TestTable2ListsAllDatasets(t *testing.T) {
	var out bytes.Buffer
	if err := Table2(tinyConfig(t, &out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, name := range []string{"SIFT", "MNIST", "GIST", "DEEPImage", "InternalA", "GLOVE", "NYTIMES"} {
		if !strings.Contains(s, name) {
			t.Errorf("table 2 missing %s", name)
		}
	}
}

func TestLookupAndRegistry(t *testing.T) {
	for _, e := range Experiments {
		got, err := Lookup(e.Name)
		if err != nil || got.Name != e.Name {
			t.Errorf("Lookup(%s) = %v, %v", e.Name, got.Name, err)
		}
	}
	if e, err := Lookup("fig5"); err != nil || e.Name != "fig4" {
		t.Errorf("alias fig5 -> %v, %v", e.Name, err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("Lookup(nope) should fail")
	}
}

func TestEndToEndRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	if err := EndToEnd(tinyConfig(t, &out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "WarmCache") || !strings.Contains(s, "MNIST") {
		t.Errorf("unexpected fig4 output:\n%s", s)
	}
}

func TestBatchMQORunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	if err := BatchMQO(tinyConfig(t, &out)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Amortized") {
		t.Errorf("unexpected fig9 output:\n%s", out.String())
	}
}

func TestFindNProbeReachesTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment helper")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.fill()
	spec, err := workload.ByName("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.prepare(spec)
	db, err := cfg.buildDB(p, micronn.DeviceSmall, "nprobe-test")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	nprobe, recall, err := cfg.findNProbe(db, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if recall < cfg.TargetRecall && nprobe < int(st.NumPartitions) {
		t.Errorf("nprobe=%d recall=%v below target without exhausting partitions", nprobe, recall)
	}
	if recall <= 0 || recall > 1 {
		t.Errorf("recall = %v", recall)
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s.n != 0 {
		t.Errorf("empty summarize n = %d", s.n)
	}
	durs := []time.Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	s := summarize(durs)
	if s.n != 3 || s.mean != 3*time.Millisecond || s.p50 != 3*time.Millisecond {
		t.Errorf("summarize = %+v", s)
	}
	if s.stddev <= 0 {
		t.Errorf("stddev = %v", s.stddev)
	}
}

func TestQuantizationRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	if err := Quantization(tinyConfig(t, &out)); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "float32") || !strings.Contains(s, "sq8") {
		t.Errorf("unexpected quant output:\n%s", s)
	}
}

// TestMaintenanceRunnerSmoke runs the maintenance scenario at tiny scale
// and asserts the acceptance criteria it prints: sustained upserts under
// auto-maintain never full-rebuild a built index, and final partition sizes
// stay within the policy bounds.
func TestMaintenanceRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.Scale = 0.002 // enough stream volume to force splits
	if err := Maintenance(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "auto-maintain") || !strings.Contains(s, "rebuild-only") {
		t.Errorf("missing variants:\n%s", s)
	}
	if strings.Contains(s, "VIOLATION") {
		t.Errorf("maintenance scenario reported a violation:\n%s", s)
	}
}

// TestConcurrencyRunnerSmoke runs the concurrency scenario at tiny scale
// and asserts the acceptance criteria it prints: the measured window
// overlaps real splits and recall@10 holds steady (the p99 criterion is
// judged only on hosts with enough cores that the k-means split work does
// not starve the searcher of CPU time).
func TestConcurrencyRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.Scale = 0.002 // enough stream volume to force splits
	if err := Concurrency(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"idle", "during-splits", "splits"} {
		if !strings.Contains(s, want) {
			t.Errorf("concurrency output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "VIOLATION") {
		t.Errorf("concurrency scenario reported a violation:\n%s", s)
	}
}

// TestShardsRunnerSmoke runs the sharding scenario at tiny scale and
// asserts the acceptance criteria it prints: recall@10 parity within 1
// point of the single store at every shard count (the 4-shard p99 is a
// reported NOTE, not a verdict).
func TestShardsRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.Scale = 0.002
	cfg.QuerySample = 10
	if err := Shards(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"single-store", "1-shard", "2-shard", "4-shard", "8-shard"} {
		if !strings.Contains(s, want) {
			t.Errorf("shards output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "VIOLATION") {
		t.Errorf("shards scenario reported a violation:\n%s", s)
	}
}

// TestBackendsRunnerSmoke runs the backends scenario and asserts the
// acceptance criteria it prints: recall parity across engines and
// read-mmap at least matching the file backend on hot p50.
func TestBackendsRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.QuerySample = 15
	if err := Backends(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"file", "memory", "Hot p50"} {
		if !strings.Contains(s, want) {
			t.Errorf("backends output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "VIOLATION") {
		t.Errorf("backends scenario reported a violation:\n%s", s)
	}
}

// TestWriteStormRunnerSmoke runs the write-storm scenario at tiny scale
// and asserts the acceptance criteria it prints: the committer actually
// grouped concurrent writers, recall@10 holds through the storms, and (on
// hosts with at least four cores) storm-window p99 meets its bound. The
// grouped-to-single-writer throughput ratio is a reported NOTE.
func TestWriteStormRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.Scale = 0.002
	if err := WriteStorm(cfg); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"single-writer", "ungrouped", "grouped", "10x storm", "100x storm"} {
		if !strings.Contains(s, want) {
			t.Errorf("write-storm output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "VIOLATION") {
		t.Errorf("write-storm scenario reported a violation:\n%s", s)
	}
}

// TestQuantizationScanBytesReduction asserts the acceptance criterion at
// the bench layer: on the same dataset and probe settings, SQ8 scans at
// least 2x fewer bytes than float32 while keeping recall@K within 95% of
// the baseline.
func TestQuantizationScanBytesReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runner")
	}
	var out bytes.Buffer
	cfg := tinyConfig(t, &out)
	cfg.QuerySample = 10
	cfg.fill()
	spec, err := workload.ByName("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.prepare(spec)

	type measured struct {
		recall   float64
		bytesPer float64
	}
	run := func(q micronn.Quantization, name string) measured {
		db, err := cfg.buildDBOpts(p, micronn.DeviceLarge, name, func(o *micronn.Options) {
			o.Quantization = q
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		recall, _, bytesPer, _, err := cfg.measureQuant(db, p)
		if err != nil {
			t.Fatal(err)
		}
		return measured{recall, bytesPer}
	}
	f32 := run(micronn.QuantNone, "bytes-f32")
	sq8 := run(micronn.QuantSQ8, "bytes-sq8")
	t.Logf("float32: recall=%.4f bytes/q=%.0f; sq8: recall=%.4f bytes/q=%.0f (%.2fx)",
		f32.recall, f32.bytesPer, sq8.recall, sq8.bytesPer, f32.bytesPer/sq8.bytesPer)
	if sq8.bytesPer*2 > f32.bytesPer {
		t.Errorf("sq8 scanned %.0f bytes/query, not a 2x reduction over %.0f", sq8.bytesPer, f32.bytesPer)
	}
	if sq8.recall < 0.95*f32.recall {
		t.Errorf("sq8 recall %.4f below 95%% of float32 %.4f", sq8.recall, f32.recall)
	}
}
