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

// TestLookupAndRegistry pins the registry: exactly the paper's
// reproductions, each runnable, each name and alias resolving to its own
// entry and none shadowing another's.
func TestLookupAndRegistry(t *testing.T) {
	want := []string{"table1", "table2", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "headline",
		"ablation-balance", "ablation-clustering"}
	var names []string
	owner := make(map[string]string) // name or alias -> experiment
	for _, e := range Experiments {
		names = append(names, e.Name)
		if e.Run == nil {
			t.Errorf("experiment %s has no Run", e.Name)
		}
		for _, key := range append([]string{e.Name}, e.Alias...) {
			if prev, dup := owner[key]; dup {
				t.Errorf("%q of experiment %s shadows experiment %s", key, e.Name, prev)
			}
			owner[key] = e.Name
			got, err := Lookup(key)
			if err != nil || got.Name != e.Name {
				t.Errorf("Lookup(%s) = %v, %v; want %s", key, got.Name, err, e.Name)
			}
		}
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("registry = %v, want %v", names, want)
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
	if s := summarize(nil); s != (latencyStats{}) {
		t.Errorf("empty summarize = %+v", s)
	}
	durs := []time.Duration{5 * time.Millisecond, time.Millisecond, 3 * time.Millisecond}
	s := summarize(durs)
	if s.mean != 3*time.Millisecond || s.p50 != 3*time.Millisecond {
		t.Errorf("summarize = %+v", s)
	}
	if s.stddev <= 0 {
		t.Errorf("stddev = %v", s.stddev)
	}
}
