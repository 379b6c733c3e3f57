package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"micronn"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	orig := append([]float64(nil), xs...)
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		got, n := percentile(xs, c.q)
		if got != c.want || n != len(xs) {
			t.Errorf("percentile(%v) = %v, n=%d; want %v, n=%d", c.q, got, n, c.want, len(xs))
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if v, n := percentile(nil, 0.5); v != 0 || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want 0, 0", v, n)
	}
}

func TestTimeCallCountsCPU(t *testing.T) {
	c, err := timeCall(func() error {
		for t0 := cpuTime(); cpuTime()-t0 < 20*time.Millisecond; {
		}
		return nil
	})
	if err != nil || c.cpu < 20*time.Millisecond || c.wall <= 0 {
		t.Errorf("timeCall of 20 ms of spinning = %+v, %v; want cpu >= 20ms", c, err)
	}
	idle, _ := timeCall(func() error { time.Sleep(20 * time.Millisecond); return nil })
	if idle.wall < 20*time.Millisecond || idle.cpu > idle.wall/2 {
		t.Errorf("timeCall of a 20 ms sleep = %+v; want wall >= 20ms and little cpu", idle)
	}
}

func TestRecallCounter(t *testing.T) {
	truth := []hit{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}
	var rc recallCounter
	rc.add([]string{"a", "x", "c"}, truth, 3) // 2 of the top 3
	rc.add([]string{"a", "b"}, truth[:2], 3)  // only 2 exist: wanted is 2
	if rc.found != 4 || rc.wanted != 5 {
		t.Fatalf("found/wanted = %d/%d, want 4/5", rc.found, rc.wanted)
	}
	if got := rc.value(); got != 0.8 {
		t.Errorf("recall = %v, want 0.8", got)
	}
}

func TestZipfDeterministicAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		z, rng := newZipf(100, 0.9), rand.New(rand.NewSource(seed))
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.next(rng)
		}
		return out
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different Zipf streams")
	}
	counts := make([]int, 100)
	for _, r := range a {
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Errorf("not skewed: rank 0/10/90 drawn %d/%d/%d times", counts[0], counts[10], counts[90])
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Error("different seeds gave the same stream")
	}
}

// stream draws n ops from a fresh churn generator and model.
func stream(seed int64, items, n int) ([]op, *liveSet) {
	rng := rand.New(rand.NewSource(seed))
	mix := newDistribution()
	live := newLiveSet(dim, 2*items)
	v := make([]float32, dim)
	for i := 0; i < items; i++ {
		mix.draw(rng, v)
		live.upsert(itemID(i), v)
	}
	g := &opStream{rng: rng, mix: mix, zipf: newZipf(50, 0.9), requery: 30, live: live, nextID: items}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
		live.apply(ops[i])
	}
	return ops, live
}

func TestOpStreamDeterministic(t *testing.T) {
	a, la := stream(3, 500, 4000)
	b, lb := stream(3, 500, 4000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different op streams")
	}
	if !reflect.DeepEqual(la.ids, lb.ids) || !reflect.DeepEqual(la.vecs, lb.vecs) {
		t.Fatal("same seed left different live sets")
	}
	c, _ := stream(4, 500, 4000)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same op stream")
	}
	kinds := map[opKind]int{}
	for _, o := range a {
		kinds[o.kind]++
	}
	pct := func(k opKind) float64 { return 100 * float64(kinds[k]) / float64(len(a)) }
	for k, want := range map[opKind]float64{opSearch: pctSearch, opInsert: pctInsert, opMove: pctMove, opDelete: pctDelete, opGet: pctGet} {
		if got := pct(k); got < want-3 || got > want+3 {
			t.Errorf("op kind %d is %.1f%% of the stream, want about %v%%", k, got, want)
		}
	}
	// About 30% of searches re-send the previous query, plus Zipf's own
	// repeats (about 5% over 50 queries at s = 0.9).
	prev, repeats := -1, 0
	for _, o := range a {
		if o.kind == opSearch {
			if o.query == prev {
				repeats++
			}
			prev = o.query
		}
	}
	if share := 100 * float64(repeats) / float64(kinds[opSearch]); share < 28 || share > 42 {
		t.Errorf("%.1f%% of searches repeat the previous query, want about 33%%", share)
	}
	// Inserts match deletes, so the live set stays near its initial size.
	if n := la.len(); n < 400 || n > 600 {
		t.Errorf("live set drifted from 500 to %d items", n)
	}
}

func TestLiveSetModel(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newLiveSet(4, 8)
	want := map[string][]float32{}
	vecOf := func() []float32 {
		return []float32{float32(rng.Intn(50)), float32(rng.Intn(50)), float32(rng.Intn(50)), float32(rng.Intn(50))}
	}
	for i := 0; i < 2000; i++ {
		id := itemID(rng.Intn(60))
		if rng.Intn(3) == 0 {
			s.apply(op{kind: opDelete, id: id})
			delete(want, id)
			continue
		}
		v := vecOf()
		s.apply(op{kind: opMove, id: id, vec: v})
		want[id] = v
	}
	if s.len() != len(want) {
		t.Fatalf("model holds %d items, want %d", s.len(), len(want))
	}
	for id, v := range want {
		got, ok := s.get(id)
		if !ok || !slices.Equal(got, v) {
			t.Fatalf("get(%s) = %v, %v; want %v", id, got, ok, v)
		}
	}
	c := s.clone()
	for id := range want {
		s.remove(id)
		break
	}
	if c.len() != len(want) {
		t.Error("clone shares state with its source")
	}
	q := vecOf()
	var all []hit
	for id, v := range want {
		all = append(all, hit{id, l2(q, v)})
	}
	sort.Slice(all, func(i, j int) bool { return less(all[i], all[j]) })
	if got := c.topK(q, 10); !reflect.DeepEqual(got, all[:10]) {
		t.Errorf("topK = %v, want %v", got, all[:10])
	}
}

func TestExactTopKFilter(t *testing.T) {
	vecs := []float32{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	ids := []string{"a", "b", "c", "d", "e"}
	got := exactTopK([]float32{2.1, 2.1}, vecs, ids, 2, func(i int) bool { return i != 2 })
	want := []hit{{"d", l2([]float32{2.1, 2.1}, []float32{3, 3})}, {"b", l2([]float32{2.1, 2.1}, []float32{1, 1})}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exactTopK = %v, want %v", got, want)
	}
}

func TestCheckResults(t *testing.T) {
	liveIDs := map[string]bool{"a": true, "b": true, "c": true}
	live := func(id string) bool { return liveIDs[id] }
	notB := func(id string) bool { return id != "b" }
	rs := []micronn.Result{{ID: "a", Distance: 1}, {ID: "c", Distance: 2}}
	if p := checkResults(rs, 2, 3, live, notB); p != "" {
		t.Errorf("valid response rejected: %s", p)
	}
	for name, c := range map[string]struct {
		rs      []micronn.Result
		k, live int
	}{
		"short":      {rs[:1], 2, 3},
		"long":       {rs, 1, 3},
		"decreasing": {[]micronn.Result{{ID: "c", Distance: 2}, {ID: "a", Distance: 1}}, 2, 3},
		"dead id":    {[]micronn.Result{{ID: "a", Distance: 1}, {ID: "z", Distance: 2}}, 2, 3},
		"filtered":   {[]micronn.Result{{ID: "a", Distance: 1}, {ID: "b", Distance: 2}}, 2, 3},
	} {
		if p := checkResults(c.rs, c.k, c.live, live, notB); p == "" {
			t.Errorf("%s: bad response accepted", name)
		}
	}
	if p := checkResults(rs[:1], 5, 1, live, nil); p != "" {
		t.Errorf("fewer live matches than K rejected: %s", p)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{}
	add := func(name string, parent int, start, end int64, par bool) int {
		tr.spans = append(tr.spans, span{Name: name, ID: len(tr.spans), Parent: parent, StartNs: start, EndNs: end, Parallel: par})
		return len(tr.spans) - 1
	}
	seq := add("seq", -1, 0, 10e6, false)
	add("child", seq, 0, 3e6, false)
	add("child", seq, 0, 4e6, false)
	par := add("router", -1, 0, 10e6, false)
	add("shard", par, 0, 3e6, true)
	add("shard", par, 0, 6e6, true)
	self := tr.selfMs()
	if self[seq] != 3 || self[par] != 4 {
		t.Errorf("self times = %v / %v ms, want 3 / 4", self[seq], self[par])
	}
	if l := tr.layer("child"); l.calls != 2 || l.meanMs() != 3.5 {
		t.Errorf("child layer = %+v", l)
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the metric sets the program prints
// equal to the ones BENCHMARK.json declares, units included.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.EndToEnd) != len(endToEndMetrics) {
		t.Errorf("BENCHMARK.json declares %d end_to_end metrics, the program prints %d", len(cfg.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range cfg.EndToEnd {
		if i < len(endToEndMetrics) && (m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit) {
			t.Errorf("end_to_end[%d] is %s (%s), the program prints %s (%s)", i, m.Name, m.Unit, endToEndMetrics[i].name, endToEndMetrics[i].unit)
		}
	}
	var layers []string
	for _, m := range cfg.PerLayer {
		layers = append(layers, m.Name)
		if layerUnit(m.Name) != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program unit %q", m.Name, m.Unit, layerUnit(m.Name))
		}
	}
	if !reflect.DeepEqual(layers, perLayerNames) {
		t.Errorf("per_layer names %v, program prints %v", layers, perLayerNames)
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(cfg.Workloads), len(workloads))
	}
}

func TestWindowedStatsIgnoreASlowStretch(t *testing.T) {
	var lat, cpu []float64
	for i := 0; i < 5000; i++ {
		v := 1.0
		if i >= 1000 && i < 2000 {
			v = 5 // a slow fifth of the run
		}
		lat = append(lat, v)
		cpu = append(cpu, 2)
	}
	if got := p99(lat); got != 1 {
		t.Errorf("windowed p99 = %v, want 1", got)
	}
	part := func(i, j int) samples { return samples{lat[i:j], cpu[i:j]} }
	ops, n := opsPerSec(false, opClass{part(0, 4000), 1}, opClass{part(4000, 5000), 1})
	if n != 5000 || ops != 1000 {
		t.Errorf("opsPerSec = %v over %d calls, want 1000 over 5000", ops, n)
	}
	if ops, _ := opsPerSec(true, opClass{part(0, 4000), 1}, opClass{part(4000, 5000), 1}); ops != 500 {
		t.Errorf("opsPerSec over CPU time = %v, want 500", ops)
	}
	// 100 batches of 10 operations at 1 ms each beside 1000 single calls.
	ops, n = opsPerSec(false, opClass{part(0, 1000), 1}, opClass{part(4000, 4100), 10})
	if n != 2000 || math.Abs(ops-2000/1.1) > 1e-9 {
		t.Errorf("opsPerSec with batches = %v over %d operations, want %v over 2000", ops, n, 2000/1.1)
	}
	if got := windowMedian([]float64{1, 2, 3}, 2, mean); got != 2 {
		t.Errorf("windowMedian on fewer than two windows = %v, want the mean 2", got)
	}
}
