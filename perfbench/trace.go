package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share req. The library itself is not instrumented, so a child span
// is the parent's sub-call replayed by the benchmark next to the parent (for
// example ivf.Index.Search for the query micronn.DB.Search runs), and parent
// links it to the call whose work it repeats. A layer's self time
// is its span's duration minus its children's, or minus the slowest child
// when the children ran in parallel (a router's shards).
type span struct {
	Name     string `json:"name"`
	Req      int    `json:"req"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a request's root
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parallel bool   `json:"parallel,omitempty"` // ran concurrently with its siblings
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// request starts a new request and returns its id.
func (t *tracer) request() int {
	t.reqs++
	return t.reqs
}

// open adds a span that has not run yet and returns its id, so a child can
// name its parent before either runs.
func (t *tracer) open(name string, req, parent int) int {
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent})
	return len(t.spans) - 1
}

// run times fn into span id.
func (t *tracer) run(id int, fn func() error) error {
	t.spans[id].StartNs = int64(time.Since(t.t0))
	err := fn()
	t.spans[id].EndNs = int64(time.Since(t.t0))
	return err
}

// span runs fn as one new span and returns the span's id.
func (t *tracer) span(name string, req, parent int, fn func() error) (int, error) {
	id := t.open(name, req, parent)
	return id, t.run(id, fn)
}

// pair runs a public call and the sub-call it wraps, opened as parent and
// child spans. Which runs first alternates with turn, so neither always
// meets the buffer pool the other has just warmed. A workload that mixes
// query kinds counts turns so that every kind alternates (filtered-sq8
// counts rounds of its mix); one with a single kind passes the request id.
func (t *tracer) pair(turn int, parent, child func() error) error {
	first, second := parent, child
	if !publicFirst(turn) {
		first, second = child, parent
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// publicFirst reports whether pair runs the public call first on turn.
// Only those calls are comparable with the untraced run's, where no replay
// has just warmed the pool.
func publicFirst(turn int) bool { return turn%2 == 0 }

// parallel marks span id as one of several sibling spans that ran at once.
func (t *tracer) parallel(id int) { t.spans[id].Parallel = true }

// selfMs returns every span's self time, indexed by span id.
func (t *tracer) selfMs() []float64 {
	sum := make([]float64, len(t.spans))
	slowest := make([]float64, len(t.spans))
	hasPar := make([]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		if s.Parallel {
			hasPar[s.Parent] = true
			slowest[s.Parent] = max(slowest[s.Parent], s.ms())
		} else {
			sum[s.Parent] += s.ms()
		}
	}
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.ms() - sum[i]
		if hasPar[i] {
			self[i] -= slowest[i]
		}
	}
	return self
}

// layerTime is one span name's aggregate over the traced run.
type layerTime struct {
	name        string
	depth       int
	calls       int
	total, self float64 // ms, summed over calls
}

func (l layerTime) meanMs() float64     { return ratio(l.total, float64(l.calls)) }
func (l layerTime) meanSelfMs() float64 { return ratio(l.self, float64(l.calls)) }

// layers aggregates spans by name, ordered depth-first from the roots in
// order of first appearance.
func (t *tracer) layers() []layerTime {
	self := t.selfMs()
	byName := map[string]*layerTime{}
	var order []string
	children := map[string][]string{}
	parentOf := map[string]string{}
	for i, s := range t.spans {
		lt, ok := byName[s.Name]
		if !ok {
			lt = &layerTime{name: s.Name}
			byName[s.Name] = lt
			order = append(order, s.Name)
			if s.Parent >= 0 {
				p := t.spans[s.Parent].Name
				parentOf[s.Name] = p
				children[p] = append(children[p], s.Name)
			}
		}
		lt.calls++
		lt.total += s.ms()
		lt.self += self[i]
	}
	var out []layerTime
	var walk func(name string, depth int)
	walk = func(name string, depth int) {
		lt := *byName[name]
		lt.depth = depth
		out = append(out, lt)
		for _, c := range children[name] {
			walk(c, depth+1)
		}
	}
	for _, n := range order {
		if _, ok := parentOf[n]; !ok {
			walk(n, 0)
		}
	}
	return out
}

// layer returns the aggregate for name (zero when no span has it).
func (t *tracer) layer(name string) layerTime {
	for _, l := range t.layers() {
		if l.name == name {
			return l
		}
	}
	return layerTime{name: name}
}

func (t *tracer) print(w io.Writer) {
	fmt.Fprintf(w, "traced calls (mean per call; self = minus children):\n")
	fmt.Fprintf(w, "  %-34s %8s %10s %10s\n", "span", "calls", "ms", "self ms")
	for _, l := range t.layers() {
		name := fmt.Sprintf("%*s%s", 2*l.depth, "", l.name)
		fmt.Fprintf(w, "  %-34s %8d %10.4f %10.4f\n", name, l.calls, l.meanMs(), l.meanSelfMs())
	}
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
