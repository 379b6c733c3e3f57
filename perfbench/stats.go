package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// cost is what one call took: its wall time, and the CPU time the whole
// process used meanwhile (every thread, user plus system).
type cost struct{ wall, cpu time.Duration }

// cpuTime returns the CPU time the process has used so far, every thread,
// user plus system. A guest kernel that accounts paravirtual steal time
// (CONFIG_PARAVIRT_TIME_ACCOUNTING, the default for KVM guests) leaves out
// of it the time the hypervisor gave the vCPU to other tenants, so unlike
// wall time it does not grow when the host is busy.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("perfbench: getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// samples collects the wall time and the CPU time of each call, in
// milliseconds.
type samples struct{ wall, cpu []float64 }

func newSamples(n int) samples { return samples{make([]float64, 0, n), make([]float64, 0, n)} }

func (s *samples) add(c cost) {
	s.wall = append(s.wall, ms(c.wall))
	s.cpu = append(s.cpu, ms(c.cpu))
}

func (s samples) count() int { return len(s.wall) }

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and the
// sample count; 0 when xs is empty. xs is not modified.
func percentile(xs []float64, q float64) (float64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := int(math.Ceil(q*float64(len(s)))) - 1
	if r < 0 {
		r = 0
	}
	return s[r], len(s)
}

func median(xs []float64) float64 { v, _ := percentile(xs, 0.5); return v }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// Window sizes for the windowed statistics: a p99 window holds five samples
// beyond its 99th percentile, so even filtered-sq8's fewer than 2000
// searches a run make three windows.
const (
	opsWindow = 200
	p99Window = 500
)

// windowMedian splits xs into consecutive windows of n samples, the last
// partial window folded into the one before it, and returns the median of f
// over the windows; with fewer than two windows it is f(xs). A slow stretch
// of a run — another tenant of the host, say — moves fewer than half of the
// windows and so cannot move the result.
func windowMedian(xs []float64, n int, f func([]float64) float64) float64 {
	if len(xs) < 2*n {
		return f(xs)
	}
	var vs []float64
	for i := 0; i+n <= len(xs); i += n {
		end := i + n
		if len(xs)-end < n {
			end = len(xs)
		}
		vs = append(vs, f(xs[i:end]))
	}
	return median(vs)
}

// p99 is the windowed 99th percentile of xs.
func p99(xs []float64) float64 {
	return windowMedian(xs, p99Window, func(w []float64) float64 { v, _ := percentile(w, 0.99); return v })
}

// opClass is one call class: its latencies, and how many operations each
// call completes (a BatchSearch of 64 queries completes 64).
type opClass struct {
	lat samples
	per int
}

// opsPerSec returns completed operations over the time spent in them — the
// calls' CPU time when cpu is set, else their wall time — and the operation
// count. A class's time is its call count times its mean time per call, the
// mean taken as the median over windows of opsWindow calls.
func opsPerSec(cpu bool, classes ...opClass) (float64, int) {
	var n int
	var total float64
	for _, c := range classes {
		xs := c.lat.wall
		if cpu {
			xs = c.lat.cpu
		}
		n += len(xs) * c.per
		total += float64(len(xs)) * windowMedian(xs, opsWindow, mean)
	}
	return ratio(float64(n), total/1e3), n
}

// timeCall runs fn and returns its cost.
func timeCall(fn func() error) (cost, error) {
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	t1 := time.Now()
	return cost{t1.Sub(t0), cpuTime() - c0}, err
}

// recallCounter accumulates recall@k as found / wanted over many queries,
// where wanted is min(k, ground-truth size) per query.
type recallCounter struct{ found, wanted int }

func (r *recallCounter) add(got []string, truth []hit, k int) {
	want := truth
	if len(want) > k {
		want = want[:k]
	}
	in := make(map[string]struct{}, len(want))
	for _, h := range want {
		in[h.id] = struct{}{}
	}
	for _, id := range got {
		if _, ok := in[id]; ok {
			r.found++
		}
	}
	r.wanted += len(want)
}

func (r *recallCounter) value() float64 {
	if r.wanted == 0 {
		return 0
	}
	return float64(r.found) / float64(r.wanted)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
