package main

import (
	"runtime"
	"sync"

	"micronn"
	"micronn/internal/storage"
)

// groundTruth brute-forces every query's k nearest stored vectors, among
// those keep accepts when keep is non-nil, on all cores.
func groundTruth(ds *dataset, k int, keep func(q, i int) bool) [][]hit {
	nq := ds.numQueries()
	out := make([][]hit, nq)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for q := w; q < nq; q += workers {
				var f func(int) bool
				if keep != nil {
					f = func(i int) bool { return keep(q, i) }
				}
				out[q] = exactTopK(ds.query(q), ds.vecs, ds.ids, k, f)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// items converts the dataset into load items; attrs, when non-nil, gives
// item i its attributes.
func items(ds *dataset, attrs func(i int) map[string]any) []micronn.Item {
	out := make([]micronn.Item, len(ds.ids))
	for i := range out {
		out[i] = micronn.Item{ID: ds.ids[i], Vector: ds.vec(i)}
		if attrs != nil {
			out[i].Attributes = attrs(i)
		}
	}
	return out
}

// planSums adds up the PlanInfo of many searches.
type planSums struct {
	queries, prefilter                                      int
	partitions, vectors, bytes, filtered, reranked, results int64
}

func (p *planSums) add(info micronn.PlanInfo, results int) {
	p.queries++
	if info.Plan == micronn.PlanPreFilter {
		p.prefilter++
	}
	p.partitions += int64(info.PartitionsScanned)
	p.vectors += info.VectorsScanned
	p.bytes += info.BytesScanned
	p.filtered += info.RowsFiltered
	p.reranked += int64(info.Reranked)
	p.results += int64(results)
}

func (p planSums) perQuery(v int64) float64 { return ratio(float64(v), float64(p.queries)) }

// scanLayers records the ivf scan counts per query.
func (b *bench) scanLayers(p planSums) {
	b.perLayer("ivf.partitions_per_query", p.perQuery(p.partitions))
	b.perLayer("ivf.vectors_scanned_per_query", p.perQuery(p.vectors))
	b.perLayer("ivf.bytes_scanned_per_query", p.perQuery(p.bytes))
	b.perLayer("ivf.useful_ratio", ratio(float64(p.results), float64(p.vectors)))
	b.perLayer("ivf.reranked_per_query", p.perQuery(p.reranked))
	b.perLayer("ivf.prefilter_share", ratio(float64(p.prefilter), float64(p.queries)))
	b.perLayer("ivf.rows_filtered_per_query", p.perQuery(p.filtered))
}

// poolDelta is the buffer-pool traffic between two Stats snapshots.
type poolDelta struct{ hits, misses float64 }

func poolBetween(a, b micronn.Stats) poolDelta {
	return poolDelta{float64(b.CacheHits - a.CacheHits), float64(b.CacheMisses - a.CacheMisses)}
}

// poolLayers records the pool counts over queries calls, and the mean page
// fetch cost weighted by this workload's hit ratio when u is measured.
func (b *bench) poolLayers(d poolDelta, queries int, u *unitCosts) {
	b.perLayer("storage.page_reads_per_query", ratio(d.misses, float64(queries)))
	b.perLayer("storage.pool_hit_ratio", ratio(d.hits, d.hits+d.misses))
	if u != nil {
		b.perLayer("storage.page_fetch_us", ratio(d.hits*u.hitUs+d.misses*u.missUs, d.hits+d.misses))
	}
}

// kernelLayers records the probes' unit costs.
func (b *bench) kernelLayers(u unitCosts) {
	b.perLayer("reldb.get_us", u.getUs)
	b.perLayer("btree.iter_ns_per_row", u.iterNs)
	b.perLayer("reldb.decode_ns_per_row", u.decodeNs)
	b.perLayer("vec.kernel_ns_per_row", u.vecNs)
	b.perLayer("quant.kernel_ns_per_row", u.quantNs)
}

// latencyMetrics prints a call class's wall-time p50 and, when withP99 is
// set, its p99 as <name>_p50_ms and <name>_p99_ms, and its CPU-time p50 as
// <name>_p50_cpu_ms; e2e records the CPU p50 as an end-to-end metric. Only
// CPU times are bounded: CPU steal on a shared host moves wall times, and
// the p99 two to three times as far as the p50.
func (b *bench) latencyMetrics(name string, s samples, withP99, e2e bool) {
	p50, n := percentile(s.wall, 0.5)
	b.show(name+"_p50_ms", "ms", p50, n)
	if withP99 {
		b.show(name+"_p99_ms", "ms", p99(s.wall), n)
	}
	cpu, _ := percentile(s.cpu, 0.5)
	if e2e {
		b.endToEnd(name+"_p50_cpu_ms", cpu, n)
	} else {
		b.show(name+"_p50_cpu_ms", "ms", cpu, n)
	}
}

// throughput records ops_per_cpu_s, completed operations per CPU second
// spent in them, and prints the wall-time ops_per_s beside it.
func (b *bench) throughput(classes ...opClass) {
	ops, n := opsPerSec(true, classes...)
	b.endToEnd("ops_per_cpu_s", ops, n)
	ops, n = opsPerSec(false, classes...)
	b.show("ops_per_s", "1/s", ops, n)
}

// overhead records the traced run's wall-time p50 minus the untraced run's
// for the same calls (in the traced run, only calls that ran before their
// replay).
func (b *bench) overhead(untraced samples, traced []float64) {
	u, _ := percentile(untraced.wall, 0.5)
	t, n := percentile(traced, 0.5)
	b.perLayer("trace.overhead_ms", t-u)
	b.show("traced search_p50_ms", "ms", t, n)
	b.show("trace.overhead_ms (traced - untraced p50)", "ms", t-u, n)
}

// viewRun runs fn into span id on a fresh read transaction of db. The
// transaction is opened outside the span: the public call it is compared
// with opens its own, and that is part of the public layer's self time.
func viewRun(tr *tracer, db *micronn.DB, id int, fn func(*storage.ReadTxn) error) error {
	rt, err := db.InternalStore().BeginRead()
	if err != nil {
		return err
	}
	defer rt.Close()
	return tr.run(id, func() error { return fn(rt) })
}
