package ivf

import (
	"cmp"
	"sync"
	"sync/atomic"

	"micronn/internal/btree"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// This file is the partition-scan engine behind Search and BatchSearch:
// Algorithm 2's parallel partition scans with §3.4's multi-query
// optimization, where each needed partition is scanned once for every
// query that probes it. A single query is the one-query case.

// scanBatch is the number of candidate vectors gathered before one batched
// distance-kernel call during partition scans.
const scanBatch = 256

// partWork is one partition scan plus the queries interested in it.
type partWork struct {
	part    int64
	queries []int
}

// scanCounts are the counters of one engine run. Workers add to them once
// per kernel batch or partition.
type scanCounts struct {
	scanned  atomic.Int64 // vector rows whose distances were computed
	pairs    atomic.Int64 // query-row distance computations
	filtered atomic.Int64 // rows rejected by filters before any distance
	bytes    atomic.Int64 // vector payload read by scans and the rerank
	reranked atomic.Int64 // candidates recomputed at full precision
}

// queryHeap is one query's top-K, shared by every worker that scans a
// partition the query probes. topk.Heap orders by (Distance, VectorID), a
// total order, so the retained set does not depend on push order.
type queryHeap struct {
	mu sync.Mutex
	h  *topk.Heap
}

// scanRun is the state the workers of one run share. Everything but the
// heaps and counts is immutable once the run starts.
type scanRun struct {
	ix      *Index
	txn     btree.ReadTxn
	queries *vec.Matrix
	qqs     []*quant.Query // per-query asymmetric-distance state on a quantized index
	filters []stats.Filter
	ms      *matchSet // compiled MATCH queries, nil without MATCH filters
	heaps   []queryHeap
	counts  *scanCounts
}

// scan runs the engine at txn: each partition in work is scanned once for
// all the queries listed with it, and filters (Search's post-filter and
// exact-plan predicates; nil for batches) are evaluated on every row
// before its distance. cb is the index's codebook, nil when partitions
// hold float32 vectors. On a quantized index the scans keep
// RerankFactor*K approximate candidates per query, which are then reranked
// against the exact vectors in the raw store unless opts.CandidatesOnly
// asks for the candidates themselves. opts.NProbe is not read: work is
// the probe sets already grouped. Results keep query order.
func (ix *Index) scan(txn btree.ReadTxn, cb *quant.Codebook, queries *vec.Matrix, work []partWork, filters []stats.Filter, opts BatchOptions, counts *scanCounts) ([][]topk.Result, error) {
	nq := queries.Rows
	s := &scanRun{
		ix: ix, txn: txn, queries: queries, filters: filters,
		ms: compileMatchers(filters), heaps: make([]queryHeap, nq), counts: counts,
	}
	heapK := opts.K
	if cb != nil {
		s.qqs = make([]*quant.Query, nq)
		heapK = opts.K * ix.rerankFactor(opts.RerankFactor)
	}
	for qi := range s.heaps {
		s.heaps[qi].h = topk.New(heapK)
		if cb != nil {
			s.qqs[qi] = cb.NewQuery(ix.cfg.Metric, queries.Row(qi))
		}
	}

	if rt, ok := txn.(*storage.ReadTxn); ok && rt.WantReadahead() {
		// Hint the scanned partitions' leaf pages to the OS before any
		// worker faults through them: collecting the page numbers walks
		// only interior nodes (pool-hot), so the scatter readahead is
		// nearly free and the scans below hit warmed pages. Advisory —
		// errors are ignored, the scan itself re-reports real ones.
		var pages []uint32
		for _, w := range work {
			_ = ix.vectors.LeafPages(txn, []reldb.Value{reldb.I(w.part)}, func(pg uint32) {
				pages = append(pages, pg)
			})
		}
		rt.Readahead(pages)
	}
	// Each worker keeps one pooled buffer for all its partitions, so the
	// batch it rewrites stays in its core's cache.
	bufs := make([]*scanBuffers, max(1, ix.cfg.Workers))
	err := ix.fanOut(txn, len(work), opts.Cancel, func(w, i int) error {
		if bufs[w] == nil {
			bufs[w] = ix.getScanBuffers()
		}
		return s.scanPartition(bufs[w], work[i])
	})
	for _, b := range bufs {
		if b != nil {
			ix.putScanBuffers(b)
		}
	}
	if err != nil {
		return nil, err
	}

	out := make([][]topk.Result, nq)
	if cb == nil || opts.CandidatesOnly {
		for qi := range s.heaps {
			out[qi] = s.heaps[qi].h.Results()
		}
		return out, nil
	}
	// Exact rerank of each query's approximate candidates (the paper's
	// refine step). Queries are independent, so the random raw-store
	// lookups fan out over the same worker budget as the scans.
	err = ix.fanOut(txn, nq, opts.Cancel, func(_, qi int) error {
		cands := s.heaps[qi].h.Results()
		res, n, err := ix.RerankCandidates(txn, queries.Row(qi), cands, opts.K)
		if err != nil {
			return err
		}
		counts.reranked.Add(int64(len(cands)))
		counts.bytes.Add(n)
		out[qi] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut calls fn(w, i) for every item i in [0, n), handed out in order to
// Config.Workers workers (at most n); w < max(1, Config.Workers) names the
// calling worker. A txn other than *storage.ReadTxn, the only transaction
// type that is safe to share between goroutines, gets one worker, which
// runs inline. A closed cancel stops each worker before its next item with
// ErrCanceled. fanOut returns once every worker has stopped, with the
// first error in worker order.
func (ix *Index) fanOut(txn btree.ReadTxn, n int, cancel <-chan struct{}, fn func(w, i int) error) error {
	workers := max(1, min(ix.cfg.Workers, n))
	if _, ok := txn.(*storage.ReadTxn); !ok {
		workers = 1
	}
	var next atomic.Int64
	run := func(w int) error {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			select {
			case <-cancel: // a nil cancel never fires
				return ErrCanceled
			default:
			}
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers <= 1 {
		return run(0)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = run(w)
		}()
	}
	wg.Wait()
	return cmp.Or(errs...) // the first non-nil error
}

// scanPartition scans one partition for the queries that probe it. Rows
// are read in place from the leaf pages (ScanBorrowed) and filtered; each
// survivor's payload and asset id bytes are copied into buf, and every
// scanBatch rows one kernel call scores the batch against every query of
// the partition. An asset id string is made only for a row a heap accepts.
func (s *scanRun) scanPartition(buf *scanBuffers, w partWork) error {
	quantized := s.qqs != nil && w.part != DeltaPartition
	qm, dists := &vec.Matrix{Data: s.queries.Row(w.queries[0]), Rows: 1, Dim: s.queries.Dim}, buf.dists
	if len(w.queries) > 1 {
		// A query group's scratch lives for this partition only, so the
		// pool never holds batch-sized buffers.
		dists = make([]float32, len(w.queries)*scanBatch)
		if !quantized {
			qm = vec.NewMatrix(len(w.queries), s.queries.Dim)
			for i, qi := range w.queries {
				qm.SetRow(i, s.queries.Row(qi))
			}
		}
	}
	var filtered, bytes int64
	err := s.ix.vectors.ScanBorrowed(s.txn, []reldb.Value{reldb.I(w.part)}, func(key, val []byte) error {
		r, err := readRowView(key, val)
		if err != nil {
			return err
		}
		if len(s.filters) > 0 {
			ok, err := s.ix.evalFilters(s.txn, r.vid, s.filters, s.ms)
			if err != nil {
				return err
			}
			if !ok {
				filtered++
				return nil
			}
		}
		bytes += int64(len(r.payload))
		buf.add(r, quantized)
		if len(buf.vids) == scanBatch {
			s.flush(buf, w.queries, qm, dists, quantized)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.flush(buf, w.queries, qm, dists, quantized)
	s.counts.filtered.Add(filtered)
	s.counts.bytes.Add(bytes)
	return nil
}

// flush scores the gathered batch against the partition's queries qs
// (their float32 rows in qm), one row of dists per query, and offers each
// distance to that query's heap.
func (s *scanRun) flush(buf *scanBuffers, qs []int, qm *vec.Matrix, dists []float32, quantized bool) {
	n := len(buf.vids)
	if n == 0 {
		return
	}
	dists = dists[:len(qs)*n]
	if quantized {
		for i, qi := range qs {
			s.qqs[qi].DistancesMany(buf.codes, n, dists[i*n:(i+1)*n])
		}
	} else {
		rows := &vec.Matrix{Data: buf.batch.Data[:n*qm.Dim], Rows: n, Dim: qm.Dim}
		vec.DistancesManyToMany(s.ix.cfg.Metric, qm, rows, nil, nil, dists)
	}
	for i, qi := range qs {
		qh := &s.heaps[qi]
		qh.mu.Lock()
		for j, d := range dists[i*n : (i+1)*n] {
			if qh.h.Accepts(d) {
				qh.h.Push(topk.Result{AssetID: buf.assetID(j), VectorID: buf.vids[j], Distance: d})
			}
		}
		qh.mu.Unlock()
	}
	s.counts.scanned.Add(int64(n))
	s.counts.pairs.Add(int64(len(qs) * n))
	buf.reset()
}
