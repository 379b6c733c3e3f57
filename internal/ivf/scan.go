package ivf

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"micronn/internal/btree"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/token"
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
// per kernel batch, partition or settled run of rows.
type scanCounts struct {
	scanned  atomic.Int64 // vector rows whose distances were computed: every row read that passed the scanned filter groups
	pairs    atomic.Int64 // query-row distance computations
	filtered atomic.Int64 // rows whose filters were evaluated and failed, in the scan or when settled
	bytes    atomic.Int64 // vector payload read by scans and the rerank
	cands    atomic.Int64 // approximate candidates handed to the rerank
	reranked atomic.Int64 // candidates whose exact vectors the rerank read
	lookups  atomic.Int64 // vids rows read to settle deferred filter groups
}

// scanFilter is a search's filter set split for the scan engine. A group
// whose predicates are all comparisons other than MATCH on attributes that
// vectors rows copy is decided on each scanned row from its copies, before
// the row is scored: a row that fails it is neither scored nor queued, and
// no vids row is read for it. The other groups are deferred: a row that
// passes the scanned groups is scored, and if a heap would keep it, it
// waits to be settled against its vids row (see settle). Immutable once
// built, hence safe to share across scan workers.
type scanFilter struct {
	groups   [][]copyPred // decided on the scanned row
	width    int          // copies a row decodes: one past the last one groups read
	deferred []stats.Filter
	// tokens holds the unique tokens of each MATCH query, which every
	// plan answers by posting probes of the column's full-text index.
	tokens map[string][]string
}

// copyPred is a comparison on the attribute copy at position col of a
// vectors row.
type copyPred struct {
	col  int
	pred reldb.Predicate
}

// splitFilters validates filters and splits them for the scan engine (see
// scanFilter); it returns nil for a search without filters. Every
// predicate must name a declared attribute, and every MATCH a FullText
// one, or the search fails with ErrNoFilter whatever plan runs and
// whatever rows the store holds.
func (ix *Index) splitFilters(filters []stats.Filter) (*scanFilter, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	f := &scanFilter{tokens: make(map[string][]string)}
	for _, group := range filters {
		preds := make([]copyPred, 0, len(group.AnyOf))
		for i := range group.AnyOf {
			pred := &group.AnyOf[i]
			if _, ok := ix.attrPos[pred.Column]; !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoFilter, pred.Column)
			}
			if pred.Op == reldb.OpMatch {
				if _, ok := ix.ftsIndexes[pred.Column]; !ok {
					return nil, fmt.Errorf("%w: MATCH on %q without full-text index", ErrNoFilter, pred.Column)
				}
				if _, ok := f.tokens[pred.Value.Str]; !ok {
					f.tokens[pred.Value.Str] = token.Unique(pred.Value.Str)
				}
			} else if col, ok := ix.copyPos[pred.Column]; ok {
				preds = append(preds, copyPred{col: col, pred: *pred})
			}
		}
		if len(preds) < len(group.AnyOf) {
			f.deferred = append(f.deferred, group) // deferred whole
			continue
		}
		f.groups = append(f.groups, preds)
		for _, p := range preds {
			f.width = max(f.width, p.col+1)
		}
	}
	return f, nil
}

// pass reports whether the row whose encoded attribute copies are b passes
// every scanned group.
func (f *scanFilter) pass(b []byte) (bool, error) {
	var buf [filterRowCols]reldb.Value
	vals := buf[:0]
	for range f.width {
		v, rest, err := reldb.DecodeRowValue(b)
		if err != nil {
			return false, err
		}
		vals, b = append(vals, v), rest
	}
	for _, group := range f.groups {
		matched := false
		for i := range group {
			if group[i].pred.Eval(&vals[group[i].col]) {
				matched = true
				break
			}
		}
		if !matched {
			return false, nil
		}
	}
	return true, nil
}

// queryHeap is one query's top-K, shared by every worker that scans a
// partition the query probes. topk.Heap orders by (Distance, VectorID), a
// total order, so the retained set does not depend on push order. On a
// filtered run, pending holds the scored rows the heap accepted whose
// filters are not evaluated yet (see flush and settle).
type queryHeap struct {
	mu      sync.Mutex
	h       *topk.Heap
	pending *pendingRows
}

// pendingRows are scored rows awaiting their filter verdicts, with their
// asset id bytes copied out of the scan batch. order lists the rows by
// ascending distance once sort has run.
type pendingRows struct {
	rows   []pendingRow
	assets []byte
	order  []uint64 // distance key << 32 | row index
}

type pendingRow struct {
	vid        int64
	dist       float32
	resid      float32 // the row's residual bound (see topk.Result)
	start, end int32   // the row's asset id is assets[start:end]
}

func (p *pendingRows) add(vid int64, dist, resid float32, asset []byte) {
	start := int32(len(p.assets))
	p.assets = append(p.assets, asset...)
	p.rows = append(p.rows, pendingRow{vid: vid, dist: dist, resid: resid, start: start, end: int32(len(p.assets))})
}

// sort fills order with the rows by ascending distance, NaN last (a full
// heap accepts no NaN). Rows at equal distances need no vid order: a heap
// accepts or rejects them alike.
func (p *pendingRows) sort() {
	p.order = p.order[:0]
	for i, r := range p.rows {
		// Flipping the sign bit, and every bit of a negative number, makes
		// the float bits sort as unsigned integers in the floats' order.
		b := math.Float32bits(r.dist)
		switch {
		case r.dist != r.dist:
			b = math.MaxUint32
		case b>>31 != 0:
			b = ^b
		default:
			b |= 1 << 31
		}
		p.order = append(p.order, uint64(b)<<32|uint64(i))
	}
	slices.Sort(p.order)
}

// settleChunk is how many pending rows a worker settles per item of the
// final settle, which hands the rows out in distance order.
const settleChunk = 32

// scanRun is the state the workers of one run share. Everything but the
// heaps and counts is immutable once the run starts.
type scanRun struct {
	ix      *Index
	txn     btree.ReadTxn
	queries *vec.Matrix
	qqs     []*quant.Query      // per-query asymmetric-distance state on a quantized index
	unit    float32             // the codebook's residual unit on a quantized index
	rowSize int                 // a quantized row's payload: code and residual byte
	decide  *scanFilter         // decides its groups on each scanned row; nil when it has none
	filters []stats.Filter      // the deferred groups, settled after scoring
	tokens  map[string][]string // each MATCH query's unique tokens
	heaps   []queryHeap
	counts  *scanCounts
	// settleAt is the pending row count at which a worker settles a
	// query's pending rows during the scan, bounding their memory. Rows
	// pending at the end are settled by every worker together.
	settleAt int
}

// scan runs the engine at txn: each partition in work is scanned once for
// all the queries listed with it. f holds Search's post-filter and
// exact-plan predicates, split by splitFilters (nil for batches). A row
// that fails a group f decides on the scanned row is skipped; every other
// row is scored, and f's deferred groups are then evaluated in ascending
// distance order, and only until the heap rejects the next row (see
// settle). cb is the index's codebook, nil when partitions hold float32
// vectors. On a quantized index the scans keep RerankFactor*K approximate
// candidates per query, which are then reranked against the exact vectors
// in the raw store unless opts.CandidatesOnly asks for the candidates
// themselves. opts.NProbe is not read: work is the probe sets already
// grouped. Results keep query order.
func (ix *Index) scan(txn btree.ReadTxn, cb *quant.Codebook, queries *vec.Matrix, work []partWork, f *scanFilter, opts BatchOptions, counts *scanCounts) ([][]topk.Result, error) {
	nq := queries.Rows
	s := &scanRun{ix: ix, txn: txn, queries: queries, heaps: make([]queryHeap, nq), counts: counts}
	if f != nil {
		if len(f.groups) > 0 {
			s.decide = f
		}
		s.filters, s.tokens = f.deferred, f.tokens
	}
	heapK := opts.K
	if cb != nil {
		s.qqs = make([]*quant.Query, nq)
		s.unit, s.rowSize = cb.ResidualUnit(), cb.CodeSize()+1
		heapK = opts.K * ix.rerankFactor(opts.RerankFactor)
	}
	s.settleAt = max(8*scanBatch, 8*heapK)
	for qi := range s.heaps {
		s.heaps[qi].h = topk.New(heapK)
		if cb != nil {
			s.qqs[qi] = cb.NewQuery(ix.cfg.Metric, queries.Row(qi))
		}
		if len(s.filters) > 0 {
			s.heaps[qi].pending = ix.getPendingRows()
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
	worker := func(w int) *scanBuffers {
		if bufs[w] == nil {
			bufs[w] = ix.getScanBuffers()
			bufs[w].lk.bind(ix, txn)
		}
		return bufs[w]
	}
	err := ix.fanOut(txn, len(work), opts.Cancel, func(w, i int) error {
		return s.scanPartition(worker(w), work[i])
	})
	if err == nil && len(s.filters) > 0 {
		err = s.settleAll(opts.Cancel, worker)
	}
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
	// lookups fan out over the same worker budget as the scans. The
	// rerank orders the candidates itself, so they go to it unsorted.
	err = ix.fanOut(txn, nq, opts.Cancel, func(_, qi int) error {
		cands := s.heaps[qi].h.Drain()
		res, n, err := ix.rerank(txn, cb, queries.Row(qi), cands, opts.K)
		if err != nil {
			return err
		}
		counts.cands.Add(int64(len(cands)))
		counts.reranked.Add(n / int64(vec.BlobSize(ix.cfg.Dim)))
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
// are read in place from the leaf pages (ScanBorrowed); a row that fails
// the groups the run decides on scanned rows is skipped, every other row's
// payload and asset id bytes are copied into buf, and every scanBatch rows
// flush scores the batch against every query of the partition. An asset id
// string is made only for a row a heap accepts. A quantized row's payload
// is its code and residual byte: the code is scored and the byte decoded
// into the row's residual bound. The delta's float32 rows on a quantized
// index get no bound (+Inf), and rows of an unquantized index none at all.
func (s *scanRun) scanPartition(buf *scanBuffers, w partWork) error {
	quantized := s.qqs != nil && w.part != DeltaPartition
	var resid float32
	if s.qqs != nil && !quantized {
		resid = float32(math.Inf(1))
	}
	qm, dists := s.queries.Slice(w.queries[0], w.queries[0]+1), buf.dists
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
	var bytes, rejected int64
	err := s.ix.vectors.ScanBorrowed(s.txn, []reldb.Value{reldb.I(w.part)}, func(key, val []byte) error {
		r, copies, err := readRowView(key, val)
		if err != nil {
			return err
		}
		bytes += int64(len(r.payload))
		if s.decide != nil {
			ok, err := s.decide.pass(copies)
			if err != nil {
				return err
			}
			if !ok {
				rejected++
				return nil
			}
		}
		if quantized {
			n := s.rowSize - 1
			if len(r.payload) != s.rowSize {
				return fmt.Errorf("ivf: vid %d payload %d bytes, want %d", r.vid, len(r.payload), s.rowSize)
			}
			resid = quant.ResidualBound(r.payload[n], s.unit)
			r.payload = r.payload[:n]
		}
		buf.add(r, quantized, resid)
		if len(buf.vids) == scanBatch {
			return s.flush(buf, w.queries, qm, dists, quantized)
		}
		return nil
	})
	if err == nil {
		err = s.flush(buf, w.queries, qm, dists, quantized)
	}
	s.counts.bytes.Add(bytes)
	s.counts.filtered.Add(rejected)
	return err
}

// flush scores the gathered batch against the partition's queries qs
// (their float32 rows in qm), one row of dists per query, and offers each
// distance to that query's heap. Without filters a row the heap accepts is
// pushed. With filters it joins the query's pending rows instead, to be
// settled once the scan is over, or by this worker now if the query holds
// settleAt of them.
func (s *scanRun) flush(buf *scanBuffers, qs []int, qm *vec.Matrix, dists []float32, quantized bool) error {
	n := len(buf.vids)
	if n == 0 {
		return nil
	}
	dists = dists[:len(qs)*n]
	if quantized {
		for i, qi := range qs {
			s.qqs[qi].DistancesMany(buf.codes, n, dists[i*n:(i+1)*n])
		}
	} else {
		rows := buf.batch.Slice(0, n)
		vec.DistancesManyToMany(s.ix.cfg.Metric, qm, rows, nil, nil, dists)
	}
	s.counts.scanned.Add(int64(n))
	s.counts.pairs.Add(int64(len(qs) * n))
	for i, qi := range qs {
		qh := &s.heaps[qi]
		var full *pendingRows
		qh.mu.Lock()
		for j, d := range dists[i*n : (i+1)*n] {
			switch {
			case !qh.h.Accepts(d):
			case qh.pending == nil:
				qh.h.Push(topk.Result{AssetID: buf.assetID(j), VectorID: buf.vids[j], Distance: d, Residual: buf.resid[j]})
			default:
				qh.pending.add(buf.vids[j], d, buf.resid[j], buf.asset(j))
			}
		}
		if qh.pending != nil && len(qh.pending.rows) >= s.settleAt {
			full, qh.pending = qh.pending, s.ix.getPendingRows()
		}
		qh.mu.Unlock()
		if full != nil {
			full.sort()
			err := s.settle(qh, full, full.order, &buf.lk)
			s.ix.putPendingRows(full)
			if err != nil {
				return err
			}
		}
	}
	buf.reset()
	return nil
}

// settle evaluates the filters of the rows of p that order lists, by
// ascending distance, in that order, reading through lk, and pushes each
// row that passes to qh's heap. It stops at the first row the heap no
// longer accepts: no later row is nearer and a heap's threshold only
// tightens, so the heap could retain none of them. Filtering every row and
// pushing the survivors would therefore retain the same set, while only
// the rows ranked ahead of the heap's final threshold are evaluated. The
// heap is locked only around each check and push, so the workers settling
// one query do not wait on each other's lookups.
func (s *scanRun) settle(qh *queryHeap, p *pendingRows, order []uint64, lk *lookups) error {
	var filtered int64
	reads := lk.vidsReads
	defer func() {
		s.counts.filtered.Add(filtered)
		s.counts.lookups.Add(lk.vidsReads - reads)
	}()
	for _, key := range order {
		r := p.rows[uint32(key)]
		qh.mu.Lock()
		ok := qh.h.Accepts(r.dist)
		qh.mu.Unlock()
		if !ok {
			return nil
		}
		pass, err := s.ix.evalFilters(lk, r.vid, nil, s.filters, s.tokens)
		if err != nil {
			return err
		}
		if !pass {
			filtered++
			continue
		}
		res := topk.Result{AssetID: string(p.assets[r.start:r.end]), VectorID: r.vid, Distance: r.dist, Residual: r.resid}
		qh.mu.Lock()
		qh.h.Push(res)
		qh.mu.Unlock()
	}
	return nil
}

// settleAll settles every query's remaining pending rows once the scan is
// over: each query's rows are sorted, then handed out to the workers in
// chunks of settleChunk in distance order, so the rows the heaps need are
// evaluated in parallel and the rest are skipped.
func (s *scanRun) settleAll(cancel <-chan struct{}, worker func(w int) *scanBuffers) error {
	type chunk struct{ qi, lo, hi int }
	var chunks []chunk
	for qi := range s.heaps {
		p := s.heaps[qi].pending
		p.sort()
		for lo := 0; lo < len(p.order); lo += settleChunk {
			chunks = append(chunks, chunk{qi, lo, min(lo+settleChunk, len(p.order))})
		}
	}
	err := s.ix.fanOut(s.txn, len(chunks), cancel, func(w, i int) error {
		c := chunks[i]
		qh := &s.heaps[c.qi]
		return s.settle(qh, qh.pending, qh.pending.order[c.lo:c.hi], &worker(w).lk)
	})
	for qi := range s.heaps {
		s.ix.putPendingRows(s.heaps[qi].pending)
		s.heaps[qi].pending = nil
	}
	return err
}
