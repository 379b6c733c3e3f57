package ivf

import (
	"fmt"
	"sync"

	"micronn/internal/btree"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// BatchOptions parameterizes BatchSearch.
type BatchOptions struct {
	// K is the number of neighbours per query.
	K int
	// NProbe is the per-query number of partitions to scan.
	NProbe int
	// RerankFactor overrides the quantized-search rerank multiplier
	// (0 = Config.RerankFactor). Ignored on unquantized indexes.
	RerankFactor int
	// CandidatesOnly skips the per-query exact rerank on a quantized index
	// and returns each query's RerankFactor*K approximate candidates
	// (BatchInfo.CandidatesApprox is then set). Unquantized batches return
	// their usual exact results. See SearchOptions.CandidatesOnly.
	CandidatesOnly bool
	// Cancel, when non-nil and closed, aborts the batch between partition
	// scans with ErrCanceled (see SearchOptions.Cancel).
	Cancel <-chan struct{}
}

// BatchInfo reports batch execution statistics.
type BatchInfo struct {
	// PartitionScans is the number of (partition, scan) pairs actually
	// executed — with MQO each needed partition is scanned exactly once.
	PartitionScans int
	// QueryPartitionPairs is what a query-at-a-time execution would have
	// scanned: the sum over queries of their probe-set sizes.
	QueryPartitionPairs int
	// VectorsScanned counts vector rows read from storage.
	VectorsScanned int64
	// DistancePairs counts query-vector distance computations.
	DistancePairs int64
	// BytesScanned is the vector payload volume read by partition scans
	// (SQ8 codes count one byte per dimension).
	BytesScanned int64
	// Reranked counts quantized candidates recomputed at full precision.
	Reranked int64
	// CandidatesApprox marks a CandidatesOnly batch whose distances are
	// approximate SQ8 distances; the caller owes the exact rerank.
	CandidatesApprox bool
}

// BatchSearch executes a batch of queries with multi-query optimization
// (paper §3.4, after HQI): queries are grouped by the partitions they
// probe, each needed partition is scanned exactly once, and the distances
// between all interested queries and the partition's vectors are computed
// as one blocked matrix product. Results preserve query order.
func (ix *Index) BatchSearch(txn btree.ReadTxn, queries *vec.Matrix, opts BatchOptions) ([][]topk.Result, *BatchInfo, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("ivf: K must be positive")
	}
	if queries.Dim != ix.cfg.Dim {
		return nil, nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, queries.Dim, ix.cfg.Dim)
	}
	if opts.NProbe <= 0 {
		opts.NProbe = 8
	}
	nq := queries.Rows
	if nq == 0 {
		return nil, &BatchInfo{}, nil
	}
	info := &BatchInfo{}

	cs, err := ix.loadCentroids(txn)
	if err != nil {
		return nil, nil, err
	}
	cb, err := ix.loadCodebook(txn)
	if err != nil {
		return nil, nil, err
	}

	// Group queries by partition (the MQO step).
	groups := make(map[int64][]int) // partition -> query indices
	for qi := 0; qi < nq; qi++ {
		parts := ix.probeSet(cs, queries.Row(qi), opts.NProbe)
		info.QueryPartitionPairs += len(parts)
		for _, p := range parts {
			groups[p] = append(groups[p], qi)
		}
	}
	info.PartitionScans = len(groups)

	// On a quantized index each query carries precomputed asymmetric-
	// distance state, shared read-only by all partition scans, and the
	// per-query heaps hold RerankFactor*K approximate candidates.
	var qqs []*quant.Query
	heapK := opts.K
	if cb != nil {
		qqs = make([]*quant.Query, nq)
		for qi := 0; qi < nq; qi++ {
			qqs[qi] = cb.NewQuery(ix.cfg.Metric, queries.Row(qi))
		}
		heapK = opts.K * ix.rerankFactor(opts.RerankFactor)
	}

	heaps := make([]*topk.Heap, nq)
	heapMus := make([]sync.Mutex, nq)
	for i := range heaps {
		heaps[i] = topk.New(heapK)
	}

	work := make(chan partWork, len(groups))
	for p, qs := range groups {
		work <- partWork{part: p, queries: qs}
	}
	close(work)

	workers := ix.cfg.Workers
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers < 1 {
		workers = 1
	}
	rt, parallel := txn.(*storage.ReadTxn)
	if !parallel {
		workers = 1
	}
	if parallel && rt.WantReadahead() {
		// Same scatter readahead as the single-query scan: hint every
		// grouped partition's leaf pages before the workers fault through
		// them (advisory; errors surface from the scans themselves).
		var pages []uint32
		for p := range groups {
			_ = ix.vectors.LeafPages(txn, []reldb.Value{reldb.I(p)}, func(pg uint32) {
				pages = append(pages, pg)
			})
		}
		rt.Readahead(pages)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var statMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scanned, pairs, bytesRead, err := ix.batchWorker(txn, work, opts.Cancel, queries, qqs, cb, heaps, heapMus)
			statMu.Lock()
			info.VectorsScanned += scanned
			info.DistancePairs += pairs
			info.BytesScanned += bytesRead
			statMu.Unlock()
			if err != nil {
				errCh <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, nil, err
	default:
	}

	out := make([][]topk.Result, nq)
	if cb == nil || opts.CandidatesOnly {
		info.CandidatesApprox = cb != nil
		for i := range heaps {
			out[i] = heaps[i].Results()
		}
		return out, info, nil
	}
	// Rerank phase: per-query exact recomputation is independent work, so
	// it fans out over the same worker budget as the scans (the random
	// raw-store lookups would otherwise serialize a large batch).
	rerankWorkers := ix.cfg.Workers
	if rerankWorkers > nq {
		rerankWorkers = nq
	}
	if rerankWorkers < 1 {
		rerankWorkers = 1
	}
	if _, parallel := txn.(*storage.ReadTxn); !parallel {
		rerankWorkers = 1
	}
	qCh := make(chan int, nq)
	for i := 0; i < nq; i++ {
		qCh <- i
	}
	close(qCh)
	var rwg sync.WaitGroup
	rerrCh := make(chan error, rerankWorkers)
	for w := 0; w < rerankWorkers; w++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var reranked, bytesRead int64
			for i := range qCh {
				if chanClosed(opts.Cancel) {
					rerrCh <- ErrCanceled
					return
				}
				cands := heaps[i].Results()
				res, rb, err := ix.rerankExact(txn, queries.Row(i), cands, opts.K)
				if err != nil {
					rerrCh <- err
					return
				}
				reranked += int64(len(cands))
				bytesRead += rb
				out[i] = res
			}
			statMu.Lock()
			info.Reranked += reranked
			info.BytesScanned += bytesRead
			statMu.Unlock()
		}()
	}
	rwg.Wait()
	select {
	case err := <-rerrCh:
		return nil, nil, err
	default:
	}
	return out, info, nil
}

// partWork is one partition scan plus the queries interested in it.
type partWork struct {
	part    int64
	queries []int
}

// batchWorker scans whole partitions: for each, it streams the vectors in
// tiles and computes the |interested queries| x |tile| distance matrix in
// one kernel call, amortizing the scan over every query in the group. On
// quantized partitions the tile holds SQ8 codes and each interested query's
// asymmetric kernel runs over it — the tile is still read once and shared.
// Rows are read in place from the leaf pages, as in scanWorker.
func (ix *Index) batchWorker(txn btree.ReadTxn, work <-chan partWork, cancel <-chan struct{}, queries *vec.Matrix, qqs []*quant.Query, cb *quant.Codebook, heaps []*topk.Heap, heapMus []sync.Mutex) (scanned, pairs, bytesRead int64, err error) {
	dim := ix.cfg.Dim
	// Not from scanPool: a batch amortizes one allocation over all its
	// queries, and pooling would keep these buffers live between batches.
	buf := ix.newScanBuffers()

	for w := range work {
		if chanClosed(cancel) {
			return scanned, pairs, bytesRead, ErrCanceled
		}
		quantized := cb != nil && w.part != DeltaPartition

		// Gather this partition's interested queries into a submatrix
		// (float path only; the quantized path uses qqs directly).
		var qm *vec.Matrix
		var qNorms []float32
		if !quantized {
			qm = vec.NewMatrix(len(w.queries), dim)
			for i, qi := range w.queries {
				qm.SetRow(i, queries.Row(qi))
			}
			qNorms = qm.Norms(make([]float32, 0, qm.Rows))
		}
		dists := make([]float32, len(w.queries)*scanBatch)

		flush := func() {
			n := len(buf.vids)
			if n == 0 {
				return
			}
			if quantized {
				for i, qi := range w.queries {
					qqs[qi].DistancesMany(buf.codes, n, dists[i*n:(i+1)*n])
				}
			} else {
				sub := &vec.Matrix{Data: buf.batch.Data[:n*dim], Rows: n, Dim: dim}
				vec.DistancesManyToMany(ix.cfg.Metric, qm, sub, l2Only(ix.cfg.Metric, qNorms), nil, dists[:len(w.queries)*n])
			}
			for i, qi := range w.queries {
				h := heaps[qi]
				heapMus[qi].Lock()
				for j, d := range dists[i*n : (i+1)*n] {
					if h.Accepts(d) {
						h.Push(topk.Result{AssetID: buf.assetID(j), VectorID: buf.vids[j], Distance: d})
					}
				}
				heapMus[qi].Unlock()
			}
			scanned += int64(n)
			pairs += int64(len(w.queries) * n)
			buf.reset()
		}

		perr := ix.vectors.ScanBorrowed(txn, []reldb.Value{reldb.I(w.part)}, func(key, val []byte) error {
			r, err := readRowView(key, val)
			if err != nil {
				return err
			}
			bytesRead += int64(len(r.payload))
			buf.add(r, quantized)
			if len(buf.vids) == scanBatch {
				flush()
			}
			return nil
		})
		if perr != nil {
			return scanned, pairs, bytesRead, perr
		}
		flush()
	}
	return scanned, pairs, bytesRead, nil
}
