package ivf

import (
	"fmt"

	"micronn/internal/btree"
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
// as one blocked matrix product. Results preserve query order. Search runs
// on the same scan engine as the one-query case.
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

	_, d, err := ix.load(txn)
	if err != nil {
		return nil, nil, err
	}

	// Group queries by partition (the MQO step).
	groups := make(map[int64][]int) // partition -> query indices
	for qi := 0; qi < nq; qi++ {
		parts := ix.probeSet(d.cents, queries.Row(qi), opts.NProbe)
		info.QueryPartitionPairs += len(parts)
		for _, p := range parts {
			groups[p] = append(groups[p], qi)
		}
	}
	work := make([]partWork, 0, len(groups))
	for p, qs := range groups {
		work = append(work, partWork{part: p, queries: qs})
	}
	info.PartitionScans = len(work)

	var c scanCounts
	out, err := ix.scan(txn, d.cb, queries, work, nil, opts, &c)
	if err != nil {
		return nil, nil, err
	}
	info.VectorsScanned = c.scanned.Load()
	info.DistancePairs = c.pairs.Load()
	info.BytesScanned = c.bytes.Load()
	info.Reranked = c.reranked.Load()
	info.CandidatesApprox = d.cb != nil && opts.CandidatesOnly
	return out, info, nil
}
