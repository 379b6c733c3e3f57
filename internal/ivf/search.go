package ivf

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"micronn/internal/btree"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// PlanType identifies a hybrid query execution plan (paper §3.5).
type PlanType uint8

const (
	// PlanAuto lets the optimizer choose between pre- and post-filtering
	// from selectivity estimates.
	PlanAuto PlanType = iota
	// PlanPreFilter evaluates the attribute filter first and brute-forces
	// the qualifying vectors: 100% recall, latency proportional to the
	// qualifying set.
	PlanPreFilter
	// PlanPostFilter runs the IVF scan and applies the filter to the
	// candidates the scan would keep.
	PlanPostFilter
)

// String names the plan.
func (p PlanType) String() string {
	switch p {
	case PlanAuto:
		return "auto"
	case PlanPreFilter:
		return "pre-filter"
	case PlanPostFilter:
		return "post-filter"
	default:
		return fmt.Sprintf("PlanType(%d)", uint8(p))
	}
}

// SearchOptions parameterizes Search.
type SearchOptions struct {
	// K is the number of neighbours to return (required).
	K int
	// NProbe is the number of IVF partitions to scan (Algorithm 2's n);
	// the delta partition is always scanned in addition. Defaults to 8.
	NProbe int
	// Filters is the CNF attribute filter set; nil means pure ANN.
	Filters []stats.Filter
	// Exact forces an exhaustive KNN scan (with filters applied row-wise
	// when present). On a quantized index every candidate's exact vector
	// is fetched from the raw store, preserving the 100%-recall contract.
	Exact bool
	// Plan overrides the optimizer's pre/post-filter choice.
	Plan PlanType
	// RerankFactor overrides the quantized-search rerank multiplier: the
	// scan keeps RerankFactor*K candidates by approximate SQ8 distance
	// before the exact rerank (0 = Config.RerankFactor, default 4).
	// Ignored on unquantized indexes.
	RerankFactor int
	// CandidatesOnly skips the final exact rerank on a quantized post-
	// filter scan and returns the merged RerankFactor*K approximate
	// candidates instead of the top K (PlanInfo.CandidatesApprox is then
	// set). Paths that are already exact — unquantized scans, pre-filter
	// plans, Exact searches — return their usual results unchanged. The
	// sharded router uses this to pool candidates from every shard before
	// one global rerank, so cross-shard recall matches a single store.
	CandidatesOnly bool
	// Cancel, when non-nil and closed, aborts the search between partition
	// scans: workers stop draining the partition queue and Search returns
	// ErrCanceled. The sharded router closes it to reap sibling scatter
	// searches once one shard has already failed the whole query.
	Cancel <-chan struct{}
}

// ErrCanceled reports a search abandoned via SearchOptions.Cancel. The
// result set it accompanies is meaningless, not partial.
var ErrCanceled = errors.New("ivf: search canceled")

// PlanInfo reports how a query executed.
type PlanInfo struct {
	Plan              PlanType
	FilterSelectivity float64 // F̂_filters, when filters were present
	IVFSelectivity    float64 // F̂_IVF = n·p/|R|
	PartitionsScanned int
	// VectorsScanned counts the vectors whose distance was computed. A
	// post-filter scan decides comparison filter groups on the attribute
	// copies of each row it reads and scores only the rows that pass them,
	// so it counts rows that fail other groups (MATCH, or a comparison on
	// a text or blob attribute) too; a pre-filter plan scores only the
	// qualifying vectors.
	VectorsScanned int64
	// RowsFiltered counts rows whose filters were evaluated and failed. A
	// post-filter scan counts every row that fails a group decided in the
	// scan, and evaluates the other groups only on the rows its top-K heap
	// would take, so rows too far from the query that pass the decided
	// groups are never evaluated for the others or counted. With more than
	// one scan worker it is a figure of the run, not of the query: the
	// workers settle a query's waiting rows in parallel, each stopping at
	// the first row the shared heap rejects, so how many rows are
	// evaluated depends on their timing. Results do not.
	RowsFiltered int64
	// BytesScanned is the vector payload volume the query read: the code
	// and residual byte of every row a quantized partition scan reads, or
	// four bytes per dimension of a float32 row, plus the exact vectors
	// the rerank phase reads — the I/O metric the SQ8 path reduces.
	BytesScanned int64
	// Candidates counts the approximate candidates of a quantized scan
	// handed to the exact rerank: RerankFactor*K per query, or fewer when
	// the probed partitions hold fewer rows.
	Candidates int
	// Reranked counts the candidates whose exact vectors the rerank read
	// from the raw store, at most Candidates. On an L2 index the rerank
	// skips every candidate whose residual bound rules it out of the top K
	// (see RerankCandidates); on Dot and Cosine it reads them all.
	Reranked int
	// CandidatesApprox marks a CandidatesOnly result whose distances are
	// approximate SQ8 distances: the caller owes the exact rerank (see
	// RerankCandidates).
	CandidatesApprox bool
}

// Search performs (approximate or exact) K-nearest-neighbour search with
// optional hybrid attribute filters. It is safe for concurrent use with a
// *storage.ReadTxn; partition scans then run on the configured worker pool
// (Algorithm 2). With any other transaction type the scan is sequential.
// Its partition scans are the one-query case of BatchSearch's engine.
func (ix *Index) Search(txn btree.ReadTxn, q []float32, opts SearchOptions) ([]topk.Result, *PlanInfo, error) {
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("ivf: K must be positive")
	}
	if len(q) != ix.cfg.Dim {
		return nil, nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), ix.cfg.Dim)
	}
	if opts.NProbe <= 0 {
		opts.NProbe = 8
	}
	sf, err := ix.splitFilters(opts.Filters)
	if err != nil {
		return nil, nil, err
	}
	info := &PlanInfo{Plan: PlanPostFilter}

	st, d, err := ix.load(txn)
	if err != nil {
		return nil, nil, err
	}

	var parts []int64
	if opts.Exact {
		parts = append([]int64{DeltaPartition}, d.cents.ids...)
	} else {
		info.IVFSelectivity = ivfSelectivity(opts.NProbe, ix.cfg.TargetPartitionSize, st.NumVectors)
		if len(opts.Filters) > 0 {
			if err := ix.choosePlan(txn, opts, d.stats, info); err != nil {
				return nil, nil, err
			}
			if info.Plan == PlanPreFilter {
				res, err := ix.preFilterSearch(txn, q, opts, sf, d.stats, info)
				return res, info, err
			}
		}
		parts = ix.probeSet(d.cents, q, opts.NProbe)
	}
	if opts.Exact && d.cb != nil {
		// Exhaustive search on a quantized index: one sequential pass over
		// the raw store instead of scanning lossy codes and chasing a
		// random raw lookup per row.
		res, err := ix.exactQuantScan(txn, q, opts, sf, info, len(parts))
		return res, info, err
	}

	// The scan engine's one-query case.
	one := []int{0}
	work := make([]partWork, len(parts))
	for i, p := range parts {
		work[i] = partWork{part: p, queries: one}
	}
	var c scanCounts
	out, err := ix.scan(txn, d.cb, &vec.Matrix{Data: q, Rows: 1, Dim: len(q)}, work, sf, BatchOptions{
		K: opts.K, RerankFactor: opts.RerankFactor, CandidatesOnly: opts.CandidatesOnly, Cancel: opts.Cancel,
	}, &c)
	if err != nil {
		return nil, nil, err
	}
	info.PartitionsScanned += len(parts)
	info.VectorsScanned += c.scanned.Load()
	info.RowsFiltered += c.filtered.Load()
	info.BytesScanned += c.bytes.Load()
	info.Candidates += int(c.cands.Load())
	info.Reranked += int(c.reranked.Load())
	info.CandidatesApprox = d.cb != nil && opts.CandidatesOnly
	return out[0], info, nil
}

// rerankFactor resolves the effective rerank multiplier.
func (ix *Index) rerankFactor(override int) int {
	rr := override
	if rr <= 0 {
		rr = ix.cfg.RerankFactor
	}
	if rr < 1 {
		rr = 1
	}
	return rr
}

// probeSet returns the delta partition plus the NProbe partitions whose
// centroids are nearest to q (Algorithm 2 line 3). Past the coarse-index
// threshold the two-level centroid index replaces the linear scan.
func (ix *Index) probeSet(cs *centroidSet, q []float32, nprobe int) []int64 {
	if len(cs.ids) == 0 {
		return []int64{DeltaPartition}
	}
	if nprobe > len(cs.ids) {
		nprobe = len(cs.ids)
	}
	if parts := ix.probeSetCoarse(cs, q, nprobe); parts != nil {
		return parts
	}
	ps := ix.getProbeScratch(cs.mat.Rows, nprobe)
	defer ix.probePool.Put(ps)
	dists := ps.dists[:cs.mat.Rows]
	vec.DistancesOneToMany(ix.cfg.Metric, q, cs.mat, l2Only(ix.cfg.Metric, cs.norms), dists)
	parts := make([]int64, 0, nprobe+1)
	parts = append(parts, DeltaPartition)
	for _, i := range nearest(dists, nprobe, ps.order[:0]) {
		parts = append(parts, cs.ids[i])
	}
	return parts
}

// nearest returns the indexes of the n smallest distances in dists,
// smallest first, under the total order (distance with NaN last, then
// index): the first n indexes of a full sort, found by partial selection.
// best holds the n best indexes seen so far, in order; an index enters it
// only if it beats the last, which on a query's centroid distances few do.
// The result reuses buf's storage.
func nearest(dists []float32, n int, buf []int) []int {
	n = max(0, min(n, len(dists)))
	best := buf[:0]
	for i, d := range dists {
		// Indexes arrive in ascending order, so i ranks before a kept
		// index only at a strictly smaller distance.
		p := len(best)
		for p > 0 && topk.CompareDistance(d, dists[best[p-1]]) < 0 {
			p--
		}
		if p == n {
			continue
		}
		if len(best) < n {
			best = append(best, 0)
		}
		copy(best[p+1:], best[p:len(best)-1])
		best[p] = i
	}
	return best
}

// ivfSelectivity implements F̂_IVF = n·p/|R| (paper Eq. 2).
func ivfSelectivity(nprobe, targetSize int, numVectors int64) float64 {
	if numVectors == 0 {
		return 1
	}
	f := float64(nprobe) * float64(targetSize) / float64(numVectors)
	if f > 1 {
		f = 1
	}
	return f
}

// exactQuantScan answers Exact queries on a quantized index at full
// precision: the raw store holds every vector (delta included) keyed by
// vid, so one sequential scan covers the collection. Asset ids are
// resolved only for the K survivors, not per scanned row. BytesScanned
// counts the float32 payload actually read. sf is opts.Filters split by
// splitFilters.
func (ix *Index) exactQuantScan(txn btree.ReadTxn, q []float32, opts SearchOptions, sf *scanFilter, info *PlanInfo, nparts int) ([]topk.Result, error) {
	heap := topk.New(opts.K)
	x := make([]float32, ix.cfg.Dim)
	var lk lookups
	lk.bind(ix, txn)
	err := ix.rawvecs.Scan(txn, nil, func(row reldb.Row) error {
		vid := row[0].Int
		if len(opts.Filters) > 0 {
			ok, ferr := ix.evalFilters(&lk, vid, nil, opts.Filters, sf.tokens)
			if ferr != nil {
				return ferr
			}
			if !ok {
				info.RowsFiltered++
				return nil
			}
		}
		vec.FromBlob(x, row[1].Bts)
		info.VectorsScanned++
		info.BytesScanned += int64(len(row[1].Bts))
		heap.Push(topk.Result{VectorID: vid, Distance: vec.Distance(ix.cfg.Metric, q, x)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := heap.Results()
	for _, i := range keyOrder(len(res), func(i int) int64 { return res[i].VectorID }) {
		asset, err := lk.assetOf(res[i].VectorID)
		if err != nil {
			return nil, err
		}
		res[i].AssetID = asset
	}
	info.PartitionsScanned += nparts
	return res, nil
}

// RerankCandidates recomputes exact distances for cands — the approximate
// candidates of a quantized scan, or the pooled output of CandidatesOnly
// searches, with their residual bounds, in any order — against the raw
// store and returns the top k, along with the raw bytes it read (counted
// into the caller's BytesScanned so the reported I/O stays honest; each
// row read is one float32 vector). Every candidate must belong to this
// index (its raw store holds the vid) and carry the Residual its scan gave
// it: a zero Residual claims an exact code. Only valid on a quantized
// index. On an L2 index it reads only the candidates that quantization
// error cannot rule out (see rerank); the result is the top k of a full
// rerank either way.
func (ix *Index) RerankCandidates(txn btree.ReadTxn, q []float32, cands []topk.Result, k int) ([]topk.Result, int64, error) {
	if ix.rawvecs == nil {
		return nil, 0, fmt.Errorf("ivf: RerankCandidates on an unquantized index")
	}
	_, d, err := ix.load(txn)
	if err != nil {
		return nil, 0, err
	}
	return ix.rerank(txn, d.cb, q, cands, k)
}

// rerankChunk is how many candidates the rerank reads between two checks
// of its stop condition, past the first k. A smaller chunk reads fewer rows
// the bound rules out; a larger one keeps more of the seeker's leaf path.
// Because a chunk still skips each candidate ruled out when its turn
// comes, the rows read hardly depend on it: on BenchmarkRerank (K=100, 400
// candidates) chunks of 4 to 400 read 108.9 to 109.0 rows per query, and
// 32 and 64 were the fastest, within the runs' spread.
const rerankChunk = 32

// rerank is RerankCandidates under codebook cb. On an L2 index with a
// codebook each candidate's approximate distance and residual bound give
// a lower bound on its float32 exact distance (quant.Bound), and the
// candidates are read in ascending bound order: the first k, then chunks
// of rerankChunk, each chunk in vid order through the seeker. Once the
// heap holds k rows, a candidate whose bound is strictly greater than the
// heap's worst distance is skipped, and the rerank stops at the first
// chunk that starts with one: its exact distance is greater than the worst
// retained, which only falls, so Push would reject it, as it would every
// later candidate. A tied candidate is still read, so the (Distance,
// VectorID) tie-break holds. The bound is not monotone in the approximate
// distance (residuals differ per row), which is why the order is the
// bound's. Equal bounds are ordered by (approximate distance, VectorID),
// so the rows read depend on the candidate set alone, not on the order it
// arrives in, which varies with the scan's worker count. On Dot and
// Cosine, or without a codebook, every candidate is read, in vid order.
func (ix *Index) rerank(txn btree.ReadTxn, cb *quant.Codebook, q []float32, cands []topk.Result, k int) ([]topk.Result, int64, error) {
	heap := topk.New(k)
	x := make([]float32, ix.cfg.Dim)
	var lk lookups
	lk.bind(ix, txn)
	var bytesRead int64
	read := func(c topk.Result) error {
		n, err := lk.readRawVector(c.VectorID, x)
		if err != nil {
			return err
		}
		bytesRead += int64(n)
		heap.Push(topk.Result{AssetID: c.AssetID, VectorID: c.VectorID, Distance: vec.Distance(ix.cfg.Metric, q, x)})
		return nil
	}
	if cb == nil || ix.cfg.Metric != vec.L2 {
		for _, i := range keyOrder(len(cands), func(i int) int64 { return cands[i].VectorID }) {
			if err := read(cands[i]); err != nil {
				return nil, 0, err
			}
		}
		return heap.Results(), bytesRead, nil
	}
	// keys holds each candidate's bound beside its index. A bound is never
	// NaN, so only its ties reach the candidates.
	type boundKey struct {
		bound float32
		i     int32
	}
	b := cb.NewBound(q)
	keys := make([]boundKey, len(cands))
	for i, c := range cands {
		keys[i] = boundKey{b.Lower(c.Distance, c.Residual), int32(i)}
	}
	slices.SortFunc(keys, func(x, y boundKey) int {
		if x.bound != y.bound {
			return cmp.Compare(x.bound, y.bound)
		}
		cx, cy := &cands[x.i], &cands[y.i]
		return cmp.Or(topk.CompareDistance(cx.Distance, cy.Distance), cmp.Compare(cx.VectorID, cy.VectorID))
	})
	ruledOut := func(key boundKey) bool {
		worst, full := heap.WorstDistance()
		return full && key.bound > worst
	}
	for start, end := 0, min(k, len(keys)); start < len(keys); start, end = end, min(end+rerankChunk, len(keys)) {
		if ruledOut(keys[start]) {
			break
		}
		chunk := keys[start:end]
		slices.SortFunc(chunk, func(x, y boundKey) int {
			return cmp.Compare(cands[x.i].VectorID, cands[y.i].VectorID)
		})
		for _, key := range chunk {
			if ruledOut(key) {
				continue
			}
			if err := read(cands[key.i]); err != nil {
				return nil, 0, err
			}
		}
	}
	return heap.Results(), bytesRead, nil
}

// ForEachAsset streams every stored asset id at txn's snapshot, in key
// order. The sharded invariant battery uses it to prove no asset id lives in
// two shards and that every id hashes to the shard holding it.
func (ix *Index) ForEachAsset(txn btree.ReadTxn, fn func(asset string) error) error {
	return ix.assets.ScanKeys(txn, nil, func(key reldb.Row) error {
		return fn(key[0].Str)
	})
}

// evalFilters applies the CNF filter set to the vector identified by vid,
// reading through lk. MATCH predicates are answered by posting probes of
// their column's full-text index, with the query's unique tokens from
// tokens (see scanFilter); row is vid's vids row when the caller already
// holds it, and nil otherwise, in which case filterColumns decodes only the
// columns the comparison predicates read. The filters must have passed
// splitFilters.
func (ix *Index) evalFilters(lk *lookups, vid int64, row reldb.Row, filters []stats.Filter, tokens map[string][]string) (bool, error) {
	rowMissing := false
	if row == nil {
		var buf [filterRowCols]reldb.Value
		var err error
		if row, rowMissing, err = ix.filterColumns(lk, vid, filters, buf[:]); err != nil {
			return false, err
		}
	}
	for gi := range filters {
		group := filters[gi].AnyOf
		matched := false
		for i := range group {
			pred := &group[i]
			if pred.Op == reldb.OpMatch {
				f := ix.ftsIndexes[pred.Column]
				hit, err := f.ContainsAllTokens(lk.postingsOf(f), vid, tokens[pred.Value.Str])
				if err != nil {
					return false, err
				}
				if hit {
					matched = true
					break
				}
				continue
			}
			if rowMissing {
				continue
			}
			if pred.Eval(&row[ix.attrPos[pred.Column]]) {
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

// filterRowCols is the vids row width evalFilters, and the number of
// attribute copies scanFilter.pass, decodes into stack memory; a wider row
// is allocated.
const filterRowCols = 8

// filterColumns reads vid's vids row in place through lk and decodes the
// columns that filters evaluate on the row, leaving the others NULL; the
// row is nil when no predicate reads one. It decodes before returning
// because the borrowed bytes last only until the next call on the
// transaction, and a full-text probe is such a call. missing reports a vid
// without a vids row. The row uses dst when it fits.
func (ix *Index) filterColumns(lk *lookups, vid int64, filters []stats.Filter, dst reldb.Row) (row reldb.Row, missing bool, err error) {
	var needBuf [filterRowCols]int
	need, last := needBuf[:0], 0
	for gi := range filters {
		for i := range filters[gi].AnyOf {
			if pred := &filters[gi].AnyOf[i]; pred.Op != reldb.OpMatch {
				pos := ix.attrPos[pred.Column]
				need = append(need, pos)
				last = max(last, pos)
			}
		}
	}
	if last == 0 {
		return nil, false, nil
	}
	lk.vidsReads++
	b, err := lk.vids.GetBorrowed(reldb.I(vid))
	if errors.Is(err, reldb.ErrNotFound) {
		return nil, true, nil
	}
	if err != nil {
		return nil, false, err
	}
	if len(dst) > last {
		row = dst[:last+1]
	} else {
		row = make(reldb.Row, last+1)
	}
	// Position 0 is the key (vid); the value columns start at 1.
	for pos := 1; pos <= last; pos++ {
		if slices.Contains(need, pos) {
			row[pos], b, err = reldb.DecodeRowValue(b)
		} else {
			b, err = reldb.SkipRowValue(b)
		}
		if err != nil {
			return nil, false, err
		}
	}
	return row, false, nil
}

// --- hybrid search ---

// choosePlan records in info the pre- or post-filter plan a filtered
// search runs: opts.Plan, or under PlanAuto the optimizer's choice from the
// attribute statistics ts.
func (ix *Index) choosePlan(txn btree.ReadTxn, opts SearchOptions, ts *stats.TableStats, info *PlanInfo) error {
	info.Plan = opts.Plan
	if opts.Plan != PlanAuto {
		return nil
	}
	fsel, err := ix.estimateFilterSelectivity(txn, ts, opts.Filters)
	if err != nil {
		return err
	}
	info.FilterSelectivity = fsel
	// The optimizer rule (§3.5.1): pre-filter iff the attribute filter
	// narrows the search more than the IVF probe set would.
	info.Plan = PlanPostFilter
	if fsel < info.IVFSelectivity {
		info.Plan = PlanPreFilter
	}
	return nil
}

// estimateFilterSelectivity computes F̂_filters from the attribute
// statistics ts and FTS document frequencies.
func (ix *Index) estimateFilterSelectivity(txn btree.ReadTxn, ts *stats.TableStats, filters []stats.Filter) (float64, error) {
	if ts == nil {
		return 1, nil // never analyzed: assume non-selective
	}
	docFreq := func(column, token string) (int64, int64, error) {
		f := ix.ftsIndexes[column]
		df, err := f.DocFreq(txn, token)
		if err != nil {
			return 0, 0, err
		}
		total, err := f.TotalDocs(txn)
		if err != nil {
			return 0, 0, err
		}
		return df, total, nil
	}
	return ts.FilterSelectivity(filters, docFreq)
}

// preFilterSearch evaluates the filters first, then brute-forces the
// qualifying vectors — 100% recall over the filtered set (paper §3.5).
// The driver is the most selective index-supported filter group; remaining
// groups are verified against the vids row, which also supplies the asset
// id. The qualifying vids are read in ascending order. sf is opts.Filters
// split by splitFilters.
func (ix *Index) preFilterSearch(txn btree.ReadTxn, q []float32, opts SearchOptions, sf *scanFilter, ts *stats.TableStats, info *PlanInfo) ([]topk.Result, error) {
	driver, rest, err := ix.chooseDriver(txn, ts, opts.Filters, sf.tokens)
	if err != nil {
		return nil, err
	}
	heap := topk.New(opts.K)
	x := make([]float32, ix.cfg.Dim)
	var lk lookups
	lk.bind(ix, txn)

	// process verifies the filter groups in verify (if any) against vid's
	// vids row, fetches the vector and offers it to the heap.
	process := func(vid int64, row reldb.Row, verify []stats.Filter) error {
		if len(verify) > 0 {
			ok, err := ix.evalFilters(&lk, vid, row, verify, sf.tokens)
			if err != nil {
				return err
			}
			if !ok {
				info.RowsFiltered++
				return nil
			}
		}
		// Pre-filter plans promise 100% recall over the filtered set, so
		// a quantized index reads exact vectors from the raw store.
		asset := row[1].Str
		n, err := lk.readExactVector(vid, asset, x)
		if err != nil {
			return err
		}
		info.VectorsScanned++
		info.BytesScanned += int64(n)
		heap.Push(topk.Result{AssetID: asset, VectorID: vid, Distance: vec.Distance(ix.cfg.Metric, q, x)})
		return nil
	}

	if driver == nil {
		// No index-supported group: brute-force the vids table.
		err = ix.vids.Scan(txn, nil, func(row reldb.Row) error {
			return process(row[0].Int, row, opts.Filters)
		})
		if err != nil {
			return nil, err
		}
		return heap.Results(), nil
	}

	var vids []int64
	err = ix.driveGroup(txn, *driver, sf.tokens, func(vid int64) error {
		vids = append(vids, vid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(vids)
	for _, vid := range slices.Compact(vids) {
		row, err := lk.vids.Get(reldb.I(vid))
		if errors.Is(err, reldb.ErrNotFound) {
			continue // index entry without a vector (shouldn't happen)
		}
		if err != nil {
			return nil, err
		}
		if err := process(vid, row, rest); err != nil {
			return nil, err
		}
	}
	return heap.Results(), nil
}

// chooseDriver picks the filter group whose predicates can all be driven
// from secondary/FTS indexes, preferring the most selective one. It returns
// nil when no group qualifies. tokens holds each MATCH query's unique
// tokens.
func (ix *Index) chooseDriver(txn btree.ReadTxn, ts *stats.TableStats, filters []stats.Filter, tokens map[string][]string) (*stats.Filter, []stats.Filter, error) {
	best := -1
	var bestSel float64
	for i, group := range filters {
		drivable := true
		for j := range group.AnyOf {
			if !ix.predDrivable(&group.AnyOf[j], tokens) {
				drivable = false
				break
			}
		}
		if !drivable {
			continue
		}
		sel, err := ix.estimateFilterSelectivity(txn, ts, []stats.Filter{group})
		if err != nil {
			return nil, nil, err
		}
		if best == -1 || sel < bestSel {
			best, bestSel = i, sel
		}
	}
	if best == -1 {
		return nil, filters, nil
	}
	rest := make([]stats.Filter, 0, len(filters)-1)
	rest = append(rest, filters[:best]...)
	rest = append(rest, filters[best+1:]...)
	return &filters[best], rest, nil
}

// predDrivable reports whether an index can enumerate the rows pred
// selects. A MATCH without tokens constrains nothing, so it drives no plan.
func (ix *Index) predDrivable(pred *reldb.Predicate, tokens map[string][]string) bool {
	switch pred.Op {
	case reldb.OpMatch:
		return len(tokens[pred.Value.Str]) > 0
	case reldb.OpEq, reldb.OpLt, reldb.OpLe, reldb.OpGt, reldb.OpGe:
		_, ok := ix.attrIndexes[pred.Column]
		return ok
	default: // != cannot use an index range
		return false
	}
}

// driveGroup streams the vids matching any predicate of the group from the
// appropriate index structures. tokens holds each MATCH query's unique
// tokens.
func (ix *Index) driveGroup(txn btree.ReadTxn, group stats.Filter, tokens map[string][]string, fn func(vid int64) error) error {
	for _, pred := range group.AnyOf {
		if pred.Op == reldb.OpMatch {
			f := ix.ftsIndexes[pred.Column]
			if err := f.MatchScan(txn, tokens[pred.Value.Str], fn); err != nil {
				return err
			}
			continue
		}
		idx := ix.attrIndexes[pred.Column]
		emit := func(vals, pk reldb.Row) error { return fn(pk[0].Int) }
		var err error
		switch pred.Op {
		case reldb.OpEq:
			err = idx.Scan(txn, []reldb.Value{pred.Value}, emit)
		case reldb.OpLt:
			err = idx.ScanRange(txn, reldb.Null(), pred.Value, false, false, emit)
		case reldb.OpLe:
			err = idx.ScanRange(txn, reldb.Null(), pred.Value, false, true, emit)
		case reldb.OpGt:
			err = idx.ScanRange(txn, pred.Value, reldb.Null(), false, false, emit)
		case reldb.OpGe:
			err = idx.ScanRange(txn, pred.Value, reldb.Null(), true, false, emit)
		default:
			err = fmt.Errorf("ivf: cannot drive %v from an index", pred.Op)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
