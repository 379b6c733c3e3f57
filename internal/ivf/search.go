package ivf

import (
	"errors"
	"fmt"
	"sort"

	"micronn/internal/btree"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/token"
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
	// PlanPostFilter runs the IVF scan with the filter applied to each
	// candidate during the partition scan.
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
	VectorsScanned    int64 // vectors whose distance was computed
	RowsFiltered      int64 // candidates rejected by predicates pre-distance
	// BytesScanned is the vector payload volume the query read: one byte
	// per dimension on quantized partition scans, four otherwise, plus
	// the exact vectors fetched by the rerank phase — the I/O metric the
	// SQ8 path reduces.
	BytesScanned int64
	// Reranked counts quantized candidates recomputed at full precision
	// against the raw store.
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
	info := &PlanInfo{Plan: PlanPostFilter}

	cs, err := ix.loadCentroids(txn)
	if err != nil {
		return nil, nil, err
	}
	st, err := ix.getState(txn)
	if err != nil {
		return nil, nil, err
	}

	var parts []int64
	if opts.Exact {
		parts = append([]int64{DeltaPartition}, cs.ids...)
	} else {
		info.IVFSelectivity = ivfSelectivity(opts.NProbe, ix.cfg.TargetPartitionSize, st.NumVectors)
		if len(opts.Filters) > 0 {
			if err := ix.choosePlan(txn, opts, st, info); err != nil {
				return nil, nil, err
			}
			if info.Plan == PlanPreFilter {
				res, err := ix.preFilterSearch(txn, q, opts, info)
				return res, info, err
			}
		}
		parts = ix.probeSet(cs, q, opts.NProbe)
	}
	cb, err := ix.loadCodebook(txn)
	if err != nil {
		return nil, nil, err
	}
	if opts.Exact && cb != nil {
		// Exhaustive search on a quantized index: one sequential pass over
		// the raw store instead of scanning lossy codes and chasing a
		// random raw lookup per row.
		res, err := ix.exactQuantScan(txn, q, opts, info, len(parts))
		return res, info, err
	}

	// The scan engine's one-query case.
	one := []int{0}
	work := make([]partWork, len(parts))
	for i, p := range parts {
		work[i] = partWork{part: p, queries: one}
	}
	var c scanCounts
	out, err := ix.scan(txn, cb, &vec.Matrix{Data: q, Rows: 1, Dim: len(q)}, work, opts.Filters, BatchOptions{
		K: opts.K, RerankFactor: opts.RerankFactor, CandidatesOnly: opts.CandidatesOnly, Cancel: opts.Cancel,
	}, &c)
	if err != nil {
		return nil, nil, err
	}
	info.PartitionsScanned += len(parts)
	info.VectorsScanned += c.scanned.Load()
	info.RowsFiltered += c.filtered.Load()
	info.BytesScanned += c.bytes.Load()
	info.Reranked += int(c.reranked.Load())
	info.CandidatesApprox = cb != nil && opts.CandidatesOnly
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
	ps := ix.getProbeScratch(cs.mat.Rows)
	defer ix.probePool.Put(ps)
	dists := ps.dists[:cs.mat.Rows]
	vec.DistancesOneToMany(ix.cfg.Metric, q, cs.mat, l2Only(ix.cfg.Metric, cs.norms), dists)
	order := ps.order[:cs.mat.Rows]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	parts := make([]int64, 0, nprobe+1)
	parts = append(parts, DeltaPartition)
	for _, i := range order[:nprobe] {
		parts = append(parts, cs.ids[i])
	}
	return parts
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

// matchSet holds the MATCH queries of one search compiled once (query
// tokenized, token set indexed), so row-loop filter evaluation never
// re-tokenizes the query or rebuilds a per-document token set. Immutable
// after compileMatchers, hence safe to share across scan workers.
type matchSet struct {
	byQuery map[string]*token.Matcher
	eval    reldb.MatchFunc
}

// compileMatchers pre-tokenizes every MATCH predicate in filters. Returns
// nil when there is nothing to compile.
func compileMatchers(filters []stats.Filter) *matchSet {
	var byQuery map[string]*token.Matcher
	for _, group := range filters {
		for _, pred := range group.AnyOf {
			if pred.Op != reldb.OpMatch {
				continue
			}
			if byQuery == nil {
				byQuery = make(map[string]*token.Matcher)
			}
			if _, ok := byQuery[pred.Value.Str]; !ok {
				byQuery[pred.Value.Str] = token.NewMatcher(pred.Value.Str)
			}
		}
	}
	if byQuery == nil {
		return nil
	}
	ms := &matchSet{byQuery: byQuery}
	ms.eval = func(doc, query string) bool {
		if m, ok := ms.byQuery[query]; ok {
			return m.Match(doc)
		}
		return token.Match(doc, query)
	}
	return ms
}

// matchFunc returns the MatchFunc Predicate.Eval should use: the compiled
// one when available, the one-shot tokenizer otherwise.
func (ms *matchSet) matchFunc() reldb.MatchFunc {
	if ms == nil {
		return token.Match
	}
	return ms.eval
}

// tokens returns query's pre-tokenized unique token set.
func (ms *matchSet) tokens(query string) []string {
	if ms != nil {
		if m, ok := ms.byQuery[query]; ok {
			return m.Tokens()
		}
	}
	return token.Unique(query)
}

// exactQuantScan answers Exact queries on a quantized index at full
// precision: the raw store holds every vector (delta included) keyed by
// vid, so one sequential scan covers the collection. Asset ids are
// resolved only for the K survivors, not per scanned row. BytesScanned
// counts the float32 payload actually read.
func (ix *Index) exactQuantScan(txn btree.ReadTxn, q []float32, opts SearchOptions, info *PlanInfo, nparts int) ([]topk.Result, error) {
	heap := topk.New(opts.K)
	x := make([]float32, ix.cfg.Dim)
	ms := compileMatchers(opts.Filters)
	err := ix.rawvecs.Scan(txn, nil, func(row reldb.Row) error {
		vid := row[0].Int
		if len(opts.Filters) > 0 {
			ok, ferr := ix.evalFilters(txn, vid, opts.Filters, ms)
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
	for i := range res {
		vrow, err := ix.vids.Get(txn, reldb.I(res[i].VectorID))
		if err != nil {
			return nil, err
		}
		res[i].AssetID = vrow[2].Str
	}
	info.PartitionsScanned += nparts
	return res, nil
}

// RerankCandidates recomputes exact distances for cands — the approximate
// candidates of a quantized scan, or the pooled output of CandidatesOnly
// searches — against the raw store and returns the top k, along with the
// raw bytes it read (counted into the caller's BytesScanned so the
// reported I/O stays honest). Every candidate must belong to this index
// (its raw store holds the vid). Only valid on a quantized index.
func (ix *Index) RerankCandidates(txn btree.ReadTxn, q []float32, cands []topk.Result, k int) ([]topk.Result, int64, error) {
	if ix.rawvecs == nil {
		return nil, 0, fmt.Errorf("ivf: RerankCandidates on an unquantized index")
	}
	heap := topk.New(k)
	x := make([]float32, ix.cfg.Dim)
	var bytesRead int64
	for _, c := range cands {
		n, err := ix.readRawVector(txn, c.VectorID, x)
		if err != nil {
			return nil, 0, err
		}
		bytesRead += int64(n)
		heap.Push(topk.Result{AssetID: c.AssetID, VectorID: c.VectorID, Distance: vec.Distance(ix.cfg.Metric, q, x)})
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

// evalFilters applies the CNF filter set to the vector identified by vid.
// MATCH predicates on full-text attributes are answered by direct posting
// probes; the attribute row is fetched lazily, only when a comparison
// predicate needs it. ms carries the search's compiled MATCH queries (nil
// is allowed and falls back to one-shot tokenization); callers evaluating
// many rows must compile once with compileMatchers.
func (ix *Index) evalFilters(txn btree.ReadTxn, vid int64, filters []stats.Filter, ms *matchSet) (bool, error) {
	var row reldb.Row
	var rowLoaded, rowMissing bool
	loadRow := func() error {
		if rowLoaded {
			return nil
		}
		rowLoaded = true
		var err error
		row, err = ix.attrs.Get(txn, reldb.I(vid))
		if errors.Is(err, reldb.ErrNotFound) {
			rowMissing = true
			return nil
		}
		return err
	}
	for _, group := range filters {
		matched := false
		for _, pred := range group.AnyOf {
			pos, ok := ix.attrPos[pred.Column]
			if !ok {
				return false, fmt.Errorf("%w: %q", ErrNoFilter, pred.Column)
			}
			if pred.Op == reldb.OpMatch {
				if f, ok := ix.ftsIndexes[pred.Column]; ok {
					hit, err := f.ContainsAllTokens(txn, vid, ms.tokens(pred.Value.Str))
					if err != nil {
						return false, err
					}
					if hit {
						matched = true
						break
					}
					continue
				}
			}
			if err := loadRow(); err != nil {
				return false, err
			}
			if rowMissing {
				continue
			}
			if pred.Eval(row[pos], ms.matchFunc()) {
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

// --- hybrid search ---

// choosePlan records in info the pre- or post-filter plan a filtered
// search runs: opts.Plan, or under PlanAuto the optimizer's choice.
func (ix *Index) choosePlan(txn btree.ReadTxn, opts SearchOptions, st state, info *PlanInfo) error {
	info.Plan = opts.Plan
	if opts.Plan != PlanAuto {
		return nil
	}
	fsel, err := ix.estimateFilterSelectivity(txn, opts.Filters, st.Generation)
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

// estimateFilterSelectivity computes F̂_filters using cached attribute
// statistics and FTS document frequencies.
func (ix *Index) estimateFilterSelectivity(txn btree.ReadTxn, filters []stats.Filter, gen int64) (float64, error) {
	ts, err := ix.attrStats(txn, gen)
	if err != nil {
		return 1, err
	}
	if ts == nil {
		return 1, nil // never analyzed: assume non-selective
	}
	docFreq := func(column, token string) (int64, int64, error) {
		f, ok := ix.ftsIndexes[column]
		if !ok {
			return 0, 0, fmt.Errorf("%w: MATCH on %q without full-text index", ErrNoFilter, column)
		}
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

// attrStats returns cached attribute statistics, reloading when the index
// generation changed.
func (ix *Index) attrStats(txn btree.ReadTxn, gen int64) (*stats.TableStats, error) {
	ix.statsMu.Lock()
	if ix.statsCache != nil && ix.statsGen == gen {
		ts := ix.statsCache
		ix.statsMu.Unlock()
		return ts, nil
	}
	ix.statsMu.Unlock()
	ts, err := stats.Load(ix.db, txn, tblAttrs)
	if err != nil {
		return nil, err
	}
	ix.statsMu.Lock()
	ix.statsCache = ts
	ix.statsGen = gen
	ix.statsMu.Unlock()
	return ts, nil
}

// preFilterSearch evaluates the filters first, then brute-forces the
// qualifying vectors — 100% recall over the filtered set (paper §3.5).
// The driver is the most selective index-supported filter group; remaining
// groups are verified against the attribute row.
func (ix *Index) preFilterSearch(txn btree.ReadTxn, q []float32, opts SearchOptions, info *PlanInfo) ([]topk.Result, error) {
	driver, rest, err := ix.chooseDriver(txn, opts.Filters)
	if err != nil {
		return nil, err
	}
	heap := topk.New(opts.K)
	x := make([]float32, ix.cfg.Dim)
	ms := compileMatchers(opts.Filters)

	// process verifies the remaining filter groups (if any), fetches the
	// vector and offers it to the heap.
	process := func(vid int64, verify []stats.Filter) error {
		if len(verify) > 0 {
			ok, err := ix.evalFilters(txn, vid, verify, ms)
			if err != nil {
				return err
			}
			if !ok {
				info.RowsFiltered++
				return nil
			}
		}
		vrow, err := ix.vids.Get(txn, reldb.I(vid))
		if errors.Is(err, reldb.ErrNotFound) {
			return nil // attr row without vector (shouldn't happen)
		}
		if err != nil {
			return err
		}
		part, asset := vrow[1].Int, vrow[2].Str
		var n int
		if ix.rawvecs != nil {
			// Pre-filter plans promise 100% recall over the filtered set,
			// so a quantized index reads exact vectors from the raw store.
			n, err = ix.readRawVector(txn, vid, x)
		} else {
			n, err = ix.readPartitionVector(txn, part, vid, x)
		}
		if err != nil {
			return err
		}
		info.VectorsScanned++
		info.BytesScanned += int64(n)
		heap.Push(topk.Result{AssetID: asset, VectorID: vid, Distance: vec.Distance(ix.cfg.Metric, q, x)})
		return nil
	}

	if driver == nil {
		// No index-supported group: brute-force the attribute table.
		err = ix.attrs.ScanKeys(txn, nil, func(key reldb.Row) error {
			vid := key[0].Int
			ok, err := ix.evalFilters(txn, vid, opts.Filters, ms)
			if err != nil {
				return err
			}
			if !ok {
				info.RowsFiltered++
				return nil
			}
			return process(vid, nil)
		})
		if err != nil {
			return nil, err
		}
		return heap.Results(), nil
	}

	seen := make(map[int64]struct{})
	err = ix.driveGroup(txn, *driver, func(vid int64) error {
		if _, dup := seen[vid]; dup {
			return nil
		}
		seen[vid] = struct{}{}
		return process(vid, rest)
	})
	if err != nil {
		return nil, err
	}
	return heap.Results(), nil
}

// chooseDriver picks the filter group whose predicates can all be driven
// from secondary/FTS indexes, preferring the most selective one. It returns
// nil when no group qualifies.
func (ix *Index) chooseDriver(txn btree.ReadTxn, filters []stats.Filter) (*stats.Filter, []stats.Filter, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return nil, nil, err
	}
	best := -1
	var bestSel float64
	for i, group := range filters {
		drivable := true
		for _, pred := range group.AnyOf {
			if !ix.predDrivable(pred) {
				drivable = false
				break
			}
		}
		if !drivable {
			continue
		}
		sel, err := ix.estimateFilterSelectivity(txn, []stats.Filter{group}, st.Generation)
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

func (ix *Index) predDrivable(pred reldb.Predicate) bool {
	switch pred.Op {
	case reldb.OpMatch:
		_, ok := ix.ftsIndexes[pred.Column]
		return ok
	case reldb.OpEq, reldb.OpLt, reldb.OpLe, reldb.OpGt, reldb.OpGe:
		_, ok := ix.attrIndexes[pred.Column]
		return ok
	default: // != cannot use an index range
		return false
	}
}

// driveGroup streams the vids matching any predicate of the group from the
// appropriate index structures.
func (ix *Index) driveGroup(txn btree.ReadTxn, group stats.Filter, fn func(vid int64) error) error {
	for _, pred := range group.AnyOf {
		if pred.Op == reldb.OpMatch {
			f := ix.ftsIndexes[pred.Column]
			if err := f.MatchScan(txn, pred.Value.Str, fn); err != nil {
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
