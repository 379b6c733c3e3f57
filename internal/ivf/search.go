package ivf

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"micronn/internal/btree"
	"micronn/internal/fts"
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
	// groups are never evaluated for the others or counted.
	RowsFiltered int64
	// BytesScanned is the vector payload volume the query read: one byte
	// per dimension on quantized partition scans, four otherwise, for
	// every row read, plus the exact vectors fetched by the rerank phase —
	// the I/O metric the SQ8 path reduces.
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
				res, err := ix.preFilterSearch(txn, q, opts, d.stats, info)
				return res, info, err
			}
		}
		parts = ix.probeSet(d.cents, q, opts.NProbe)
	}
	if opts.Exact && d.cb != nil {
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
	var lk lookups
	lk.bind(ix, txn)
	err := ix.rawvecs.Scan(txn, nil, func(row reldb.Row) error {
		vid := row[0].Int
		if len(opts.Filters) > 0 {
			ok, ferr := ix.evalFilters(&lk, vid, nil, opts.Filters, ms)
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
// searches — against the raw store and returns the top k, along with the
// raw bytes it read (counted into the caller's BytesScanned so the
// reported I/O stays honest). Every candidate must belong to this index
// (its raw store holds the vid). Only valid on a quantized index. The
// exact vectors are read in vid order.
func (ix *Index) RerankCandidates(txn btree.ReadTxn, q []float32, cands []topk.Result, k int) ([]topk.Result, int64, error) {
	if ix.rawvecs == nil {
		return nil, 0, fmt.Errorf("ivf: RerankCandidates on an unquantized index")
	}
	heap := topk.New(k)
	x := make([]float32, ix.cfg.Dim)
	var lk lookups
	lk.bind(ix, txn)
	var bytesRead int64
	for _, i := range keyOrder(len(cands), func(i int) int64 { return cands[i].VectorID }) {
		c := cands[i]
		n, err := lk.readRawVector(c.VectorID, x)
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

// evalFilters applies the CNF filter set to the vector identified by vid,
// reading through lk. MATCH predicates on full-text attributes are answered
// by direct posting probes; row is vid's vids row when the caller already
// holds it, and nil otherwise, in which case filterColumns decodes only the
// columns the comparison predicates read. ms carries the search's compiled
// MATCH queries (nil is allowed and falls back to one-shot tokenization);
// callers evaluating many rows must compile once with compileMatchers.
func (ix *Index) evalFilters(lk *lookups, vid int64, row reldb.Row, filters []stats.Filter, ms *matchSet) (bool, error) {
	rowMissing := false
	if row == nil {
		var buf [filterRowCols]reldb.Value
		var err error
		if row, rowMissing, err = ix.filterColumns(lk, vid, filters, buf[:]); err != nil {
			return false, err
		}
	}
	for _, group := range filters {
		matched := false
		for _, pred := range group.AnyOf {
			pos, ok := ix.attrPos[pred.Column]
			if !ok {
				return false, fmt.Errorf("%w: %q", ErrNoFilter, pred.Column)
			}
			if f := ix.ftsProbe(pred); f != nil {
				hit, err := f.ContainsAllTokens(lk.postingsOf(f), vid, ms.tokens(pred.Value.Str))
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

// filterRowCols is the vids row width evalFilters, and the number of
// attribute copies scanFilter.pass, decodes into stack memory; a wider row
// is allocated.
const filterRowCols = 8

// ftsProbe returns the full-text index that answers pred, a MATCH on a
// full-text attribute, and nil for a predicate evaluated on the row.
func (ix *Index) ftsProbe(pred reldb.Predicate) *fts.Index {
	if pred.Op != reldb.OpMatch {
		return nil
	}
	return ix.ftsIndexes[pred.Column]
}

// filterColumns reads vid's vids row in place through lk and decodes the
// columns that filters evaluate on the row, leaving the others NULL; the
// row is nil when no predicate reads one. It decodes before returning
// because the borrowed bytes last only until the next call on the
// transaction, and a full-text probe is such a call. missing reports a vid
// without a vids row. The row uses dst when it fits.
func (ix *Index) filterColumns(lk *lookups, vid int64, filters []stats.Filter, dst reldb.Row) (row reldb.Row, missing bool, err error) {
	var needBuf [filterRowCols]int
	need, last := needBuf[:0], 0
	for _, group := range filters {
		for _, pred := range group.AnyOf {
			if pos, ok := ix.attrPos[pred.Column]; ok && ix.ftsProbe(pred) == nil {
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

// preFilterSearch evaluates the filters first, then brute-forces the
// qualifying vectors — 100% recall over the filtered set (paper §3.5).
// The driver is the most selective index-supported filter group; remaining
// groups are verified against the vids row, which also supplies the asset
// id. The qualifying vids are read in ascending order.
func (ix *Index) preFilterSearch(txn btree.ReadTxn, q []float32, opts SearchOptions, ts *stats.TableStats, info *PlanInfo) ([]topk.Result, error) {
	driver, rest, err := ix.chooseDriver(txn, ts, opts.Filters)
	if err != nil {
		return nil, err
	}
	heap := topk.New(opts.K)
	x := make([]float32, ix.cfg.Dim)
	ms := compileMatchers(opts.Filters)
	var lk lookups
	lk.bind(ix, txn)

	// process verifies the filter groups in verify (if any) against vid's
	// vids row, fetches the vector and offers it to the heap.
	process := func(vid int64, row reldb.Row, verify []stats.Filter) error {
		if len(verify) > 0 {
			ok, err := ix.evalFilters(&lk, vid, row, verify, ms)
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
	err = ix.driveGroup(txn, *driver, func(vid int64) error {
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
// nil when no group qualifies.
func (ix *Index) chooseDriver(txn btree.ReadTxn, ts *stats.TableStats, filters []stats.Filter) (*stats.Filter, []stats.Filter, error) {
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
