package micronn

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"micronn/internal/ivf"
	"micronn/internal/rescache"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// Store is the method set shared by DB and ShardedDB. Every method of it
// is the embedded router's (a DB is its one-shard case), so writes,
// queries, snapshots, maintenance, stats and the result cache behave
// identically on either; code that should run against a single store and a
// sharded one alike (the CLI, benchmarks, examples) programs against this
// interface.
type Store interface {
	Close() error
	Dim() int
	Upsert(Item) error
	UpsertBatch([]Item) error
	Delete(string) error
	DeleteBatch([]string) error
	Get(string) (*Item, error)
	Search(SearchRequest) (*SearchResponse, error)
	HybridSearch(HybridRequest) (*HybridResponse, error)
	BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
	Snapshot() (*Snapshot, error)
	Rebuild() (*MaintenanceReport, error)
	FlushDelta() (*MaintenanceReport, error)
	Maintain() (*MaintenanceReport, error)
	Analyze() error
	Checkpoint() error
	DropCaches()
	Stats() (Stats, error)
}

// Both database flavors implement Store.
var (
	_ Store = (*DB)(nil)
	_ Store = (*ShardedDB)(nil)
)

// router is the front end that DB and ShardedDB share: it holds the whole
// Store method set, each method written once over the router's N >= 1
// shards. A query is a pipeline — normalize, cache key, per-shard execute,
// merge — behind one result-cache protocol (query). A point write goes
// straight to its shard's group committer; a batch is grouped by shard and
// scattered. Maintenance and Stats scatter a per-shard step of DB's and
// fold the results. A DB is the one-shard case: its router lists the DB
// itself, the scatter runs inline without goroutines, ivf returns final
// exact results (no CandidatesOnly), so the merge has nothing to rerank
// and a single store does the same index work per query as a direct ivf
// call.
type router struct {
	shards []*DB
	// seed is the id hash seed (the manifest's on a sharded database).
	seed uint64

	// cache is the result cache (nil when disabled). One cache serves the
	// whole router; entries record one commit horizon per shard, and on
	// N > 1 shards the per-shard candidate sets too, so a lookup whose
	// generations partially match reuses the unchanged shards' candidates
	// and re-scans only the shards that moved.
	cache *rescache.Cache

	// closed flips once at Close; public methods fail with ErrClosed
	// afterwards instead of touching a closed store.
	closed atomic.Bool

	// hybridSearches counts HybridSearch calls through this router. Hybrid
	// queries run at the router, never on a shard, so Stats reports this
	// count and a shard's own stats carry none.
	hybridSearches atomic.Uint64
}

// checkOpen guards public entry points against use after Close.
func (r *router) checkOpen() error {
	if r.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Dim returns the configured vector dimensionality.
func (r *router) Dim() int { return r.shards[0].ix.Config().Dim }

// shardOf routes an id to its shard (see shardIndex).
func (r *router) shardOf(id string) int {
	return shardIndex(r.seed, id, len(r.shards))
}

// scatter runs fn once per shard — concurrently on N > 1 shards, inline on
// one — and returns the first error.
func (r *router) scatter(fn func(i int, sh *DB) error) error {
	return r.scatterCancel(func(i int, sh *DB, _ <-chan struct{}) error { return fn(i, sh) })
}

// scatterCancel is scatter for the search paths: the first shard to fail
// closes the shared cancel channel, so still-running sibling scans abandon
// their remaining partitions instead of completing work whose result the
// gather will discard. fn forwards cancel into its scan's SearchOptions/
// BatchOptions; a sibling reaped this way reports ivf.ErrCanceled, which
// is an echo of the original failure, never the returned error. A single
// shard has no siblings: it runs inline with a nil channel.
func (r *router) scatterCancel(fn func(i int, sh *DB, cancel <-chan struct{}) error) error {
	if len(r.shards) == 1 {
		return fn(0, r.shards[0], nil)
	}
	cancel := make(chan struct{})
	var once sync.Once
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i, sh := range r.shards {
		wg.Add(1)
		go func(i int, sh *DB) {
			defer wg.Done()
			err := fn(i, sh, cancel)
			errs[i] = err
			if err != nil && !errors.Is(err, ivf.ErrCanceled) {
				once.Do(func() { close(cancel) })
			}
		}(i, sh)
	}
	wg.Wait()
	var echo error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ivf.ErrCanceled) {
			return err
		}
		echo = err
	}
	return echo
}

// pin opens one read transaction per shard for a live query. Each pins its
// own shard's commit horizon; see ShardedDB for the cross-shard contract.
func (r *router) pin() ([]*storage.ReadTxn, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	rts := make([]*storage.ReadTxn, len(r.shards))
	for i, sh := range r.shards {
		rt, err := sh.store.BeginRead()
		if err != nil {
			closeReads(rts[:i])
			return nil, err
		}
		rts[i] = rt
	}
	return rts, nil
}

func closeReads(rts []*storage.ReadTxn) {
	for _, rt := range rts {
		if rt != nil {
			rt.Close()
		}
	}
}

// readGens returns each shard's commit horizon at its pinned snapshot: the
// generations the result cache validates entries against. Within one store
// handle every commit moves the horizon and nothing else does, so equal
// horizons mean identical data.
func readGens(rts []*storage.ReadTxn) []uint64 {
	gens := make([]uint64, len(rts))
	for i, rt := range rts {
		gens[i] = rt.Horizon()
	}
	return gens
}

// --- the result-cache protocol ---

// response is what the cache protocol needs from a query kind's response.
type response[R any] interface {
	// clone copies a shared cached response before it is handed out:
	// cached values are shared, and callers own what they receive.
	clone() R
	// cacheSize estimates the footprint for the cache's byte budget.
	cacheSize() int64
}

// shardOutput is one shard's pre-merge contribution to a query.
type shardOutput interface{ cacheSize() int64 }

// request is one query's pass through the cache protocol.
type request[O shardOutput, R response[R]] struct {
	// key fingerprints the normalized request (computed only when the
	// cache is consulted).
	key func() rescache.Key
	// filters is the request's filter count, for the admission policy.
	filters int
	noCache bool
	// run scatters and merges at the pinned transactions. reuse, when
	// non-nil, supplies cached outputs for shards whose commit horizon
	// has not moved; those shards are not scanned. Kinds without reusable
	// per-shard outputs return nil outs.
	run func(reuse []*O) (outs []O, resp R, err error)
}

// cacheEntry is one cached response plus, on N > 1 shards, the per-shard
// outputs it was merged from, for partial reuse. A single shard can never
// be partially reused, so its entries hold the response alone.
type cacheEntry[O, R any] struct {
	outs []O
	resp R
}

// flightResult carries a singleflight computation's response together with
// the generations its snapshot observed, so joiners can revalidate.
type flightResult[R any] struct {
	resp R
	gens []uint64
}

// query runs q through the result-cache protocol at the pinned per-shard
// transactions rts. A live query (live = true):
//
//  1. Fast path: a counted lookup at rts' generations serves a valid entry
//     without entering the flight, so concurrent hits never serialize.
//  2. Miss or stale: concurrent identical queries coalesce in a
//     singleflight. The leader looks up again (another flight may have
//     just filled the entry), reuses a stale entry's unchanged shards,
//     computes, and stores the response stamped with the generations it
//     was computed at — never a newer counter.
//  3. A caller that merely JOINED a flight serves the shared response only
//     when its generations equal the ones the caller read itself, and
//     otherwise recomputes at its own transactions: a flight started
//     before this caller's write committed must not answer for it
//     (read-your-writes under coalescing).
//
// A pinned snapshot (live = false) consults the cache at its own
// generations — a hit or partial reuse is exact there too — but never
// stores: an entry stamped with an old horizon would displace entries the
// live traffic still needs.
func query[O shardOutput, R response[R]](r *router, rts []*storage.ReadTxn, live bool, q request[O, R]) (R, error) {
	var zero R
	if r.cache == nil || q.noCache {
		_, resp, err := q.run(nil)
		return resp, err
	}
	gens := readGens(rts)
	key := q.key()
	// resolve serves a looked-up entry or computes (and, live, stores) the
	// response; it returns the shared value, which callers clone.
	resolve := func(v any, stored []uint64, out rescache.Outcome) (R, error) {
		if out == rescache.Hit {
			return v.(*cacheEntry[O, R]).resp, nil
		}
		var reuse []*O
		if out == rescache.Stale {
			reuse = reusableOuts(v.(*cacheEntry[O, R]).outs, stored, gens, r.cache)
		}
		outs, resp, err := q.run(reuse)
		if err != nil || !live {
			return resp, err
		}
		e := &cacheEntry[O, R]{resp: resp}
		size := resp.cacheSize()
		if len(r.shards) > 1 {
			e.outs = outs
			for _, o := range outs {
				size += o.cacheSize()
			}
		}
		r.cache.PutWithPolicy(key, gens, e, size, rescache.PutPolicy{FilterHeavy: q.filters >= filterHeavyFilters})
		return resp, nil
	}
	if v, stored, out := r.cache.Get(key, gens); out == rescache.Hit || !live {
		resp, err := resolve(v, stored, out)
		if err != nil {
			return zero, err
		}
		return resp.clone(), nil
	}
	lead := func() (R, error) { return resolve(r.cache.Lookup(key, gens)) }
	v, shared, err := r.cache.Do(key, func() (any, error) {
		resp, err := lead()
		if err != nil {
			return nil, err
		}
		return flightResult[R]{resp: resp, gens: gens}, nil
	})
	if err != nil {
		return zero, err
	}
	fr := v.(flightResult[R])
	if shared && !slices.Equal(fr.gens, gens) {
		if fr.resp, err = lead(); err != nil {
			return zero, err
		}
	}
	return fr.resp.clone(), nil
}

// reusableOuts maps a stale entry's per-shard outputs onto the current
// generations: position i is reusable iff shard i's generation did not
// move. Returns nil when nothing is reusable (or the shapes disagree, e.g.
// a single-shard entry, which keeps no outputs).
func reusableOuts[T any](outs []T, stored, gens []uint64, c *rescache.Cache) []*T {
	if len(stored) != len(gens) || len(outs) != len(gens) {
		return nil
	}
	reuse := make([]*T, len(gens))
	skipped := 0
	for i := range gens {
		if stored[i] == gens[i] {
			reuse[i] = &outs[i]
			skipped++
		}
	}
	if skipped == 0 {
		return nil
	}
	c.NoteSkipped(skipped)
	return reuse
}

// ResultCacheStats returns the result cache counters (zeros when the cache
// is disabled).
func (r *router) ResultCacheStats() CacheStats { return cacheStatsOf(r.cache) }

// --- search and batch search ---

// shardCand tags a per-shard candidate with its source shard: vector ids
// are only unique within a shard, so the merge orders ties by (distance,
// shard, vid) to stay deterministic.
type shardCand struct {
	topk.Result
	shard int
}

func sortShardCands(cs []shardCand) {
	slices.SortFunc(cs, func(a, b shardCand) int {
		return cmp.Or(topk.CompareDistance(a.Distance, b.Distance), cmp.Compare(a.shard, b.shard), cmp.Compare(a.VectorID, b.VectorID))
	})
}

// perShardProbe spreads the query's probe budget across the shards: each
// shard holds ~1/N of the data in proportionally fewer partitions, so
// probing ceil(NProbe/N) per shard scans about the same number of vectors
// as a single store probing NProbe.
func (r *router) perShardProbe(nprobe int) int {
	return (nprobe + len(r.shards) - 1) / len(r.shards)
}

// Search runs a K-nearest-neighbour query. On N > 1 shards it scatters to
// every shard in parallel and merges the per-shard candidates; on a
// quantized database the pooled top RerankFactor*K are reranked exactly on
// their owning shards before the final top-K cut. With the result cache
// enabled a repeat of a semantically identical query is served from the
// cache while the shards' commit horizons hold — the response is then
// byte-identical to re-running the search — and a repeat where only some
// shards changed re-scans just those shards.
func (r *router) Search(req SearchRequest) (*SearchResponse, error) {
	rts, err := r.pin()
	if err != nil {
		return nil, err
	}
	defer closeReads(rts)
	return r.search(rts, true, req)
}

func (r *router) search(rts []*storage.ReadTxn, live bool, req SearchRequest) (*SearchResponse, error) {
	if err := normalizeSearchRequest(&req, r.shards[0].ix.Config()); err != nil {
		return nil, err
	}
	return query(r, rts, live, request[searchOut, *SearchResponse]{
		key:     func() rescache.Key { return searchKey(req) },
		filters: len(req.Filters),
		noCache: req.NoCache,
		run: func(reuse []*searchOut) ([]searchOut, *SearchResponse, error) {
			outs, err := r.searchScatter(rts, req, reuse)
			if err != nil {
				return nil, nil, err
			}
			resp, err := r.searchMerge(rts, req, outs)
			return outs, resp, err
		},
	})
}

// shardOut is one shard's scan contribution to a query, immutable once
// produced: its candidate lists, one per query (Search has one), and its
// execution info I (ivf.PlanInfo or ivf.BatchInfo). approx marks lists of
// approximate SQ candidates that owe the exact rerank; otherwise they are
// final exact results.
type shardOut[I any] struct {
	res    [][]topk.Result
	approx bool
	info   *I
}

// searchOut and batchOut are the shard outputs of Search and BatchSearch.
type (
	searchOut = shardOut[ivf.PlanInfo]
	batchOut  = shardOut[ivf.BatchInfo]
)

func (o shardOut[I]) cacheSize() int64 {
	n := int64(96)
	for _, rs := range o.res {
		n += candsSize(rs)
	}
	return n
}

// candsSize estimates the footprint of one candidate slice.
func candsSize(rs []topk.Result) int64 {
	n := int64(24)
	for _, r := range rs {
		n += 40 + int64(len(r.AssetID))
	}
	return n
}

// searchScatter runs the per-shard scans, reusing cached outputs where
// reuse supplies them.
func (r *router) searchScatter(rts []*storage.ReadTxn, req SearchRequest, reuse []*searchOut) ([]searchOut, error) {
	return scatterOuts(r, reuse, func(i int, sh *DB, cancel <-chan struct{}) (searchOut, error) {
		res, info, err := sh.ix.Search(rts[i], req.Vector, ivf.SearchOptions{
			K: req.K, NProbe: r.perShardProbe(req.NProbe), Filters: req.Filters,
			Exact: req.Exact, Plan: req.Plan, RerankFactor: req.RerankFactor,
			CandidatesOnly: len(r.shards) > 1, Cancel: cancel,
		})
		if err != nil {
			return searchOut{}, err
		}
		return searchOut{res: [][]topk.Result{res}, approx: info.CandidatesApprox, info: info}, nil
	})
}

// scatterOuts runs scan on every shard through scatterCancel, except that
// a shard whose output reuse supplies is not scanned.
func scatterOuts[O any](r *router, reuse []*O, scan func(i int, sh *DB, cancel <-chan struct{}) (O, error)) ([]O, error) {
	outs := make([]O, len(r.shards))
	err := r.scatterCancel(func(i int, sh *DB, cancel <-chan struct{}) error {
		if reuse != nil && reuse[i] != nil {
			outs[i] = *reuse[i]
			return nil
		}
		var err error
		outs[i], err = scan(i, sh, cancel)
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// searchMerge pools the per-shard candidates into the final response
// through the one-query case of merge.
func (r *router) searchMerge(rts []*storage.ReadTxn, req SearchRequest, outs []searchOut) (*SearchResponse, error) {
	res, cands, rb, err := merge(r, rts, [][]float32{req.Vector}, req.K, req.RerankFactor, outs)
	if err != nil {
		return nil, err
	}
	agg := *outs[0].info
	agg.CandidatesApprox = false
	for _, o := range outs[1:] {
		agg.PartitionsScanned += o.info.PartitionsScanned
		agg.VectorsScanned += o.info.VectorsScanned
		agg.RowsFiltered += o.info.RowsFiltered
		agg.BytesScanned += o.info.BytesScanned
		agg.Candidates += o.info.Candidates
		agg.Reranked += o.info.Reranked
	}
	agg.Candidates += int(cands)
	agg.Reranked += int(r.rowsRead(rb))
	agg.BytesScanned += rb
	return &SearchResponse{Results: res[0], Plan: agg}, nil
}

// merge is the router's candidate merge, done per query. Shards on exact
// paths (float32 scans, pre-filter plans, Exact queries) contribute final
// results; approximate candidates are pooled across shards, cut to the
// single-store rerank budget K·RerankFactor, and each survivor is reranked
// on the shard whose raw store holds its exact vector. The union is then
// sorted and cut to K. Each shard returns only its own top K, so it may
// stop reading once its residual bounds rule the rest out: the union still
// holds the global top K, because a row the (distance, shard, vid) cut
// keeps has fewer than K rows ahead of it overall, so fewer than K of its
// own shard's, and a shard's K-th exact distance is never below the
// global one. merge returns the candidates it handed to the shards and
// the raw bytes they read. merge never mutates outs: cached candidate sets
// flow through here on every partial reuse.
func merge[I any](r *router, rts []*storage.ReadTxn, queries [][]float32, k, rerankFactor int, outs []shardOut[I]) (out [][]Result, handed, bytesRead int64, err error) {
	nq := len(queries)
	pools := make([][]shardCand, nq)
	var groups [][][]topk.Result // [shard][query] candidates to rerank
	for qi := range queries {
		var cands []shardCand
		for i, o := range outs {
			for _, c := range o.res[qi] {
				if o.approx {
					cands = append(cands, shardCand{Result: c, shard: i})
				} else {
					pools[qi] = append(pools[qi], shardCand{Result: c, shard: i})
				}
			}
		}
		if len(cands) == 0 {
			continue
		}
		sortShardCands(cands)
		if budget := k * max(rerankFactor, 1); len(cands) > budget {
			cands = cands[:budget]
		}
		if groups == nil {
			groups = make([][][]topk.Result, len(outs))
		}
		for _, c := range cands {
			if groups[c.shard] == nil {
				groups[c.shard] = make([][]topk.Result, nq)
			}
			groups[c.shard][qi] = append(groups[c.shard][qi], c.Result)
		}
	}

	if groups != nil {
		var mu sync.Mutex
		err := r.scatter(func(i int, sh *DB) error {
			for qi, g := range groups[i] {
				if len(g) == 0 {
					continue
				}
				exact, rb, err := sh.ix.RerankCandidates(rts[i], queries[qi], g, k)
				if err != nil {
					return err
				}
				mu.Lock()
				handed += int64(len(g))
				bytesRead += rb
				for _, c := range exact {
					pools[qi] = append(pools[qi], shardCand{Result: c, shard: i})
				}
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			return nil, 0, 0, err
		}
	}

	out = make([][]Result, nq)
	for qi, pool := range pools {
		sortShardCands(pool)
		if len(pool) > k {
			pool = pool[:k]
		}
		out[qi] = make([]Result, len(pool))
		for i, c := range pool {
			out[qi][i] = Result{ID: c.AssetID, Distance: c.Distance}
		}
	}
	return out, handed, bytesRead, nil
}

// rowsRead converts the raw bytes a rerank read into the rows it read:
// each is one float32 vector.
func (r *router) rowsRead(bytes int64) int64 {
	return bytes / int64(vec.BlobSize(r.shards[0].ix.Config().Dim))
}

// BatchSearch executes many queries with multi-query optimization: each
// needed IVF partition is scanned once and shared across all queries that
// probe it, which cuts amortized per-query latency substantially for large
// batches (paper §3.4). On N > 1 shards every shard runs the whole batch,
// so the sharing is preserved within each shard, and the per-query
// candidates merge exactly as in Search. Caching follows Search too: a
// repeated identical batch (same vectors in the same order) is served
// whole while the commit horizons hold.
func (r *router) BatchSearch(req BatchSearchRequest) (*BatchSearchResponse, error) {
	rts, err := r.pin()
	if err != nil {
		return nil, err
	}
	defer closeReads(rts)
	return r.batchSearch(rts, true, req)
}

func (r *router) batchSearch(rts []*storage.ReadTxn, live bool, req BatchSearchRequest) (*BatchSearchResponse, error) {
	cfg := r.shards[0].ix.Config()
	if err := normalizeBatchSearchRequest(&req, cfg); err != nil {
		return nil, err
	}
	if len(req.Vectors) == 0 {
		return &BatchSearchResponse{}, nil
	}
	queries := vec.NewMatrix(len(req.Vectors), cfg.Dim)
	for i, q := range req.Vectors {
		queries.SetRow(i, q)
	}
	return query(r, rts, live, request[batchOut, *BatchSearchResponse]{
		key:     func() rescache.Key { return batchKey(req) },
		noCache: req.NoCache,
		run: func(reuse []*batchOut) ([]batchOut, *BatchSearchResponse, error) {
			outs, err := r.batchScatter(rts, req, queries, reuse)
			if err != nil {
				return nil, nil, err
			}
			resp, err := r.batchMerge(rts, req, outs)
			return outs, resp, err
		},
	})
}

// batchScatter runs the per-shard batch scans, reusing cached outputs for
// shards whose generation has not moved.
func (r *router) batchScatter(rts []*storage.ReadTxn, req BatchSearchRequest, queries *vec.Matrix, reuse []*batchOut) ([]batchOut, error) {
	return scatterOuts(r, reuse, func(i int, sh *DB, cancel <-chan struct{}) (batchOut, error) {
		res, info, err := sh.ix.BatchSearch(rts[i], queries, ivf.BatchOptions{
			K: req.K, NProbe: r.perShardProbe(req.NProbe), RerankFactor: req.RerankFactor,
			CandidatesOnly: len(r.shards) > 1, Cancel: cancel,
		})
		if err != nil {
			return batchOut{}, err
		}
		return batchOut{res: res, approx: info.CandidatesApprox, info: info}, nil
	})
}

// batchMerge pools the per-shard per-query candidates into the final
// response through merge.
func (r *router) batchMerge(rts []*storage.ReadTxn, req BatchSearchRequest, outs []batchOut) (*BatchSearchResponse, error) {
	res, _, rb, err := merge(r, rts, req.Vectors, req.K, req.RerankFactor, outs)
	if err != nil {
		return nil, err
	}
	agg := *outs[0].info
	agg.CandidatesApprox = false
	for _, o := range outs[1:] {
		agg.PartitionScans += o.info.PartitionScans
		agg.QueryPartitionPairs += o.info.QueryPartitionPairs
		agg.VectorsScanned += o.info.VectorsScanned
		agg.DistancePairs += o.info.DistancePairs
		agg.BytesScanned += o.info.BytesScanned
		agg.Reranked += o.info.Reranked
	}
	agg.Reranked += r.rowsRead(rb)
	agg.BytesScanned += rb
	return &BatchSearchResponse{Results: res, Info: agg}, nil
}

// Get returns the stored item from its hash-designated shard.
func (r *router) Get(id string) (*Item, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	sh := r.shards[r.shardOf(id)]
	var item *Item
	err := sh.store.View(func(rt *storage.ReadTxn) error {
		var err error
		item, err = getItem(sh.ix, rt, id)
		return err
	})
	return item, err
}

// Analyze refreshes every shard's attribute statistics, used by the hybrid
// optimizer.
func (r *router) Analyze() error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.scatter(func(_ int, sh *DB) error {
		return sh.store.Update(func(wt *storage.WriteTxn) error {
			return sh.ix.AnalyzeAttributes(wt)
		})
	})
}

// Checkpoint folds every shard's write-ahead log into its main file (also
// done automatically as the WAL grows and at Close).
func (r *router) Checkpoint() error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.scatter(func(_ int, sh *DB) error {
		if err := sh.store.Checkpoint(); !errors.Is(err, storage.ErrBusy) {
			return err
		}
		return nil // readers pinned; the next opportunity will fold it
	})
}

// DropCaches empties the result cache and every shard's buffer pool and
// in-memory derived state, simulating a cold start (used by benchmarks — a
// cold run must pay the scan, not replay a cached response).
func (r *router) DropCaches() {
	if r.cache != nil {
		r.cache.Clear()
	}
	_ = r.scatter(func(_ int, sh *DB) error { // cannot fail
		sh.store.DropCaches()
		sh.ix.DropCaches()
		return nil
	})
}

// Close drains every shard's group committer and background maintainer,
// then checkpoints and closes its store, shards in parallel. All shards
// are closed even if some fail; the joined error is returned. After Close
// every other method returns ErrClosed; calling Close again is a harmless
// no-op.
func (r *router) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	errs := make([]error, len(r.shards))
	_ = r.scatter(func(i int, sh *DB) error {
		errs[i] = sh.close(sh.store.Close)
		return nil
	})
	return errors.Join(errs...)
}

// --- writes: route by hash ---

// Upsert inserts or replaces one item (keyed by Item.ID) on its
// hash-designated shard. The write rides a group commit shared with
// concurrent writers (see the package documentation's "Ingest path"
// section).
func (r *router) Upsert(item Item) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.shards[r.shardOf(item.ID)].ing.upsert([]Item{item})
}

// UpsertBatch inserts or replaces items with one group commit per shard
// that holds any of them, in parallel. Atomicity is per shard: a failure
// on one shard does not roll back sub-batches already committed on others.
func (r *router) UpsertBatch(items []Item) error {
	return writeByShard(r, items, func(item Item) string { return item.ID }, (*ingester).upsert)
}

// Delete removes the item with the given id from its hash-designated
// shard; an absent id fails with ErrNotFound.
func (r *router) Delete(id string) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	return r.shards[r.shardOf(id)].ing.delete([]string{id}, true)
}

// DeleteBatch removes several items with one group commit per shard, in
// parallel; absent ids are ignored. Atomicity is per shard.
func (r *router) DeleteBatch(ids []string) error {
	return writeByShard(r, ids, func(id string) string { return id },
		func(g *ingester, ids []string) error { return g.delete(ids, false) })
}

// writeByShard groups xs by the shard their ids route to (one shard takes
// xs whole) and hands each non-empty group to its shard's group committer
// through write, shards in parallel.
func writeByShard[T any](r *router, xs []T, id func(T) string, write func(*ingester, []T) error) error {
	if err := r.checkOpen(); err != nil {
		return err
	}
	groups := [][]T{xs}
	if len(r.shards) > 1 {
		groups = make([][]T, len(r.shards))
		for _, x := range xs {
			i := r.shardOf(id(x))
			groups[i] = append(groups[i], x)
		}
	}
	return r.scatter(func(i int, sh *DB) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return write(sh.ing, groups[i])
	})
}

// --- maintenance and stats: one step per shard, folded ---

// Rebuild retrains every shard's IVF quantizer (and codebook) and rewrites
// all its partitions, shards in parallel. Queries proceed on consistent
// snapshots while it runs; writes queue behind it.
func (r *router) Rebuild() (*MaintenanceReport, error) {
	return r.scatterReports(func(sh *DB) (*MaintenanceReport, error) {
		return sh.rewrite(ivf.ActionRebuild, (*ivf.Index).Rebuild)
	})
}

// FlushDelta incrementally merges every shard's delta-store into its IVF
// partitions, shards in parallel.
func (r *router) FlushDelta() (*MaintenanceReport, error) {
	return r.scatterReports(func(sh *DB) (*MaintenanceReport, error) {
		return sh.rewrite(ivf.ActionFlush, (*ivf.Index).FlushDelta)
	})
}

// Maintain runs one pass of the index monitor's policy (paper §3.6) on
// every shard, in parallel: an initial full build if the index was never
// built, then incremental steps only — delta flushes past FlushThreshold,
// splits of partitions over MaxPartitionSize, merges of partitions under
// MinPartitionSize. Each step plans on a read snapshot first, so a healthy
// index (every idle AutoMaintain tick) costs writers nothing. A split — the
// common steady-state step — is also prepared on that snapshot: the
// partition is collected and clustered outside the writer gate, and only
// the short apply step takes it. The apply re-reads the partition and
// discards the plan (counted in StaleRetries) if a concurrent commit
// changed its rows; after maxStalePlans discarded plans the pass splits
// inside one write transaction instead, so a write storm cannot starve it.
// Other steps plan again and act inside one short write transaction. The
// pass loops until the planner reports a healthy index. Once built,
// Maintain never falls back to a full rebuild: growth is absorbed one
// partition at a time.
func (r *router) Maintain() (*MaintenanceReport, error) {
	return r.scatterReports((*DB).maintain)
}

// scatterReports runs one maintenance step on every shard and merges the
// per-shard reports.
func (r *router) scatterReports(step func(*DB) (*MaintenanceReport, error)) (*MaintenanceReport, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	reps := make([]*MaintenanceReport, len(r.shards))
	err := r.scatter(func(i int, sh *DB) error {
		var err error
		reps[i], err = step(sh)
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeReports(reps), nil
}

// mergeReports folds per-shard maintenance reports into one.
func mergeReports(reps []*MaintenanceReport) *MaintenanceReport {
	out := &MaintenanceReport{Action: "none"}
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		parts := out.Partitions
		out.absorb(rep)
		out.Partitions = parts + rep.Partitions // the shards' partitions add up
	}
	return out
}

// Stats returns operational statistics: AggregateStats over the shards'
// own, with the router's result cache and HybridSearch count overlaid.
func (r *router) Stats() (Stats, error) {
	per, err := r.shardStats()
	if err != nil {
		return Stats{}, err
	}
	out := AggregateStats(per)
	out.Cache = cacheStatsOf(r.cache)
	out.HybridSearches = r.hybridSearches.Load()
	return out, nil
}

// shardStats returns each shard's own stats, indexed by shard.
func (r *router) shardStats() ([]Stats, error) {
	if err := r.checkOpen(); err != nil {
		return nil, err
	}
	per := make([]Stats, len(r.shards))
	err := r.scatter(func(i int, sh *DB) error {
		var err error
		per[i], err = sh.stats()
		return err
	})
	if err != nil {
		return nil, err
	}
	return per, nil
}

// ShardedDB is a MicroNN database hash-partitioned across N fully
// independent stores. Each shard is a complete single-store database — its
// own page file, WAL, IVF index, SQ8 codebook and background maintainer —
// living under one directory whose manifest pins the shard count and hash
// seed (see storage.Manifest). Items route to shards by a seeded hash of
// their id: point operations (Upsert, Delete, Get) touch exactly one shard,
// searches scatter to every shard in parallel and merge the per-shard
// candidates, and maintenance runs per shard so a split in one shard never
// stalls writers in another.
//
// The probe budget is spread over the shard set: each shard scans
// ceil(NProbe/N) partitions plus its own delta, so the total scanned volume
// stays comparable to a single store at the same NProbe. On a quantized
// database the shards return approximate candidates (CandidatesOnly) which
// are pooled, cut to RerankFactor*K globally, and reranked exactly on their
// owning shards — recall therefore matches the single-store rerank contract
// rather than compounding per-shard approximations.
//
// Every Store method runs through the same router as on a single DB (a DB
// is its one-shard case), so writes, queries, caching, snapshots,
// maintenance and stats behave identically; ShardedDB adds only the
// topology (Shards, Shard, Manifest, ShardStats, CheckInvariants).
//
// Cross-shard guarantees are deliberately weaker than within a shard:
// UpsertBatch/DeleteBatch commit one transaction per shard (atomic per
// shard, not across shards), and a Snapshot pins each shard's own commit
// horizon (consistent per shard, concurrent cross-shard writes may straddle
// the horizons). All methods are safe for concurrent use.
type ShardedDB struct {
	// router serves every Store method, with one result cache whose
	// entries validate per shard.
	router
	dir      string
	manifest storage.Manifest
}

// OpenSharded opens or creates a sharded database in dir. On creation
// Options.Shards (>= 1) and Options.Dim are required; the shard count and
// hash seed are persisted in the directory manifest and are immutable
// thereafter — reopening validates them and fails on any topology mismatch
// (a different Shards value, a missing shard directory, or a stray one).
// All other Options apply to every shard; a zero Device.Workers is divided
// across the shards so the scatter phase does not oversubscribe the cores,
// and the Device cache budget is split evenly so the documented budget
// bounds the whole database, not each shard.
func OpenSharded(dir string, opts Options) (*ShardedDB, error) {
	m, ok, err := storage.ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	creating := !ok
	if creating {
		if opts.Shards < 1 {
			return nil, fmt.Errorf("micronn: Shards required to create a sharded database")
		}
		if opts.Dim <= 0 {
			return nil, fmt.Errorf("micronn: Dim required to create a sharded database")
		}
		m = storage.Manifest{Version: 1, Shards: opts.Shards, HashSeed: uint64(opts.Seed)}
		if opts.Backend != BackendDefault {
			// Record an explicit backend choice so every reopen runs the
			// same engine on every shard.
			m.Backend = opts.Backend.String()
		}
		if opts.Backend != BackendMemory {
			for i := 0; i < m.Shards; i++ {
				if err := os.MkdirAll(storage.ShardDir(dir, i), 0o755); err != nil {
					return nil, err
				}
			}
			// A create retried with a different Shards value must not adopt
			// a half-created directory's leftover shards: committing a
			// manifest that undercounts them would make every later open
			// fail the topology check, bricking the database.
			if err := storage.ValidateManifestDir(dir, m); err != nil {
				return nil, err
			}
		}
	} else {
		if opts.Shards != 0 && opts.Shards != m.Shards {
			return nil, fmt.Errorf("micronn: database has %d shards, Options.Shards = %d", m.Shards, opts.Shards)
		}
		if mk := m.BackendKindOf(); opts.Backend != BackendDefault && mk != BackendDefault && opts.Backend != mk {
			return nil, fmt.Errorf("micronn: database backend is %s, Options.Backend = %s", mk, opts.Backend)
		}
		if err := storage.ValidateManifestDir(dir, m); err != nil {
			return nil, err
		}
	}

	shOpts := opts
	shOpts.Shards = 0
	// Result caching happens at the router (with per-shard validation);
	// shard-level caches would never be consulted, so they stay off even
	// under the MICRONN_TEST_CACHE override.
	shOpts.ResultCache = ResultCacheOptions{ignoreEnv: true}
	if shOpts.Backend == BackendDefault {
		// A manifest-pinned backend applies to every shard; otherwise each
		// shard auto-detects from its own store header.
		shOpts.Backend = m.BackendKindOf()
	}
	if shOpts.Device.CacheBytes == 0 {
		shOpts.Device = DeviceLarge
	}
	if shOpts.Device.Workers == 0 {
		shOpts.Device.Workers = runtime.GOMAXPROCS(0) / m.Shards
		if shOpts.Device.Workers < 1 {
			shOpts.Device.Workers = 1
		}
	}
	shOpts.Device.CacheBytes /= int64(m.Shards)
	if shOpts.Device.CacheBytes < 1<<20 {
		shOpts.Device.CacheBytes = 1 << 20
	}
	if shOpts.Device.WriteBufferBytes > 0 {
		shOpts.Device.WriteBufferBytes /= int64(m.Shards)
		if shOpts.Device.WriteBufferBytes < 1<<20 {
			shOpts.Device.WriteBufferBytes = 1 << 20
		}
	}

	sdb := &ShardedDB{dir: dir, manifest: m}
	sdb.shards = make([]*DB, m.Shards)
	sdb.seed = m.HashSeed
	sdb.cache = opts.ResultCache.resolve()
	for i := range sdb.shards {
		db, err := Open(storage.ShardDBPath(dir, i), shOpts)
		if err != nil {
			// Leave the shards already opened as they were: a checkpoint
			// would rewrite them although the open failed.
			for _, sh := range sdb.shards[:i] {
				sh.close(sh.store.CloseWithoutCheckpoint)
			}
			return nil, fmt.Errorf("micronn: open shard %d: %w", i, err)
		}
		sdb.shards[i] = db
	}
	if creating && opts.Backend != BackendMemory {
		// The manifest is the commit record of creation, written only once
		// every shard store exists: a crash mid-create leaves a directory
		// with no manifest, which the same create call completes on retry
		// (existing shard stores just reopen). An explicitly memory-backed
		// database writes neither manifest nor shard directories — the
		// ephemeral contract is that nothing touches the filesystem, so a
		// "reopen" finds nothing and must be a full create again.
		if err := storage.WriteManifest(dir, m); err != nil {
			sdb.Close()
			return nil, err
		}
	}
	return sdb, nil
}

// ephemeral reports whether this sharded database was explicitly created
// on the memory backend (no manifest or shard directories on disk).
func (s *ShardedDB) ephemeral() bool {
	return s.manifest.BackendKindOf() == BackendMemory
}

// FNV-1a 64 parameters for the id hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// shardIndex routes an id: FNV-1a over the seed bytes then the id bytes,
// reduced modulo the shard count. The seed lives in the manifest, so every
// open of the same database routes identically.
func shardIndex(seed uint64, id string, n int) int {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h ^= (seed >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return int(h % uint64(n))
}

// Shards returns the shard count.
func (s *ShardedDB) Shards() int { return len(s.shards) }

// Shard exposes one underlying single-store database (benchmarks, tools and
// the invariant battery).
func (s *ShardedDB) Shard(i int) *DB { return s.shards[i] }

// Manifest returns the pinned topology.
func (s *ShardedDB) Manifest() storage.Manifest { return s.manifest }

// AggregateStats folds per-shard stats into whole-database numbers:
// counts, cache and file sizes and the drift gauge's sums sum; the
// partition-size bounds are the min/max over shards. Stats is
// AggregateStats over the shards' own stats plus the router's counters.
func AggregateStats(per []Stats) Stats {
	var out Stats
	for _, st := range per {
		out.NumVectors += st.NumVectors
		out.DeltaCount += st.DeltaCount
		out.NumPartitions += st.NumPartitions
		out.ResidualSum += st.ResidualSum
		out.ResidualRows += st.ResidualRows
		if st.SmallestPartition > 0 && (out.SmallestPartition == 0 || st.SmallestPartition < out.SmallestPartition) {
			out.SmallestPartition = st.SmallestPartition
		}
		if st.LargestPartition > out.LargestPartition {
			out.LargestPartition = st.LargestPartition
		}
		out.Maintenance.Passes += st.Maintenance.Passes
		out.Maintenance.Rebuilds += st.Maintenance.Rebuilds
		out.Maintenance.Flushes += st.Maintenance.Flushes
		out.Maintenance.Splits += st.Maintenance.Splits
		out.Maintenance.Merges += st.Maintenance.Merges
		out.Maintenance.StaleRetries += st.Maintenance.StaleRetries
		out.Maintenance.RowChanges += st.Maintenance.RowChanges
		out.Maintenance.Errors += st.Maintenance.Errors
		out.Ingest.GroupCommits += st.Ingest.GroupCommits
		out.Ingest.GroupedOps += st.Ingest.GroupedOps
		if st.Ingest.MaxGroupSize > out.Ingest.MaxGroupSize {
			out.Ingest.MaxGroupSize = st.Ingest.MaxGroupSize
		}
		out.GateWaits += st.GateWaits
		out.GateWaitNs += st.GateWaitNs
		if st.LastMaintainAction != "" {
			out.LastMaintainAction = st.LastMaintainAction
		}
		// All shards run one engine (the manifest pins any explicit
		// choice) and share one quantization config, so the last one
		// stands for the database.
		out.Backend, out.Quantization, out.ClipPercentile = st.Backend, st.Quantization, st.ClipPercentile
		out.CacheBytes += st.CacheBytes
		out.CacheBudget += st.CacheBudget
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.CacheEvictions += st.CacheEvictions
		out.WALBytes += st.WALBytes
		out.FileBytes += st.FileBytes
		out.FreeBytes += st.FreeBytes
		out.PagesWritten += st.PagesWritten
		out.HybridSearches += st.HybridSearches
	}
	if out.NumPartitions > 0 {
		out.AvgPartitionSize = float64(out.NumVectors-out.DeltaCount) / float64(out.NumPartitions)
	}
	return out
}

// ShardStats returns each shard's stats, indexed by shard. The result
// cache and the HybridSearch count are the router's, so they read zero
// here; Stats reports them.
func (s *ShardedDB) ShardStats() ([]Stats, error) { return s.shardStats() }

// CheckInvariants runs the whole sharded invariant battery: the manifest
// must match the directory topology, every shard must pass the single-store
// index invariants, and the id placement must be globally consistent — no
// asset id present in two shards, and every id stored on exactly the shard
// its hash designates. O(total rows); used by the crash battery and tests.
func (s *ShardedDB) CheckInvariants() error {
	if !s.ephemeral() {
		m, ok, err := storage.ReadManifest(s.dir)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("micronn: sharded invariant: manifest missing from %s", s.dir)
		}
		if m != s.manifest {
			return fmt.Errorf("micronn: sharded invariant: manifest %+v changed since open (%+v)", m, s.manifest)
		}
		if err := storage.ValidateManifestDir(s.dir, m); err != nil {
			return fmt.Errorf("micronn: sharded invariant: %w", err)
		}
	}
	seen := make(map[string]int)
	for i, sh := range s.shards {
		err := sh.store.View(func(rt *storage.ReadTxn) error {
			if err := sh.ix.CheckInvariants(rt); err != nil {
				return fmt.Errorf("micronn: shard %d: %w", i, err)
			}
			return sh.ix.ForEachAsset(rt, func(asset string) error {
				if j, dup := seen[asset]; dup {
					return fmt.Errorf("micronn: sharded invariant: asset %q present in shards %d and %d", asset, j, i)
				}
				seen[asset] = i
				if want := s.shardOf(asset); want != i {
					return fmt.Errorf("micronn: sharded invariant: asset %q stored in shard %d but hashes to shard %d", asset, i, want)
				}
				return nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
