package micronn

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"micronn/internal/ivf"
	"micronn/internal/rescache"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// Store is the method set shared by DB and ShardedDB. Both embed the same
// query router (a DB is its one-shard case), so queries, snapshots and the
// result cache behave identically on either; code that should run against
// a single store and a sharded one alike (the CLI, benchmarks, examples)
// programs against this interface.
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

// router is the query front end that DB and ShardedDB share: each query
// kind is written once, as a pipeline over the router's N >= 1 shards —
// normalize, cache key, per-shard execute, merge — behind one result-cache
// protocol (query). A DB is the one-shard case: its router lists the DB
// itself, the scatter runs inline without goroutines, ivf returns final
// exact results (no CandidatesOnly), so the merge has nothing to rerank
// and a single store does the same index work per query as a direct ivf
// call. Both types embed a router, which supplies their query
// methods, Snapshot, Get, and the whole-set operations that do not differ
// between them.
type router struct {
	shards []*DB
	// seed is the id hash seed (the manifest's on a sharded database).
	seed uint64

	// cache is the result cache (nil when disabled). One cache serves the
	// whole router; entries record one data generation per shard, and on
	// N > 1 shards the per-shard candidate sets too, so a lookup whose
	// generations partially match reuses the unchanged shards' candidates
	// and re-scans only the shards that moved.
	cache *rescache.Cache

	// closed flips once at Close; public methods fail with ErrClosed
	// afterwards instead of touching a closed store.
	closed atomic.Bool

	// hybridSearches counts HybridSearch calls through this router (shards
	// under a sharded router are never bumped, so sums do not double-count).
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

// readGens reads each shard's data generation at its pinned snapshot.
func (r *router) readGens(rts []*storage.ReadTxn) ([]int64, error) {
	gens := make([]int64, len(r.shards))
	for i, sh := range r.shards {
		g, err := sh.ix.DataGeneration(rts[i])
		if err != nil {
			return nil, err
		}
		gens[i] = g
	}
	return gens, nil
}

// --- the result-cache protocol ---

// response is what the cache protocol needs from a query kind's response.
type response[R any] interface {
	// clone copies a shared cached response before it is handed out:
	// cached values are shared, and callers own what they receive.
	clone() R
	// cacheSize estimates the footprint for the cache's byte budget.
	cacheSize() int64
	// empty reports a negative response, cached past the doorkeeper.
	empty() bool
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
	// non-nil, supplies cached outputs for shards whose data generation
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
	gens []int64
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
	gens, err := r.readGens(rts)
	if err != nil {
		return zero, err
	}
	key := q.key()
	// resolve serves a looked-up entry or computes (and, live, stores) the
	// response; it returns the shared value, which callers clone.
	resolve := func(v any, stored []int64, out rescache.Outcome) (R, error) {
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
		r.cache.PutWithPolicy(key, gens, e, size, rescache.PutPolicy{
			FilterHeavy: q.filters >= filterHeavyFilters,
			Negative:    resp.empty(),
		})
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
	if shared && !rescache.GensEqual(fr.gens, gens) {
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
func reusableOuts[T any](outs []T, stored, gens []int64, c *rescache.Cache) []*T {
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
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Distance != cs[j].Distance {
			return cs[i].Distance < cs[j].Distance
		}
		if cs[i].shard != cs[j].shard {
			return cs[i].shard < cs[j].shard
		}
		return cs[i].VectorID < cs[j].VectorID
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
// cache while the data generations hold — the response is then
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
	return query(r, rts, live, request[shardOut, *SearchResponse]{
		key:     func() rescache.Key { return searchKey(req) },
		filters: len(req.Filters),
		noCache: req.NoCache,
		run: func(reuse []*shardOut) ([]shardOut, *SearchResponse, error) {
			outs, err := r.searchScatter(rts, req, reuse)
			if err != nil {
				return nil, nil, err
			}
			resp, err := r.searchMerge(rts, req, outs)
			return outs, resp, err
		},
	})
}

// shardOut is one shard's scan contribution to a search: the (possibly
// approximate) candidate set and its execution info, immutable once
// produced.
type shardOut struct {
	res  []topk.Result
	info *ivf.PlanInfo
}

func (o shardOut) cacheSize() int64 { return 96 + candsSize(o.res) }

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
func (r *router) searchScatter(rts []*storage.ReadTxn, req SearchRequest, reuse []*shardOut) ([]shardOut, error) {
	sopts := ivf.SearchOptions{
		K: req.K, NProbe: r.perShardProbe(req.NProbe), Filters: req.Filters,
		Exact: req.Exact, Plan: req.Plan, RerankFactor: req.RerankFactor,
		CandidatesOnly: len(r.shards) > 1,
	}
	outs := make([]shardOut, len(r.shards))
	err := r.scatterCancel(func(i int, sh *DB, cancel <-chan struct{}) error {
		if reuse != nil && reuse[i] != nil {
			outs[i] = *reuse[i]
			return nil
		}
		so := sopts
		so.Cancel = cancel
		res, info, err := sh.ix.Search(rts[i], req.Vector, so)
		if err != nil {
			return err
		}
		outs[i] = shardOut{res: res, info: info}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// searchMerge pools the per-shard candidates into the final response. It
// never mutates outs — cached candidate sets flow through here on every
// partial reuse.
func (r *router) searchMerge(rts []*storage.ReadTxn, req SearchRequest, outs []shardOut) (*SearchResponse, error) {
	// Gather: shards on exact paths (float32 scans, pre-filter plans,
	// Exact queries) contribute final results directly; shards that
	// returned approximate candidates feed the global rerank pool.
	var exact, approx []shardCand
	agg := *outs[0].info
	agg.CandidatesApprox = false
	for i, o := range outs {
		if i > 0 {
			agg.PartitionsScanned += o.info.PartitionsScanned
			agg.VectorsScanned += o.info.VectorsScanned
			agg.RowsFiltered += o.info.RowsFiltered
			agg.BytesScanned += o.info.BytesScanned
			agg.Reranked += o.info.Reranked
		}
		for _, res := range o.res {
			if o.info.CandidatesApprox {
				approx = append(approx, shardCand{Result: res, shard: i})
			} else {
				exact = append(exact, shardCand{Result: res, shard: i})
			}
		}
	}

	if len(approx) > 0 {
		// Pool the approximate candidates, cut to the single-store rerank
		// budget, and rerank each survivor on the shard whose raw store
		// holds its exact vector.
		sortShardCands(approx)
		if budget := req.K * max(req.RerankFactor, 1); len(approx) > budget {
			approx = approx[:budget]
		}
		groups := make([][]topk.Result, len(r.shards))
		for _, c := range approx {
			groups[c.shard] = append(groups[c.shard], c.Result)
		}
		reranked := make([][]topk.Result, len(r.shards))
		var mu sync.Mutex
		err := r.scatter(func(i int, sh *DB) error {
			if len(groups[i]) == 0 {
				return nil
			}
			res, rb, err := sh.ix.RerankCandidates(rts[i], req.Vector, groups[i], len(groups[i]))
			if err != nil {
				return err
			}
			mu.Lock()
			agg.Reranked += len(groups[i])
			agg.BytesScanned += rb
			mu.Unlock()
			reranked[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, res := range reranked {
			for _, c := range res {
				exact = append(exact, shardCand{Result: c, shard: i})
			}
		}
	}

	sortShardCands(exact)
	if len(exact) > req.K {
		exact = exact[:req.K]
	}
	out := make([]Result, len(exact))
	for i, c := range exact {
		out[i] = Result{ID: c.AssetID, Distance: c.Distance}
	}
	return &SearchResponse{Results: out, Plan: agg}, nil
}

// BatchSearch executes many queries with multi-query optimization: each
// needed IVF partition is scanned once and shared across all queries that
// probe it, which cuts amortized per-query latency substantially for large
// batches (paper §3.4). On N > 1 shards every shard runs the whole batch,
// so the sharing is preserved within each shard, and the per-query
// candidates merge exactly as in Search. Caching follows Search too: a
// repeated identical batch (same vectors in the same order) is served
// whole while the data generations hold.
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
	return query(r, rts, live, request[batchShardOut, *BatchSearchResponse]{
		key:     func() rescache.Key { return batchKey(req) },
		noCache: req.NoCache,
		run: func(reuse []*batchShardOut) ([]batchShardOut, *BatchSearchResponse, error) {
			outs, err := r.batchScatter(rts, req, queries, reuse)
			if err != nil {
				return nil, nil, err
			}
			resp, err := r.batchMerge(rts, req, queries, outs)
			return outs, resp, err
		},
	})
}

// batchShardOut is one shard's contribution to a batch: per-query
// candidate sets plus execution info, immutable once produced.
type batchShardOut struct {
	res  [][]topk.Result
	info *ivf.BatchInfo
}

func (o batchShardOut) cacheSize() int64 {
	n := int64(96)
	for _, rs := range o.res {
		n += candsSize(rs)
	}
	return n
}

// batchScatter runs the per-shard batch scans, reusing cached outputs for
// shards whose generation has not moved.
func (r *router) batchScatter(rts []*storage.ReadTxn, req BatchSearchRequest, queries *vec.Matrix, reuse []*batchShardOut) ([]batchShardOut, error) {
	bopts := ivf.BatchOptions{
		K: req.K, NProbe: r.perShardProbe(req.NProbe),
		RerankFactor: req.RerankFactor, CandidatesOnly: len(r.shards) > 1,
	}
	outs := make([]batchShardOut, len(r.shards))
	err := r.scatterCancel(func(i int, sh *DB, cancel <-chan struct{}) error {
		if reuse != nil && reuse[i] != nil {
			outs[i] = *reuse[i]
			return nil
		}
		bo := bopts
		bo.Cancel = cancel
		res, info, err := sh.ix.BatchSearch(rts[i], queries, bo)
		if err != nil {
			return err
		}
		outs[i] = batchShardOut{res: res, info: info}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// batchMerge pools the per-shard per-query candidates into the final
// response; it never mutates outs.
func (r *router) batchMerge(rts []*storage.ReadTxn, req BatchSearchRequest, queries *vec.Matrix, outs []batchShardOut) (*BatchSearchResponse, error) {
	nq := queries.Rows
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
	// Gather per query, separating shards that returned final exact results
	// from shards that returned approximate SQ8 candidates (same contract
	// as searchMerge: only approximate candidates owe a rerank). Approximate
	// pools are cut to the single-store rerank budget before grouping back
	// onto their owning shards. groups[shard][query] keeps order intact.
	merged := make([][]shardCand, nq)
	groups := make([]map[int][]topk.Result, len(r.shards))
	for i := range groups {
		groups[i] = make(map[int][]topk.Result)
	}
	anyApprox := false
	for qi := 0; qi < nq; qi++ {
		var exact, approx []shardCand
		for i, o := range outs {
			for _, res := range o.res[qi] {
				c := shardCand{Result: res, shard: i}
				if o.info.CandidatesApprox {
					approx = append(approx, c)
				} else {
					exact = append(exact, c)
				}
			}
		}
		merged[qi] = exact
		if len(approx) > 0 {
			anyApprox = true
			sortShardCands(approx)
			if budget := req.K * max(req.RerankFactor, 1); len(approx) > budget {
				approx = approx[:budget]
			}
			for _, c := range approx {
				groups[c.shard][qi] = append(groups[c.shard][qi], c.Result)
			}
		}
	}

	if anyApprox {
		reranked := make([]map[int][]topk.Result, len(r.shards))
		var mu sync.Mutex
		err := r.scatter(func(i int, sh *DB) error {
			if len(groups[i]) == 0 {
				return nil
			}
			out := make(map[int][]topk.Result, len(groups[i]))
			var rerankedN, bytesRead int64
			for qi, cands := range groups[i] {
				res, rb, err := sh.ix.RerankCandidates(rts[i], queries.Row(qi), cands, len(cands))
				if err != nil {
					return err
				}
				rerankedN += int64(len(cands))
				bytesRead += rb
				out[qi] = res
			}
			mu.Lock()
			agg.Reranked += rerankedN
			agg.BytesScanned += bytesRead
			mu.Unlock()
			reranked[i] = out
			return nil
		})
		if err != nil {
			return nil, err
		}
		for qi := 0; qi < nq; qi++ {
			for i, byQuery := range reranked {
				if byQuery == nil {
					continue
				}
				for _, res := range byQuery[qi] {
					merged[qi] = append(merged[qi], shardCand{Result: res, shard: i})
				}
			}
		}
	}

	out := make([][]Result, nq)
	for qi, pool := range merged {
		sortShardCands(pool)
		if len(pool) > req.K {
			pool = pool[:req.K]
		}
		out[qi] = make([]Result, len(pool))
		for i, c := range pool {
			out[qi][i] = Result{ID: c.AssetID, Distance: c.Distance}
		}
	}
	return &BatchSearchResponse{Results: out, Info: agg}, nil
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
// in-memory centroid cache, simulating a cold start (used by benchmarks —
// a cold run must pay the scan, not replay a cached response).
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
// Queries run through the same router pipeline as a single DB (a DB is its
// one-shard case), so caching and snapshot semantics are identical.
//
// Cross-shard guarantees are deliberately weaker than within a shard:
// UpsertBatch/DeleteBatch commit one transaction per shard (atomic per
// shard, not across shards), and a Snapshot pins each shard's own commit
// horizon (consistent per shard, concurrent cross-shard writes may straddle
// the horizons). All methods are safe for concurrent use.
type ShardedDB struct {
	// router serves the queries, with one result cache whose entries
	// validate per shard, and counts router-level HybridSearch calls
	// (Stats overlays them on the aggregated shard stats).
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
			for j := 0; j < i; j++ {
				sdb.shards[j].Close()
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

// Close drains every shard's background maintainer in parallel, then
// checkpoints and closes each shard. All shards are closed even if some
// fail; the joined error is returned.
func (s *ShardedDB) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh *DB) {
			defer wg.Done()
			errs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// --- point operations: route by hash ---

// Upsert inserts or replaces one item on its hash-designated shard.
func (s *ShardedDB) Upsert(item Item) error {
	return s.shards[s.shardOf(item.ID)].Upsert(item)
}

// UpsertBatch groups the items by shard and commits one transaction per
// shard, in parallel. Atomicity is per shard: a failure on one shard does
// not roll back sub-batches already committed on others.
func (s *ShardedDB) UpsertBatch(items []Item) error {
	groups := make([][]Item, len(s.shards))
	for _, item := range items {
		i := s.shardOf(item.ID)
		groups[i] = append(groups[i], item)
	}
	return s.scatter(func(i int, sh *DB) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return sh.UpsertBatch(groups[i])
	})
}

// Delete removes the item from its hash-designated shard.
func (s *ShardedDB) Delete(id string) error {
	return s.shards[s.shardOf(id)].Delete(id)
}

// DeleteBatch groups ids by shard and commits one transaction per shard, in
// parallel; absent ids are ignored. Atomicity is per shard.
func (s *ShardedDB) DeleteBatch(ids []string) error {
	groups := make([][]string, len(s.shards))
	for _, id := range ids {
		i := s.shardOf(id)
		groups[i] = append(groups[i], id)
	}
	return s.scatter(func(i int, sh *DB) error {
		if len(groups[i]) == 0 {
			return nil
		}
		return sh.DeleteBatch(groups[i])
	})
}

// --- maintenance and stats: aggregate over the shard set ---

// mergeReports folds per-shard maintenance reports into one.
func mergeReports(reps []*MaintenanceReport) *MaintenanceReport {
	out := &MaintenanceReport{Action: "none"}
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		if rep.Action != "" && rep.Action != "none" {
			if out.Action == "none" {
				out.Action = rep.Action
			} else if out.Action != rep.Action {
				out.Action += "+" + rep.Action
			}
		}
		out.Steps += rep.Steps
		out.Rebuilds += rep.Rebuilds
		out.Flushes += rep.Flushes
		out.Splits += rep.Splits
		out.Merges += rep.Merges
		out.Compactions += rep.Compactions
		out.Duration += rep.Duration
		out.RowChanges += rep.RowChanges
		out.VectorsAssigned += rep.VectorsAssigned
		out.Partitions += rep.Partitions
	}
	return out
}

// Rebuild retrains every shard's IVF index in parallel and merges the
// reports.
func (s *ShardedDB) Rebuild() (*MaintenanceReport, error) {
	reps := make([]*MaintenanceReport, len(s.shards))
	err := s.scatter(func(i int, sh *DB) error {
		rep, err := sh.Rebuild()
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeReports(reps), nil
}

// FlushDelta flushes every shard's delta-store in parallel.
func (s *ShardedDB) FlushDelta() (*MaintenanceReport, error) {
	reps := make([]*MaintenanceReport, len(s.shards))
	err := s.scatter(func(i int, sh *DB) error {
		rep, err := sh.FlushDelta()
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeReports(reps), nil
}

// Maintain runs the incremental maintenance policy on every shard in
// parallel (each step in its own short per-shard write transaction) and
// merges the reports.
func (s *ShardedDB) Maintain() (*MaintenanceReport, error) {
	reps := make([]*MaintenanceReport, len(s.shards))
	err := s.scatter(func(i int, sh *DB) error {
		rep, err := sh.Maintain()
		reps[i] = rep
		return err
	})
	if err != nil {
		return nil, err
	}
	return mergeReports(reps), nil
}

// AggregateStats folds per-shard stats into whole-database numbers: counts,
// cache and file sizes sum; the partition-size bounds are the min/max over
// shards; NeedsRebuild is true if any shard needs one. ShardedDB.Stats is
// AggregateStats over ShardStats; callers that already hold the per-shard
// slice (e.g. to print a breakdown) can aggregate it without a second
// scatter.
func AggregateStats(per []Stats) Stats {
	var out Stats
	for _, st := range per {
		out.NumVectors += st.NumVectors
		out.DeltaCount += st.DeltaCount
		out.NumPartitions += st.NumPartitions
		if st.SmallestPartition > 0 && (out.SmallestPartition == 0 || st.SmallestPartition < out.SmallestPartition) {
			out.SmallestPartition = st.SmallestPartition
		}
		if st.LargestPartition > out.LargestPartition {
			out.LargestPartition = st.LargestPartition
		}
		out.NeedsRebuild = out.NeedsRebuild || st.NeedsRebuild
		out.Maintenance.Passes += st.Maintenance.Passes
		out.Maintenance.Rebuilds += st.Maintenance.Rebuilds
		out.Maintenance.Flushes += st.Maintenance.Flushes
		out.Maintenance.Splits += st.Maintenance.Splits
		out.Maintenance.Merges += st.Maintenance.Merges
		out.Maintenance.Compactions += st.Maintenance.Compactions
		out.Maintenance.StaleRetries += st.Maintenance.StaleRetries
		out.Maintenance.RowChanges += st.Maintenance.RowChanges
		out.Maintenance.Errors += st.Maintenance.Errors
		out.Ingest.Enabled = out.Ingest.Enabled || st.Ingest.Enabled
		out.Ingest.GroupCommits += st.Ingest.GroupCommits
		out.Ingest.GroupedOps += st.Ingest.GroupedOps
		if st.Ingest.MaxGroupSize > out.Ingest.MaxGroupSize {
			out.Ingest.MaxGroupSize = st.Ingest.MaxGroupSize
		}
		out.Ingest.Seals += st.Ingest.Seals
		out.Ingest.SealedRows += st.Ingest.SealedRows
		out.Ingest.SealFailures += st.Ingest.SealFailures
		if out.Ingest.LastSealError == "" {
			out.Ingest.LastSealError = st.Ingest.LastSealError
		}
		out.Ingest.RunCount += st.Ingest.RunCount
		out.Ingest.RunRows += st.Ingest.RunRows
		out.Ingest.TombstoneRows += st.Ingest.TombstoneRows
		out.Ingest.UnmergedItems += st.Ingest.UnmergedItems
		out.Ingest.BackpressureTriggers += st.Ingest.BackpressureTriggers
		out.Ingest.BackpressureWaits += st.Ingest.BackpressureWaits
		out.Ingest.BackpressureWaitNs += st.Ingest.BackpressureWaitNs
		out.Ingest.ZonePruneChecks += st.Ingest.ZonePruneChecks
		out.Ingest.ZonePrunedRuns += st.Ingest.ZonePrunedRuns
		out.GateWaits += st.GateWaits
		out.GateWaitNs += st.GateWaitNs
		if st.LastMaintainAction != "" {
			out.LastMaintainAction = st.LastMaintainAction
		}
		if st.Backend != "" {
			// All shards run one engine (the manifest pins any explicit
			// choice), so the last one stands for the database.
			out.Backend = st.Backend
		}
		if st.Quantization != QuantNone {
			// Like Backend: every shard shares one quantization config.
			out.Quantization = st.Quantization
			out.ClipPercentile = st.ClipPercentile
		}
		out.CacheBytes += st.CacheBytes
		out.CacheBudget += st.CacheBudget
		out.CacheHits += st.CacheHits
		out.CacheMisses += st.CacheMisses
		out.CacheEvictions += st.CacheEvictions
		out.WALBytes += st.WALBytes
		out.FileBytes += st.FileBytes
		out.PagesWritten += st.PagesWritten
		out.HybridSearches += st.HybridSearches
	}
	if out.NumPartitions > 0 {
		out.AvgPartitionSize = float64(out.NumVectors-out.DeltaCount-out.Ingest.RunRows) / float64(out.NumPartitions)
	}
	return out
}

// ShardStats returns each shard's stats, indexed by shard.
func (s *ShardedDB) ShardStats() ([]Stats, error) {
	per := make([]Stats, len(s.shards))
	err := s.scatter(func(i int, sh *DB) error {
		st, err := sh.Stats()
		per[i] = st
		return err
	})
	if err != nil {
		return nil, err
	}
	return per, nil
}

// Stats aggregates operational statistics over the shard set. The result
// cache lives at the router, not in the shards, so its stats are overlaid
// after aggregation (per-shard Stats.Cache is always zero).
func (s *ShardedDB) Stats() (Stats, error) {
	per, err := s.ShardStats()
	if err != nil {
		return Stats{}, err
	}
	out := AggregateStats(per)
	out.Cache = cacheStatsOf(s.cache)
	// Hybrid queries run at the router, never on individual shards, so the
	// per-shard sum is zero and this overlay is the whole count.
	out.HybridSearches += s.hybridSearches.Load()
	return out, nil
}

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
