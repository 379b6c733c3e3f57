package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"micronn"
	"micronn/internal/ivf"
	"micronn/internal/storage"
)

// churn-sharded: writes beside reads. A 2-shard ShardedDB with one scan
// worker per shard (shards × workers = the 2 cores of the reference host) and
// the result cache on. It runs the write path, delta and tombstone scans,
// explicit maintenance with clustering splits, the router and the result
// cache — none of which the other two workloads touch.
const (
	churnItems     = 20000
	churnShards    = 2
	churnQueryPool = 4000
	churnK         = 100
	churnNProbe    = 20 // the router probes 20/2 = 10 partitions per shard
	// churnRound ops run between two explicit Maintain calls.
	churnRound = 600
	// Every run makes at least churnRounds rounds; per-layer counts cover
	// exactly the first churnRounds, a fixed op prefix, so they repeat.
	churnRounds = 10
	// churnZipf skews searches toward popular queries. Writes are about
	// every third op and each one moves its shard's data generation, so a
	// Zipf repeat alone almost never finds its cached entry still valid
	// (README.md has the measured hit ratio).
	churnZipf = 0.7
	// churnRequery percent of searches re-send the previous search's query,
	// as a client refreshing its last answer does. With no write between the
	// two the cache serves it whole; after writes to one shard only, the
	// router reuses the other shard's candidates. Repeats stay a minority,
	// so the median search is still a cache miss.
	churnRequery = 30
	// churnDeltaEvery samples the delta-store size every this many ops of
	// the counted prefix, outside the timed calls.
	churnDeltaEvery = 25
)

// churnLayers are counters read at the start and end of the counted prefix.
type churnLayers struct {
	st      micronn.Stats
	commits uint64
}

func readChurnLayers(s *micronn.ShardedDB) (churnLayers, error) {
	st, err := s.Stats()
	if err != nil {
		return churnLayers{}, err
	}
	c := churnLayers{st: st}
	for i := 0; i < s.Shards(); i++ {
		c.commits += s.Shard(i).InternalStore().Stats().Commits
	}
	return c, nil
}

func runChurn(b *bench) error {
	b.recallFloor = 0.7
	rng := rand.New(rand.NewSource(b.seed))
	mix := newDistribution()
	ds := genDataset(mix, rng, churnItems, churnQueryPool)
	live := newLiveSet(dim, 2*churnItems)
	for i, id := range ds.ids {
		live.upsert(id, ds.vec(i))
	}
	b.keep = append(b.keep, ds)
	g := &opStream{
		rng: rng, mix: mix, zipf: newZipf(churnQueryPool, churnZipf), requery: churnRequery,
		live: live, nextID: churnItems,
	}
	// Latency buffers exist before the mem_mib baseline is read, so they
	// are not counted as the database's memory.
	searchLat := newSamples(1 << 17)
	writeLat := newSamples(1 << 16)
	getLat := newSamples(1 << 15)
	maintainLat := newSamples(1 << 10)

	opts := micronn.Options{
		Dim: dim, Metric: micronn.L2, Shards: churnShards, Seed: b.seed,
		Device:      micronn.DeviceProfile{CacheBytes: 64 << 20, WriteBufferBytes: 16 << 20, Workers: 1},
		ResultCache: micronn.ResultCacheOptions{Enabled: true},
	}
	st, base, err := b.setUp(func(dir string) (micronn.Store, error) {
		return micronn.OpenSharded(dir, opts)
	}, items(ds, nil))
	if err != nil {
		return err
	}
	s := st.(*micronn.ShardedDB)
	defer s.Close()

	// Ground truth is brute-forced after the timed phase, by replaying the
	// phase's ops on a copy of the live set taken when it began: scanning
	// the live set between calls would flush the CPU caches the next call
	// runs on.
	var replayFrom *liveSet
	var opLog []op
	var found [][]string // result ids of each logged search, in order
	var rc recallCounter
	var plans planSums
	writes, searches, steps := 0, 0, 0
	var deltaSum, deltaN float64

	// round runs churnRound ops and one Maintain. record is false for the
	// warm-up round; sample reads the delta-store size now and then.
	round := func(record, sample bool) error {
		for k := 0; k < churnRound; k++ {
			o := g.next()
			if sample && k%churnDeltaEvery == 0 {
				dst, err := s.Stats()
				if err != nil {
					return err
				}
				deltaSum += float64(dst.DeltaCount)
				deltaN++
			}
			switch o.kind {
			case opSearch:
				q := ds.query(o.query)
				var resp *micronn.SearchResponse
				d, err := timeCall(func() (err error) {
					resp, err = s.Search(micronn.SearchRequest{Vector: q, K: churnK, NProbe: churnNProbe})
					return err
				})
				if !record {
					break
				}
				searchLat.add(d)
				searches++
				if err != nil {
					b.op(err, "")
					found = append(found, nil)
					break
				}
				b.op(nil, checkResults(resp.Results, churnK, live.len(), live.has, nil))
				found = append(found, ids(resp.Results))
				plans.add(resp.Plan, len(resp.Results))
			case opInsert, opMove:
				d, err := timeCall(func() error { return s.Upsert(micronn.Item{ID: o.id, Vector: o.vec}) })
				if record {
					writeLat.add(d)
					writes++
					b.op(err, "")
				}
			case opDelete:
				d, err := timeCall(func() error { return s.Delete(o.id) })
				if record {
					writeLat.add(d)
					writes++
					b.op(err, "")
				}
			case opGet:
				var item *micronn.Item
				d, err := timeCall(func() (err error) { item, err = s.Get(o.id); return err })
				if !record {
					break
				}
				getLat.add(d)
				problem := ""
				if want, _ := live.get(o.id); err == nil && !slices.Equal(item.Vector, want) {
					problem = fmt.Sprintf("Get(%s) does not return the last written vector", o.id)
				}
				b.op(err, problem)
			}
			if record {
				opLog = append(opLog, o)
			}
			live.apply(o)
		}
		var rep *micronn.MaintenanceReport
		d, err := timeCall(func() (err error) { rep, err = s.Maintain(); return err })
		if record {
			maintainLat.add(d)
			b.op(err, "")
			if err == nil {
				steps += rep.Steps
			}
		}
		return err
	}

	if err := round(false, false); err != nil {
		return err
	}
	replayFrom = live.clone()
	runtime.GC()
	c0, err := readChurnLayers(s)
	if err != nil {
		return err
	}
	start := time.Now()
	for r := 0; r < churnRounds; r++ {
		if err := round(true, true); err != nil {
			return err
		}
	}
	c1, err := readChurnLayers(s)
	if err != nil {
		return err
	}
	counted := struct {
		plans                   planSums
		writes, searches, steps int
		maintains               int
	}{plans, writes, searches, steps, maintainLat.count()}
	for time.Since(start) < b.seconds {
		if err := round(true, false); err != nil {
			return err
		}
	}
	// Fold the WAL before measuring space: its size is a sawtooth of the
	// op count, which would make space_amp depend on where a run stopped.
	if err := s.Checkpoint(); err != nil {
		return err
	}
	end, err := s.Stats()
	if err != nil {
		return err
	}
	for _, r := range replayRecall(replayFrom, opLog, found, ds, churnK) {
		rc.found += r.found
		rc.wanted += r.wanted
	}
	replayFrom, opLog, found = nil, nil, nil // not part of the database's footprint
	mem := heapMiB() - base
	b.recall = rc.value()
	b.throughput(opClass{searchLat, 1}, opClass{writeLat, 1}, opClass{getLat, 1}, opClass{maintainLat, 1})
	b.latencyMetrics("search", searchLat, true, true)
	b.endToEnd("recall_at_k", b.recall, rc.wanted)
	b.endToEnd("mem_mib", mem, 1)
	b.endToEnd("space_amp", spaceAmp(end, live.len()), 1)
	b.show("file_mib", "MiB", float64(end.FileBytes)/(1<<20), 1)
	b.show("wal_mib", "MiB", float64(end.WALBytes)/(1<<20), 1)
	b.latencyMetrics("write", writeLat, true, false)
	b.latencyMetrics("get", getLat, false, false)
	b.show("maintain_s", "s", mean(maintainLat.wall)*float64(maintainLat.count())/1e3, maintainLat.count())

	// Per-layer counts over the counted prefix only.
	cp := counted.plans
	b.scanLayers(cp)
	w := float64(counted.writes)
	b.perLayer("storage.wal_pages_per_write", ratio(float64(c1.st.PagesWritten-c0.st.PagesWritten), w))
	b.perLayer("storage.commits_per_write", ratio(float64(c1.commits-c0.commits), w))
	b.perLayer("ivf.maintain.row_changes_per_write", ratio(float64(c1.st.Maintenance.RowChanges-c0.st.Maintenance.RowChanges), w))
	b.perLayer("ivf.maintain.steps", ratio(float64(counted.steps), float64(counted.maintains)))
	b.perLayer("ivf.delta_rows", ratio(deltaSum, deltaN))
	cs0, cs1 := c0.st.Cache, c1.st.Cache
	lookups := float64((cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses) + (cs1.Invalidations - cs0.Invalidations))
	b.perLayer("rescache.hit_ratio", ratio(float64(cs1.Hits-cs0.Hits), lookups))
	b.perLayer("rescache.invalidations_per_write", ratio(float64(cs1.Invalidations-cs0.Invalidations), w))
	b.perLayer("router.skipped_shard_scans_per_query", ratio(float64(cs1.SkippedShardScans-cs0.SkippedShardScans), float64(counted.searches)))
	d := poolBetween(c0.st, c1.st)
	if !b.trace {
		return nil
	}

	// Traced run: more rounds, each search followed by the router's
	// uncached scatter-gather of the same query and each shard's own
	// search (with its ivf.Index.Search) at the router's per-shard probe.
	tr := b.tr
	per := (churnNProbe + churnShards - 1) / churnShards
	traced := make([]float64, 0, searchLat.count())
	runtime.GC()
	start = time.Now()
	for time.Since(start) < b.seconds {
		for k := 0; k < churnRound; k++ {
			o := g.next()
			rq := tr.request()
			var err error
			switch o.kind {
			case opSearch:
				req := micronn.SearchRequest{Vector: ds.query(o.query), K: churnK, NProbe: churnNProbe}
				var root int
				root, err = tr.span("micronn.Search", rq, -1, func() error { _, err := s.Search(req); return err })
				traced = append(traced, tr.spans[root].ms())
				if err == nil {
					err = traceRouter(tr, s, rq, req, per)
				}
			case opInsert, opMove:
				_, err = tr.span("micronn.Upsert", rq, -1, func() error { return s.Upsert(micronn.Item{ID: o.id, Vector: o.vec}) })
			case opDelete:
				_, err = tr.span("micronn.Delete", rq, -1, func() error { return s.Delete(o.id) })
			case opGet:
				_, err = tr.span("micronn.Get", rq, -1, func() error { _, err := s.Get(o.id); return err })
			}
			if err != nil {
				return err
			}
			live.apply(o)
		}
		if _, err := tr.span("micronn.Maintain", tr.request(), -1, func() error { _, err := s.Maintain(); return err }); err != nil {
			return err
		}
	}
	u, err := probeLayers(tr, s.Shard(0), rng, ds.query(0), ds.vecs, nil)
	if err != nil {
		return err
	}
	tr.print(b.out)
	search := tr.layer("ivf.Search")
	// Each ivf.Search span is one shard's share of a query.
	printBudget(b.out, search.meanSelfMs(), scanCounts{
		rows:    cp.perQuery(cp.vectors+cp.filtered) / churnShards,
		vectors: cp.perQuery(cp.vectors) / churnShards,
		misses:  ratio(d.misses, float64(counted.searches)) / churnShards,
		workers: opts.Device.Workers,
	}, u)
	b.perLayer("ivf.search_ms", search.meanMs())
	b.perLayer("router.self_ms", tr.layer("router.Search").meanSelfMs())
	b.poolLayers(d, counted.searches, &u)
	b.kernelLayers(u)
	b.overhead(searchLat, traced)
	b.printLayers()
	return nil
}

// traceRouter replays one search as the router's uncached scatter-gather
// (router.Search) with, as parallel children, each shard's own search at
// the router's per-shard probe, each with the ivf.Index.Search it wraps.
func traceRouter(tr *tracer, s *micronn.ShardedDB, rq int, req micronn.SearchRequest, per int) error {
	router := tr.open("router.Search", rq, -1)
	uncached := req
	uncached.NoCache = true
	shardReq := uncached
	shardReq.NProbe = per
	return tr.pair(rq, func() error {
		return tr.run(router, func() error { _, err := s.Search(uncached); return err })
	}, func() error {
		for i := 0; i < s.Shards(); i++ {
			sh := s.Shard(i)
			sid := tr.open("shard.Search", rq, router)
			tr.parallel(sid)
			iid := tr.open("ivf.Search", rq, sid)
			if err := tr.pair(rq, func() error {
				return tr.run(sid, func() error { _, err := sh.Search(shardReq); return err })
			}, func() error {
				return viewRun(tr, sh, iid, func(rt *storage.ReadTxn) error {
					_, _, err := sh.InternalIndex().Search(rt, req.Vector, ivf.SearchOptions{K: churnK, NProbe: per})
					return err
				})
			}); err != nil {
				return err
			}
		}
		return nil
	})
}

// replayRecall replays ops on copies of from, one per core, and scores each
// logged search's result ids against the brute-forced top k of the live set
// as it was when the search ran; worker w scores every w-th search.
func replayRecall(from *liveSet, ops []op, found [][]string, ds *dataset, k int) []recallCounter {
	workers := runtime.GOMAXPROCS(0)
	out := make([]recallCounter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			live := from.clone()
			n := 0
			for _, o := range ops {
				if o.kind == opSearch {
					if n%workers == w {
						out[w].add(found[n], live.topK(ds.query(o.query), k), k)
					}
					n++
				}
				live.apply(o)
			}
		}(w)
	}
	wg.Wait()
	return out
}
