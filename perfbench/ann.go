package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"micronn"
	"micronn/internal/ivf"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// ann-small-pool: the paper's headline path and memory claim where the data
// outgrows the cache. The database file (about 36 MiB) is 4.5x DeviceSmall's 8 MiB
// pool, so storage, btree/reldb and the float32 kernel carry the queries;
// no writes, quantization, router, result cache or full-text index run.
const (
	annItems   = 32000
	annQueries = 2048 // distinct queries; the batch phase sends the same ones
	annK       = 100
	annNProbe  = 20 // fixed: 1/16 of the 320 partitions, about 0.9 recall@100
	annBatch   = 64
	// annSearchShare of the timed phase runs Search, the rest BatchSearch.
	annSearchShare = 0.7
)

func runANN(b *bench) error {
	b.recallFloor = 0.8
	rng := rand.New(rand.NewSource(b.seed))
	ds := genDataset(newDistribution(), rng, annItems, annQueries)
	truth := groundTruth(ds, annK, nil)
	valid := make(map[string]struct{}, annItems)
	for _, id := range ds.ids {
		valid[id] = struct{}{}
	}
	b.keep = append(b.keep, ds, truth, valid)
	live := func(id string) bool { _, ok := valid[id]; return ok }
	searchLat := newSamples(1 << 17)
	batchLat := newSamples(1 << 14)

	opts := micronn.Options{Dim: dim, Metric: micronn.L2, Device: micronn.DeviceSmall, Seed: b.seed}
	s, base, err := b.setUp(func(dir string) (micronn.Store, error) {
		return micronn.Open(filepath.Join(dir, "ann.mnn"), opts)
	}, items(ds, nil))
	if err != nil {
		return err
	}
	db := s.(*micronn.DB)
	defer db.Close()

	req := func(i int) micronn.SearchRequest {
		return micronn.SearchRequest{Vector: ds.query(i), K: annK, NProbe: annNProbe}
	}
	batchReq := func(j int) micronn.BatchSearchRequest {
		vs := make([][]float32, annBatch)
		for i := range vs {
			vs[i] = ds.query(j*annBatch + i)
		}
		return micronn.BatchSearchRequest{Vectors: vs, K: annK, NProbe: annNProbe}
	}
	nbatches := annQueries / annBatch

	// Warm-up, untimed: enough queries to settle the pool, and one batch.
	for i := 0; i < warmCalls; i++ {
		if _, err := db.Search(req(i)); err != nil {
			return fmt.Errorf("warm-up search: %w", err)
		}
	}
	if _, err := db.BatchSearch(batchReq(0)); err != nil {
		return fmt.Errorf("warm-up batch: %w", err)
	}

	var rc recallCounter
	var plans planSums
	runtime.GC()
	st0, err := db.Stats()
	if err != nil {
		return err
	}
	var st1 micronn.Stats
	searchBudget := time.Duration(annSearchShare * float64(b.seconds))
	if err := timedCalls(searchBudget, annQueries, func(i int, first bool) error {
		var resp *micronn.SearchResponse
		d, err := timeCall(func() (err error) { resp, err = db.Search(req(i)); return err })
		searchLat.add(d)
		if err != nil {
			b.op(err, "")
			return nil
		}
		b.op(nil, checkResults(resp.Results, annK, annItems, live, nil))
		rc.add(ids(resp.Results), truth[i], annK)
		if first {
			plans.add(resp.Plan, len(resp.Results))
		}
		return nil
	}, func() (err error) { st1, err = db.Stats(); return err }); err != nil {
		return err
	}

	runtime.GC()
	var scans, pairs int
	if err := timedCalls(b.seconds-searchBudget, nbatches, func(j int, first bool) error {
		var resp *micronn.BatchSearchResponse
		d, err := timeCall(func() (err error) { resp, err = db.BatchSearch(batchReq(j)); return err })
		batchLat.add(d)
		if err != nil {
			b.op(err, "")
			return nil
		}
		problem := ""
		if len(resp.Results) != annBatch {
			problem = fmt.Sprintf("batch returned %d result lists for %d queries", len(resp.Results), annBatch)
		}
		for i := 0; i < len(resp.Results) && problem == ""; i++ {
			problem = checkResults(resp.Results[i], annK, annItems, live, nil)
		}
		b.op(nil, problem)
		if first {
			scans += resp.Info.PartitionScans
			pairs += resp.Info.QueryPartitionPairs
		}
		return nil
	}, nil); err != nil {
		return err
	}

	st, err := db.Stats()
	if err != nil {
		return err
	}
	mem := heapMiB() - base
	b.recall = rc.value()
	// A batch completes annBatch queries, so both phases weigh by their time.
	b.throughput(opClass{searchLat, 1}, opClass{batchLat, annBatch})
	b.latencyMetrics("search", searchLat, true, true)
	b.endToEnd("recall_at_k", b.recall, rc.wanted)
	b.endToEnd("mem_mib", mem, 1)
	b.endToEnd("space_amp", spaceAmp(st, annItems), 1)
	b.show("batch_ms_per_query", "ms", median(batchLat.wall)/annBatch, batchLat.count())
	b.show("batch_cpu_ms_per_query", "ms", median(batchLat.cpu)/annBatch, batchLat.count())

	d := poolBetween(st0, st1)
	b.scanLayers(plans)
	b.perLayer("ivf.batch_scan_share", ratio(float64(scans), float64(pairs)))
	if !b.trace {
		return nil
	}

	// Traced run: each Search is followed by the ivf.Index.Search it wraps,
	// each BatchSearch by its ivf.Index.BatchSearch.
	tr := b.tr
	ix := db.InternalIndex()
	traced := make([]float64, 0, searchLat.count())
	runtime.GC()
	if err := timedCalls(searchBudget, annQueries, func(i int, _ bool) error {
		r := req(i)
		rq := tr.request()
		root := tr.open("micronn.Search", rq, -1)
		child := tr.open("ivf.Search", rq, root)
		if err := tr.pair(rq, func() error {
			return tr.run(root, func() error { _, err := db.Search(r); return err })
		}, func() error {
			return viewRun(tr, db, child, func(rt *storage.ReadTxn) error {
				_, _, err := ix.Search(rt, r.Vector, ivf.SearchOptions{K: annK, NProbe: annNProbe})
				return err
			})
		}); err != nil {
			return err
		}
		if publicFirst(rq) {
			traced = append(traced, tr.spans[root].ms())
		}
		return nil
	}, nil); err != nil {
		return err
	}
	for j := 0; j < nbatches; j++ {
		r := batchReq(j)
		m := vec.NewMatrix(annBatch, dim)
		for i, v := range r.Vectors {
			m.SetRow(i, v)
		}
		rq := tr.request()
		root := tr.open("micronn.BatchSearch", rq, -1)
		child := tr.open("ivf.BatchSearch", rq, root)
		if err := tr.pair(rq, func() error {
			return tr.run(root, func() error { _, err := db.BatchSearch(r); return err })
		}, func() error {
			return viewRun(tr, db, child, func(rt *storage.ReadTxn) error {
				_, _, err := ix.BatchSearch(rt, m, ivf.BatchOptions{K: annK, NProbe: annNProbe})
				return err
			})
		}); err != nil {
			return err
		}
	}
	u, err := probeLayers(tr, db, rng, ds.query(0), ds.vecs, nil)
	if err != nil {
		return err
	}
	tr.print(b.out)
	search := tr.layer("ivf.Search")
	printBudget(b.out, search.meanSelfMs(), scanCounts{
		rows:    plans.perQuery(plans.vectors + plans.filtered),
		vectors: plans.perQuery(plans.vectors),
		misses:  ratio(d.misses, float64(plans.queries)),
		workers: opts.Device.Workers,
	}, u)
	b.perLayer("ivf.search_ms", search.meanMs())
	b.perLayer("micronn.self_ms", tr.layer("micronn.Search").meanSelfMs())
	b.poolLayers(d, plans.queries, &u)
	b.kernelLayers(u)
	b.overhead(searchLat, traced)
	b.printLayers()
	return nil
}
