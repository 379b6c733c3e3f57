package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"

	"micronn"
	"micronn/internal/ivf"
	"micronn/internal/storage"
	"micronn/internal/token"
	"micronn/internal/topk"
)

// filtered-sq8: the workload that fits in cache. SQ8 codes, an indexed int
// attribute and a full-text tag attribute; the pool (128 MiB) is larger than
// the file (about 64 MiB), so storage does almost nothing while the quant
// kernel, rerank, reldb predicates, the optimizer's stats and fts dominate.
// Two workers also expose the shared SQ8 lookup-table race as lost recall.
const (
	filtItems   = 30000
	filtQueries = 2000 // distinct queries: 125 rounds of the fixed mix below
	filtK       = 100
	filtNProbe  = 16 // IVF selectivity 16*100/30000 = 5.3%
	filtCats    = 100
	filtCol     = "tags"
)

// The fixed mix, by query slot modulo 16. Selectivities are chosen against
// the 5.3% IVF selectivity so the optimizer picks both plans: cat < 50
// (50%) post-filters, cat = v (1%) and MATCH on one topic word (about 1.4%)
// pre-filter. Post-filter searches are 11 of the 14 Search calls, so the
// median search is a post-filter one rather than the boundary between the
// two plans' latencies.
const (
	kindPost = iota
	kindPre
	kindMatch
	kindHybrid // text from the query's topic: both legs matter
	// kindHybridEmpty sends HybridSearch with empty text, which must equal
	// Search exactly. It carries a pre-filter (exact, single-threaded)
	// filter: the SQ8 post-filter scan with two workers is not
	// deterministic while quant.Query's lazily built lookup table is shared
	// by the workers (a data race), and that race is measured as lost
	// recall rather than counted here as a mismatch.
	kindHybridEmpty
)

var filtMix = [16]int{
	kindPost, kindPost, kindPost, kindHybrid, kindPost, kindPost, kindPre, kindPost,
	kindPost, kindPost, kindHybrid, kindPost, kindPost, kindMatch, kindPost, kindHybridEmpty,
}

type filtQuery struct {
	kind  int
	req   micronn.SearchRequest
	text  string
	words []string
	keep  func(i int) bool // dataset rows the filters accept (nil: all)
}

func runFiltered(b *bench) error {
	b.recallFloor = 0.7
	rng := rand.New(rand.NewSource(b.seed))
	mix := newDistribution()
	ds := genDataset(mix, rng, filtItems, filtQueries)
	voc := newVocabulary(len(mix.centers))
	cats := make([]int64, filtItems)
	tags := make([]string, filtItems)
	index := make(map[string]int, filtItems)
	for i := range cats {
		cats[i] = int64(rng.Intn(filtCats))
		tags[i] = voc.tags(rng, ds.cluster[i])
		index[ds.ids[i]] = i
	}
	hasWord := func(i int, w string) bool { return strings.Contains(" "+tags[i]+" ", " "+w+" ") }

	qs := make([]filtQuery, filtQueries)
	for q := range qs {
		fq := filtQuery{kind: filtMix[q%len(filtMix)]}
		fq.req = micronn.SearchRequest{Vector: ds.query(q), K: filtK, NProbe: filtNProbe}
		topic := voc.topics[ds.qcluster[q]]
		switch fq.kind {
		case kindPost:
			fq.req.Filters = []micronn.Filter{micronn.Lt("cat", filtCats/2)}
			fq.keep = func(i int) bool { return cats[i] < filtCats/2 }
		case kindPre, kindHybridEmpty:
			v := int64(rng.Intn(filtCats))
			fq.req.Filters = []micronn.Filter{micronn.Eq("cat", v)}
			fq.keep = func(i int) bool { return cats[i] == v }
		case kindMatch:
			w := topic[rng.Intn(len(topic))]
			fq.req.Filters = []micronn.Filter{micronn.Match(filtCol, w)}
			fq.keep = func(i int) bool { return hasWord(i, w) }
		case kindHybrid:
			a := rng.Intn(len(topic))
			fq.words = []string{topic[a], topic[(a+1)%len(topic)]}
			fq.text = strings.Join(fq.words, " ")
		}
		qs[q] = fq
	}
	truth := groundTruth(ds, filtK, func(q, i int) bool { return qs[q].keep == nil || qs[q].keep(i) })
	b.keep = append(b.keep, ds, qs, truth, cats, tags, index)
	matches := make([]int, filtQueries)
	for q, fq := range qs {
		for i := 0; i < filtItems; i++ {
			if fq.keep == nil || fq.keep(i) {
				matches[q]++
			}
		}
	}
	live := func(id string) bool { _, ok := index[id]; return ok }
	keepID := func(fq filtQuery) func(string) bool {
		if fq.keep == nil {
			return nil
		}
		return func(id string) bool { return fq.keep(index[id]) }
	}

	// Every Search here carries filters, so searchLat is the filtered
	// latency; preLat and postLat split it by the plan the optimizer chose.
	// The buffers exist before the mem_mib baseline is read, so they are not
	// counted as the database's memory.
	searchLat := newSamples(1 << 17)
	preLat := newSamples(1 << 16)
	postLat := newSamples(1 << 16)
	hybridLat := newSamples(1 << 16)
	emptyLat := newSamples(1 << 15)

	opts := micronn.Options{
		Dim: dim, Metric: micronn.L2, Quantization: micronn.QuantSQ8, Seed: b.seed,
		Device: micronn.DeviceProfile{CacheBytes: 128 << 20, WriteBufferBytes: 16 << 20, Workers: 2},
		Attributes: []micronn.AttributeDef{
			{Name: "cat", Type: micronn.AttrInt, Indexed: true},
			{Name: filtCol, Type: micronn.AttrText, FullText: true},
		},
	}
	s, base, err := b.setUp(func(dir string) (micronn.Store, error) {
		return micronn.Open(filepath.Join(dir, "filtered.mnn"), opts)
	}, items(ds, func(i int) map[string]any { return map[string]any{"cat": cats[i], filtCol: tags[i]} }))
	if err != nil {
		return err
	}
	db := s.(*micronn.DB)
	defer db.Close()

	// hybridProblem checks a fused response: K results, scores never
	// increase, ids are live, and every lexical hit carries a query word.
	hybridProblem := func(fq filtQuery, rs []micronn.HybridResult) string {
		if len(rs) != filtK {
			return fmt.Sprintf("hybrid returned %d results, want %d", len(rs), filtK)
		}
		for i, r := range rs {
			if i > 0 && r.Score > rs[i-1].Score {
				return fmt.Sprintf("hybrid score increases at rank %d", i)
			}
			if !live(r.ID) {
				return fmt.Sprintf("hybrid result %q is not a live id", r.ID)
			}
			if r.TextRank > 0 && !hasWord(index[r.ID], fq.words[0]) && !hasWord(index[r.ID], fq.words[1]) {
				return fmt.Sprintf("lexical hit %q has none of %q", r.ID, fq.text)
			}
		}
		return ""
	}

	planLat := func(p micronn.PlanInfo) *samples {
		if p.Plan == micronn.PlanPreFilter {
			return &preLat
		}
		return &postLat
	}
	var rc recallCounter
	var plans, pre, post planSums // all searches, and by plan
	count := func(p micronn.PlanInfo, results int) {
		plans.add(p, results)
		if p.Plan == micronn.PlanPreFilter {
			pre.add(p, results)
		} else {
			post.add(p, results)
		}
	}
	// slot sends query slot q; record is false during the warm-up, and
	// first while the first timed pass runs.
	slot := func(q int, record, first bool) error {
		fq := qs[q]
		switch fq.kind {
		case kindHybrid:
			var resp *micronn.HybridResponse
			d, err := timeCall(func() (err error) {
				resp, err = db.HybridSearch(micronn.HybridRequest{Vector: fq.req.Vector, Text: fq.text, K: filtK, NProbe: filtNProbe})
				return err
			})
			if !record {
				return nil
			}
			hybridLat.add(d)
			if err != nil {
				b.op(err, "")
				return nil
			}
			b.op(nil, hybridProblem(fq, resp.Results))
		case kindHybridEmpty:
			var sr *micronn.SearchResponse
			var hr *micronn.HybridResponse
			d, serr := timeCall(func() (err error) { sr, err = db.Search(fq.req); return err })
			dh, herr := timeCall(func() (err error) {
				hr, err = db.HybridSearch(micronn.HybridRequest{Vector: fq.req.Vector, K: filtK, NProbe: filtNProbe, Filters: fq.req.Filters})
				return err
			})
			if !record {
				return nil
			}
			searchLat.add(d)
			emptyLat.add(dh)
			if serr != nil {
				b.op(serr, "")
			} else {
				planLat(sr.Plan).add(d)
				b.op(nil, checkResults(sr.Results, filtK, matches[q], live, keepID(fq)))
				rc.add(ids(sr.Results), truth[q], filtK)
				if first {
					count(sr.Plan, len(sr.Results))
				}
			}
			if herr != nil || serr != nil {
				b.op(herr, "hybrid with empty text has no Search response to equal")
				return nil
			}
			b.op(nil, sameResults(sr.Results, hr.Results))
		default:
			var resp *micronn.SearchResponse
			d, err := timeCall(func() (err error) { resp, err = db.Search(fq.req); return err })
			if !record {
				return nil
			}
			searchLat.add(d)
			if err != nil {
				b.op(err, "")
				return nil
			}
			planLat(resp.Plan).add(d)
			b.op(nil, checkResults(resp.Results, filtK, matches[q], live, keepID(fq)))
			rc.add(ids(resp.Results), truth[q], filtK)
			if first {
				count(resp.Plan, len(resp.Results))
			}
		}
		return nil
	}
	for q := 0; q < warmCalls; q++ {
		if err := slot(q, false, false); err != nil {
			return err
		}
	}
	runtime.GC()
	st0, err := db.Stats()
	if err != nil {
		return err
	}
	var st1 micronn.Stats
	if err := timedCalls(b.seconds, filtQueries, func(q int, first bool) error {
		return slot(q, true, first)
	}, func() (err error) { st1, err = db.Stats(); return err }); err != nil {
		return err
	}
	st, err := db.Stats()
	if err != nil {
		return err
	}
	mem := heapMiB() - base
	b.recall = rc.value()
	b.throughput(opClass{searchLat, 1}, opClass{hybridLat, 1}, opClass{emptyLat, 1})
	b.latencyMetrics("search", searchLat, true, true)
	b.endToEnd("recall_at_k", b.recall, rc.wanted)
	b.endToEnd("mem_mib", mem, 1)
	b.endToEnd("space_amp", spaceAmp(st, filtItems), 1)
	b.latencyMetrics("prefilter", preLat, false, false)
	b.latencyMetrics("postfilter", postLat, false, false)
	b.latencyMetrics("hybrid", hybridLat, true, false)

	d := poolBetween(st0, st1)
	b.scanLayers(plans)
	if !b.trace {
		return nil
	}

	// Traced run: every call is followed by the ivf calls it wraps — the
	// scan, and for approximate (post-filter) plans the exact rerank of the
	// scan's candidates; HybridSearch by its vector leg and its lexical leg.
	tr := b.tr
	ix := db.InternalIndex()
	traced := make([]float64, 0, searchLat.count())
	// The order of each pair flips every round of the mix, so every query
	// kind runs its public call first in half the rounds, and traced holds
	// the same mix of plans as searchLat.
	sent := 0
	runtime.GC()
	if err := timedCalls(b.seconds, filtQueries, func(q int, _ bool) error {
		fq := qs[q]
		rq := tr.request()
		turn := sent / len(filtMix)
		sent++
		if fq.kind == kindHybrid {
			hr := micronn.HybridRequest{Vector: fq.req.Vector, Text: fq.text, K: filtK, NProbe: filtNProbe}
			root := tr.open("micronn.HybridSearch", rq, -1)
			vleg := tr.open("ivf.Search.vector-leg", rq, root)
			lex := tr.open("fts.lexical", rq, root)
			if err := tr.pair(turn, func() error {
				return tr.run(root, func() error { _, err := db.HybridSearch(hr); return err })
			}, func() error {
				if err := viewRun(tr, db, vleg, func(rt *storage.ReadTxn) error {
					_, _, err := ix.Search(rt, hr.Vector, ivf.SearchOptions{K: filtK, NProbe: filtNProbe})
					return err
				}); err != nil {
					return err
				}
				return viewRun(tr, db, lex, func(rt *storage.ReadTxn) error {
					toks := token.Unique(hr.Text)
					gs, err := ix.LexicalStats(rt, filtCol, toks)
					if err != nil {
						return err
					}
					_, err = ix.LexicalSearch(rt, filtCol, hr.Vector, toks, gs, filtK)
					return err
				})
			}); err != nil {
				return err
			}
			return nil
		}
		var resp *micronn.SearchResponse
		sopts := ivf.SearchOptions{K: filtK, NProbe: filtNProbe, Filters: fq.req.Filters}
		root := tr.open("micronn.Search", rq, -1)
		scan := tr.open("ivf.Search", rq, root)
		if err := tr.pair(turn, func() error {
			return tr.run(root, func() (err error) { resp, err = db.Search(fq.req); return err })
		}, func() error {
			return viewRun(tr, db, scan, func(rt *storage.ReadTxn) error {
				_, _, err := ix.Search(rt, fq.req.Vector, sopts)
				return err
			})
		}); err != nil {
			return err
		}
		if publicFirst(turn) {
			traced = append(traced, tr.spans[root].ms())
		}
		if resp.Plan.Plan != micronn.PlanPostFilter {
			return nil
		}
		// The exact rerank of a post-filter scan's approximate
		// candidates, as a child of the scan.
		rt, err := db.InternalStore().BeginRead()
		if err != nil {
			return err
		}
		sopts.CandidatesOnly = true
		var cands []topk.Result
		cands, _, err = ix.Search(rt, fq.req.Vector, sopts)
		if err == nil {
			_, err = tr.span("ivf.rerank", rq, scan, func() error {
				_, _, err := ix.RerankCandidates(rt, fq.req.Vector, cands, filtK)
				return err
			})
		}
		rt.Close()
		if err != nil {
			return err
		}
		return nil
	}, nil); err != nil {
		return err
	}
	u, err := probeLayers(tr, db, rng, ds.query(0), ds.vecs, trainSQ8(ds.vecs))
	if err != nil {
		return err
	}
	tr.print(b.out)
	search := tr.layer("ivf.Search")
	// A post-filter scan reads the attribute row of every row it touches; a
	// pre-filter plan resolves and fetches the raw vector of every match.
	workers := float64(opts.Device.Workers)
	printBudget(b.out, search.meanSelfMs(), scanCounts{
		rows:      plans.perQuery(post.vectors + post.filtered),
		vectors:   plans.perQuery(post.vectors),
		misses:    ratio(d.misses, float64(plans.queries)),
		lookups:   plans.perQuery(post.vectors+post.filtered)/workers + plans.perQuery(2*pre.vectors+pre.filtered),
		quantized: true,
		workers:   opts.Device.Workers,
	}, u)
	b.perLayer("ivf.search_ms", search.meanMs())
	b.perLayer("ivf.rerank_ms", tr.layer("ivf.rerank").meanMs())
	b.perLayer("fts.lexical_ms", tr.layer("fts.lexical").meanMs())
	b.perLayer("micronn.self_ms", tr.layer("micronn.Search").meanSelfMs())
	b.poolLayers(d, plans.queries, &u)
	b.kernelLayers(u)
	b.overhead(searchLat, traced)
	b.printLayers()
	return nil
}
