package micronn

import (
	"math"
	"sort"

	"micronn/internal/fts"
	"micronn/internal/ivf"
	"micronn/internal/rescache"
	"micronn/internal/storage"
	"micronn/internal/token"
)

// This file is the hybrid (lexical + vector) query subsystem: one request
// runs a BM25-scored full-text leg and the usual ANN vector leg under a
// single read snapshot and fuses the two rankings. See the package
// documentation's "Hybrid search" section for the semantics.

// defaultFusionK is the reciprocal-rank fusion constant (the conventional
// RRF k=60).
const defaultFusionK = 60

// HybridRequest parameterizes HybridSearch. The vector-leg fields (Vector,
// K, NProbe, Filters, Exact, Plan, RerankFactor, NoCache) follow
// SearchRequest exactly; the remaining fields drive the lexical leg and the
// fusion step.
type HybridRequest struct {
	// Vector is the query embedding (required).
	Vector []float32
	// Text is the lexical query, tokenized and BM25-scored against TextCol's
	// full-text index. Empty Text degrades the request to a pure vector
	// query whose results are identical to Search.
	Text string
	// TextCol names the FullText attribute the lexical leg runs over.
	// Defaults to the store's sole full-text attribute; required when the
	// store indexes several.
	TextCol string
	// K is the fused result count (default 10). Each leg also retrieves K
	// candidates before fusion.
	K int
	// NProbe is the vector leg's IVF probe count (default 8).
	NProbe int
	// Filters is the conjunctive attribute filter set applied to the vector
	// leg (optional). The lexical leg is unfiltered: it ranks by text alone.
	Filters []Filter
	// Exact forces an exhaustive vector leg.
	Exact bool
	// Plan overrides the vector leg's hybrid-filter optimizer.
	Plan PlanType
	// RerankFactor overrides the quantized rerank multiplier.
	RerankFactor int
	// FusionK is the reciprocal-rank fusion constant (default 60). Larger
	// values flatten the rank discount, weighting deep results more evenly.
	FusionK int
	// Weighted switches from reciprocal-rank fusion to weighted score
	// fusion: VectorWeight·(1/(1+distance)) + TextWeight·(BM25/maxBM25).
	// Setting one weight to zero yields a single-leg ranking, which the
	// bench harness uses to measure lexical-only recall.
	Weighted bool
	// VectorWeight and TextWeight are the weighted-mode leg weights
	// (default 0.5 each when Weighted and both are zero).
	VectorWeight float64
	TextWeight   float64
	// NoCache bypasses the result cache for this query.
	NoCache bool
}

// vectorRequest projects the request's vector leg onto a SearchRequest.
func (r HybridRequest) vectorRequest() SearchRequest {
	return SearchRequest{
		Vector: r.Vector, K: r.K, NProbe: r.NProbe, Filters: r.Filters,
		Exact: r.Exact, Plan: r.Plan, RerankFactor: r.RerankFactor,
		NoCache: r.NoCache,
	}
}

// HybridResult is one fused result.
type HybridResult struct {
	// ID is the asset id.
	ID string
	// Score is the fused score (higher is better): the RRF sum by default,
	// the weighted combination under HybridRequest.Weighted.
	Score float64
	// Distance is the exact (full-precision) vector distance to the query,
	// computed via the raw-vector path on quantized stores — present for
	// every result, including ones only the lexical leg surfaced.
	Distance float32
	// TextScore is the BM25 score (0 when the lexical leg did not rank it).
	TextScore float64
	// VectorRank and TextRank are the result's 1-based ranks within each
	// leg; 0 means the leg did not retrieve it.
	VectorRank int
	TextRank   int
}

// HybridResponse carries fused results plus the vector leg's execution
// details.
type HybridResponse struct {
	Results []HybridResult
	// Plan describes the vector leg (the lexical leg has no plan choice).
	Plan PlanInfo
}

// hybridFromSearch wraps a pure vector response (empty Text) so HybridSearch
// with no lexical query returns results byte-identical to Search, scored as
// a single-leg RRF list.
func hybridFromSearch(resp *SearchResponse) *HybridResponse {
	out := make([]HybridResult, len(resp.Results))
	for i, r := range resp.Results {
		out[i] = HybridResult{
			ID:         r.ID,
			Score:      1 / float64(defaultFusionK+i+1),
			Distance:   r.Distance,
			VectorRank: i + 1,
		}
	}
	return &HybridResponse{Results: out, Plan: resp.Plan}
}

// fuseHybrid combines the two leg rankings into the final top-K. Both input
// lists are globally ordered (the sharded router merges before fusing), so
// ranks — and therefore fused scores — are identical for sharded and
// single-store executions over the same corpus. Ties break on ascending
// asset id, a total order, keeping the output deterministic.
func fuseHybrid(req HybridRequest, vec []Result, lex []ivf.LexicalDoc) []HybridResult {
	idx := make(map[string]int, len(vec)+len(lex))
	cands := make([]HybridResult, 0, len(vec)+len(lex))
	for i, r := range vec {
		idx[r.ID] = len(cands)
		cands = append(cands, HybridResult{ID: r.ID, Distance: r.Distance, VectorRank: i + 1})
	}
	var maxText float64
	for i, d := range lex {
		if d.Score > maxText {
			maxText = d.Score
		}
		if j, ok := idx[d.AssetID]; ok {
			cands[j].TextRank = i + 1
			cands[j].TextScore = d.Score
			continue
		}
		idx[d.AssetID] = len(cands)
		cands = append(cands, HybridResult{
			ID: d.AssetID, Distance: d.Distance, TextScore: d.Score, TextRank: i + 1,
		})
	}
	for i := range cands {
		c := &cands[i]
		if req.Weighted {
			vs := 1 / (1 + math.Max(float64(c.Distance), 0))
			var ts float64
			if c.TextRank > 0 && maxText > 0 {
				ts = c.TextScore / maxText
			}
			c.Score = req.VectorWeight*vs + req.TextWeight*ts
			continue
		}
		if c.VectorRank > 0 {
			c.Score += 1 / float64(req.FusionK+c.VectorRank)
		}
		if c.TextRank > 0 {
			c.Score += 1 / float64(req.FusionK+c.TextRank)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		return cands[i].ID < cands[j].ID
	})
	if len(cands) > req.K {
		cands = cands[:req.K]
	}
	return cands
}

// HybridSearch runs a fused lexical + vector query (see the package doc's
// "Hybrid search" section). With empty Text it is equivalent to Search. On
// N > 1 shards both legs scatter and BM25 statistics are aggregated across
// the shard set before any shard scores, so the lexical ranking — and
// therefore the fused ranking — is identical to a single store holding the
// same corpus.
func (r *router) HybridSearch(req HybridRequest) (*HybridResponse, error) {
	rts, err := r.pin()
	if err != nil {
		return nil, err
	}
	defer closeReads(rts)
	return r.hybridSearch(rts, true, req)
}

func (r *router) hybridSearch(rts []*storage.ReadTxn, live bool, req HybridRequest) (*HybridResponse, error) {
	if err := normalizeHybridRequest(&req, r.shards[0].ix); err != nil {
		return nil, err
	}
	r.hybridSearches.Add(1)
	if req.Text == "" {
		resp, err := r.search(rts, live, req.vectorRequest())
		if err != nil {
			return nil, err
		}
		return hybridFromSearch(resp), nil
	}
	// Hybrid entries cache the fused response only: a stale entry
	// recomputes both legs in full.
	return query(r, rts, live, request[searchOut, *HybridResponse]{
		key:     func() rescache.Key { return hybridKey(req) },
		filters: len(req.Filters),
		noCache: req.NoCache,
		run: func([]*searchOut) ([]searchOut, *HybridResponse, error) {
			resp, err := r.hybridCompute(rts, req)
			return nil, resp, err
		},
	})
}

// hybridKey fingerprints a normalized request in canonical form: the
// vector-leg knobs canonicalize exactly like searchKey, and the
// lexical/fusion parameters join the fingerprint (rescache tokenizes Text,
// so queries equal after tokenization share one entry).
func hybridKey(req HybridRequest) rescache.Key {
	return rescache.KeyOf(rescache.Request{
		Kind:         rescache.KindHybrid,
		K:            req.K,
		NProbe:       req.NProbe,
		RerankFactor: req.RerankFactor,
		Plan:         canonPlan(req.Plan, req.Filters),
		Exact:        req.Exact,
		Vectors:      [][]float32{req.Vector},
		Filters:      req.Filters,
		Text:         req.Text,
		TextCol:      req.TextCol,
		FusionK:      req.FusionK,
		Weighted:     req.Weighted,
		VectorWeight: req.VectorWeight,
		TextWeight:   req.TextWeight,
	})
}

func (r *HybridResponse) clone() *HybridResponse {
	return &HybridResponse{Results: append([]HybridResult(nil), r.Results...), Plan: r.Plan}
}

func (r *HybridResponse) cacheSize() int64 {
	n := int64(96)
	for _, res := range r.Results {
		n += 64 + int64(len(res.ID))
	}
	return n
}

// hybridCompute runs both legs across the shard set at the pinned
// transactions. The lexical leg is two-phase: (1) every shard reports its
// local df/N/length statistics, which the router sums into the global
// corpus view; (2) every shard BM25-scores its local postings USING the
// global statistics and returns its top K, which the router merges. Phase 2
// scoring with global figures is what makes per-shard scores — not just
// ranks — comparable, so the merged ranking equals a single store's.
func (r *router) hybridCompute(rts []*storage.ReadTxn, req HybridRequest) (*HybridResponse, error) {
	outs, err := r.searchScatter(rts, req.vectorRequest(), nil)
	if err != nil {
		return nil, err
	}
	vecResp, err := r.searchMerge(rts, req.vectorRequest(), outs)
	if err != nil {
		return nil, err
	}

	toks := token.Unique(req.Text)
	perStats := make([]fts.BM25Stats, len(r.shards))
	err = r.scatter(func(i int, sh *DB) error {
		st, serr := sh.ix.LexicalStats(rts[i], req.TextCol, toks)
		perStats[i] = st
		return serr
	})
	if err != nil {
		return nil, err
	}
	var global fts.BM25Stats
	for _, st := range perStats {
		global.Merge(st)
	}

	perLex := make([][]ivf.LexicalDoc, len(r.shards))
	err = r.scatter(func(i int, sh *DB) error {
		docs, serr := sh.ix.LexicalSearch(rts[i], req.TextCol, req.Vector, toks, global, req.K)
		perLex[i] = docs
		return serr
	})
	if err != nil {
		return nil, err
	}
	lex := mergeLexical(perLex, req.K)

	return &HybridResponse{
		Results: fuseHybrid(req, vecResp.Results, lex),
		Plan:    vecResp.Plan,
	}, nil
}

// mergeLexical merges per-shard BM25 top-K lists into the global top-K,
// ordered by (score desc, asset id asc) — the same total order every shard
// (and a single store) cuts by, so the merged list equals a single store's.
func mergeLexical(per [][]ivf.LexicalDoc, k int) []ivf.LexicalDoc {
	var all []ivf.LexicalDoc
	for _, docs := range per {
		all = append(all, docs...)
	}
	sortLexical(all)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sortLexical orders docs by descending BM25 score, ties by ascending asset
// id (asset ids are globally unique, so this is a total order — vids are
// not comparable across topologies and must not be used here).
func sortLexical(docs []ivf.LexicalDoc) {
	sort.Slice(docs, func(i, j int) bool {
		if docs[i].Score != docs[j].Score {
			return docs[i].Score > docs[j].Score
		}
		return docs[i].AssetID < docs[j].AssetID
	})
}
