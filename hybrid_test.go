package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"micronn/internal/workload"
)

// hybridVocab is a small tag vocabulary with a skewed frequency profile so
// BM25's IDF actually discriminates.
var hybridVocab = []string{
	"cat", "dog", "bird", "yarn", "fetch", "park", "sunny", "indoor",
	"outdoor", "golden", "fluffy", "tiny", "sleepy", "playful", "rare",
}

// hybridTags deterministically assigns each item a few vocabulary tags.
func hybridTags(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	toks := make([]string, n)
	for i := range toks {
		// Zipf-ish skew: low indices picked far more often.
		toks[i] = hybridVocab[rng.Intn(len(hybridVocab)-rng.Intn(len(hybridVocab)))]
	}
	return strings.Join(toks, " ")
}

// hybridItems builds a deterministic corpus of vectors + tag strings.
func hybridItems(seed int64, n, dim int) []Item {
	rng := rand.New(rand.NewSource(seed))
	vecs := randomVecs(seed+1, n, dim)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			ID:         fmt.Sprintf("v%07d", i),
			Vector:     vecs[i],
			Attributes: map[string]any{"tags": hybridTags(rng)},
		}
	}
	return items
}

func hybridTestOpts(dim int) Options {
	return Options{
		Dim:        dim,
		Attributes: []AttributeDef{{Name: "tags", Type: AttrText, FullText: true}},
	}
}

// TestHybridEmptyTextEqualsSearch: a hybrid request without Text must return
// exactly Search's results (ids and distances), wrapped in single-leg form.
func TestHybridEmptyTextEqualsSearch(t *testing.T) {
	db := openTest(t, hybridTestOpts(8))
	if err := db.UpsertBatch(hybridItems(11, 300, 8)); err != nil {
		t.Fatal(err)
	}
	q := randomVecs(99, 1, 8)[0]
	sr, err := db.Search(SearchRequest{Vector: q, K: 12})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := db.HybridSearch(HybridRequest{Vector: q, K: 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(hr.Results) != len(sr.Results) {
		t.Fatalf("hybrid returned %d results, search %d", len(hr.Results), len(sr.Results))
	}
	for i, r := range hr.Results {
		if r.ID != sr.Results[i].ID || r.Distance != sr.Results[i].Distance {
			t.Errorf("result %d: hybrid (%s, %g) != search (%s, %g)",
				i, r.ID, r.Distance, sr.Results[i].ID, sr.Results[i].Distance)
		}
		if r.VectorRank != i+1 || r.TextRank != 0 || r.TextScore != 0 {
			t.Errorf("result %d: leg annotations = %+v, want pure vector", i, r)
		}
	}
	if hr.Plan != sr.Plan {
		t.Errorf("plan mismatch: %+v vs %+v", hr.Plan, sr.Plan)
	}
}

// TestHybridFusionBasics: fused results honor K, are sorted by descending
// score with ascending-id ties, and lexical matches actually surface.
func TestHybridFusionBasics(t *testing.T) {
	db := openTest(t, hybridTestOpts(8))
	items := hybridItems(23, 400, 8)
	// Give one document a token nothing else has: querying it lexically
	// must surface that document even if the vector leg never would.
	items[371].Attributes["tags"] = "unicorn " + items[371].Attributes["tags"].(string)
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	q := randomVecs(7, 1, 8)[0]
	resp, err := db.HybridSearch(HybridRequest{Vector: q, Text: "unicorn rare", K: 15})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 15 {
		t.Fatalf("got %d results, want 1..15", len(resp.Results))
	}
	found := false
	for i, r := range resp.Results {
		if r.ID == items[371].ID {
			found = true
			if r.TextRank == 0 || r.TextScore <= 0 {
				t.Errorf("unicorn doc missing lexical annotations: %+v", r)
			}
		}
		if i > 0 {
			prev := resp.Results[i-1]
			if r.Score > prev.Score || (r.Score == prev.Score && r.ID < prev.ID) {
				t.Errorf("results out of order at %d: %+v after %+v", i, r, prev)
			}
		}
		if r.VectorRank == 0 && r.TextRank == 0 {
			t.Errorf("result %d in neither leg: %+v", i, r)
		}
	}
	if !found {
		t.Error("lexically unique document did not surface in fused results")
	}
}

// TestHybridValidation covers the request-normalization error surface.
func TestHybridValidation(t *testing.T) {
	db := openTest(t, hybridTestOpts(8))
	q := make([]float32, 8)
	cases := []struct {
		name string
		req  HybridRequest
		want error
	}{
		{"negative-k", HybridRequest{Vector: q, K: -1}, ErrBadRequest},
		{"negative-fusionk", HybridRequest{Vector: q, Text: "cat", FusionK: -2}, ErrBadRequest},
		{"negative-weight", HybridRequest{Vector: q, Text: "cat", Weighted: true, VectorWeight: -1}, ErrBadRequest},
		{"dim-mismatch", HybridRequest{Vector: make([]float32, 5)}, ErrDimMismatch},
		{"unknown-textcol", HybridRequest{Vector: q, Text: "cat", TextCol: "nope"}, ErrBadRequest},
	}
	for _, c := range cases {
		if _, err := db.HybridSearch(c.req); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// A store without any FullText attribute must reject lexical queries.
	plain := openTest(t, Options{Dim: 8})
	if err := plain.Upsert(Item{ID: "a", Vector: q}); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.HybridSearch(HybridRequest{Vector: q, Text: "cat"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("no-fts store: err = %v, want ErrBadRequest", err)
	}
	// ...but a pure vector request on the same store is fine.
	if _, err := plain.HybridSearch(HybridRequest{Vector: q}); err != nil {
		t.Errorf("no-fts store, empty text: %v", err)
	}
}

// TestHybridShardedEqualsSingle loads the same corpus into a single store
// and a 3-shard store and requires identical fused rankings — ids, fused
// scores, BM25 scores, distances and leg ranks — across quantization
// schemes. The vector leg runs Exact so per-shard probe-splitting cannot
// introduce recall differences; lexical determinism is what's under test
// (global df/N aggregation plus asset-ordered tie-breaks).
func TestHybridShardedEqualsSingle(t *testing.T) {
	for _, quant := range []Quantization{QuantNone, QuantSQ8, QuantSQ4} {
		t.Run(fmt.Sprintf("quant-%v", quant), func(t *testing.T) {
			opts := hybridTestOpts(8)
			opts.Quantization = quant
			single := openTest(t, opts)
			sopts := opts
			sopts.Shards = 3
			sharded := openShardedTest(t, filepath.Join(t.TempDir(), "shards"), sopts)

			items := hybridItems(31, 500, 8)
			if err := single.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if err := sharded.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			queries := []HybridRequest{
				{Text: "cat yarn", K: 10, Exact: true},
				{Text: "rare sunny park", K: 25, Exact: true},
				{Text: "dog", K: 7, Exact: true},
				{Text: "absenttoken", K: 5, Exact: true},
				{Text: "fluffy golden fetch", K: 10, Exact: true, Weighted: true},
				{Text: "cat", K: 10, Exact: true, Weighted: true, VectorWeight: 0, TextWeight: 1},
			}
			vecs := randomVecs(55, len(queries), 8)
			for qi, req := range queries {
				req.Vector = vecs[qi]
				a, err := single.HybridSearch(req)
				if err != nil {
					t.Fatal(err)
				}
				b, err := sharded.HybridSearch(req)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Results, b.Results) {
					t.Errorf("query %d (%q): single and sharded rankings differ\nsingle:  %+v\nsharded: %+v",
						qi, req.Text, a.Results, b.Results)
				}
			}
		})
	}
}

// TestHybridFusedRecallBeatsSingleLegs scores three ways of answering a
// tagged query on a 4,000-vector corpus against the exact fused ranking
// (an exhaustive vector leg under the same reciprocal-rank fusion):
// vector-only ANN, lexical-only BM25 (weighted fusion with VectorWeight 0)
// and fused RRF of both approximate legs. Fusion must recover at least as
// much of the exact fused top-10 as the better single leg.
func TestHybridFusedRecallBeatsSingleLegs(t *testing.T) {
	const dim, n, numQueries, k, nprobe = 48, 4000, 50, 10, 16
	fd := workload.GenerateFiltered(workload.FilteredSpec{Dim: dim, NumVectors: n, NumQueries: numQueries, Seed: 9})
	opts := hybridTestOpts(dim)
	opts.Metric = Cosine
	db := openTest(t, opts)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: fmt.Sprintf("v%05d", i), Vector: fd.Train.Row(i), Attributes: map[string]any{"tags": fd.Tags[i]}}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	modes := []struct {
		name string
		req  func(qi int) HybridRequest
	}{
		{"vector-only", func(qi int) HybridRequest {
			return HybridRequest{Vector: fd.Queries.Row(qi), K: k, NProbe: nprobe}
		}},
		{"lexical-only", func(qi int) HybridRequest {
			return HybridRequest{Vector: fd.Queries.Row(qi), Text: fd.QueryTags[qi], K: k, NProbe: nprobe,
				Weighted: true, VectorWeight: 0, TextWeight: 1}
		}},
		{"fused-rrf", func(qi int) HybridRequest {
			return HybridRequest{Vector: fd.Queries.Row(qi), Text: fd.QueryTags[qi], K: k, NProbe: nprobe}
		}},
	}
	recalls := make([]float64, len(modes))
	scored := 0
	for qi := 0; qi < numQueries; qi++ {
		exact, err := db.HybridSearch(HybridRequest{Vector: fd.Queries.Row(qi), Text: fd.QueryTags[qi], K: k, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Results) == 0 {
			continue
		}
		want := make(map[string]bool, len(exact.Results))
		for _, r := range exact.Results {
			want[r.ID] = true
		}
		scored++
		for mi, m := range modes {
			resp, err := db.HybridSearch(m.req(qi))
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for _, r := range resp.Results {
				if want[r.ID] {
					hits++
				}
			}
			recalls[mi] += float64(hits) / float64(len(exact.Results))
		}
	}
	if scored == 0 {
		t.Fatal("no query has an exact fused ranking to score against")
	}
	for mi := range recalls {
		recalls[mi] /= float64(scored)
	}
	vector, lexical, fused := recalls[0], recalls[1], recalls[2]
	t.Logf("recall@10 over %d queries: vector-only %.3f, lexical-only %.3f, fused-rrf %.3f", scored, vector, lexical, fused)
	if best := max(vector, lexical); fused < best {
		t.Errorf("fused recall@10 %.3f below the better single leg %.3f", fused, best)
	}
}

// TestHybridCacheConsistency is the staleness oracle: a cached store and an
// uncached recomputation must agree byte-for-byte at every point of an
// interleaved write/query history, and repeated queries must be served from
// the cache without drifting.
func TestHybridCacheConsistency(t *testing.T) {
	opts := hybridTestOpts(8)
	opts.ResultCache = ResultCacheOptions{Enabled: true}
	db := openTest(t, opts)
	items := hybridItems(47, 300, 8)
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	queries := []string{"cat yarn", "dog park", "rare", "sunny fluffy fetch"}
	vecs := randomVecs(66, len(queries), 8)
	next := len(items)
	for round := 0; round < 8; round++ {
		for qi, text := range queries {
			req := HybridRequest{Vector: vecs[qi], Text: text, K: 10}
			cached1, err := db.HybridSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			cached2, err := db.HybridSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			req.NoCache = true
			fresh, err := db.HybridSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached1, fresh) {
				t.Fatalf("round %d query %q: cached response diverged from uncached\ncached: %+v\nfresh:  %+v",
					round, text, cached1, fresh)
			}
			if !reflect.DeepEqual(cached1, cached2) {
				t.Fatalf("round %d query %q: repeated cached responses differ", round, text)
			}
		}
		// Mutate between rounds: new docs with query-relevant tags, plus a
		// deletion, so every cached entry's generation moves.
		batch := hybridItems(int64(100+round), 5, 8)
		for i := range batch {
			batch[i].ID = fmt.Sprintf("n%07d", next)
			next++
			batch[i].Attributes["tags"] = queries[rng.Intn(len(queries))]
		}
		if err := db.UpsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Delete(items[rng.Intn(len(items))].ID); err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatal(err)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits == 0 {
		t.Error("expected cache hits from repeated hybrid queries")
	}
	if st.HybridSearches == 0 {
		t.Error("HybridSearches counter not bumped")
	}
}

// TestHybridShardedCacheConsistency runs the same oracle against a sharded
// store with the router-level cache enabled.
func TestHybridShardedCacheConsistency(t *testing.T) {
	opts := hybridTestOpts(8)
	opts.Shards = 3
	opts.ResultCache = ResultCacheOptions{Enabled: true}
	db := openShardedTest(t, filepath.Join(t.TempDir(), "shards"), opts)
	items := hybridItems(53, 300, 8)
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	vecs := randomVecs(77, 3, 8)
	texts := []string{"cat yarn", "dog", "rare park"}
	for round := 0; round < 5; round++ {
		for qi, text := range texts {
			req := HybridRequest{Vector: vecs[qi], Text: text, K: 10}
			cached, err := db.HybridSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			req.NoCache = true
			fresh, err := db.HybridSearch(req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cached, fresh) {
				t.Fatalf("round %d query %q: sharded cached response diverged\ncached: %+v\nfresh:  %+v",
					round, text, cached, fresh)
			}
		}
		extra := hybridItems(int64(200+round), 4, 8)
		for i := range extra {
			extra[i].ID = fmt.Sprintf("m%03d%04d", round, i)
		}
		if err := db.UpsertBatch(extra); err != nil {
			t.Fatal(err)
		}
	}
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.HybridSearches == 0 {
		t.Error("sharded HybridSearches counter not bumped")
	}
}

// TestHybridSnapshot: a snapshot's hybrid results must reflect the pinned
// state, not later writes — on both topologies.
func TestHybridSnapshot(t *testing.T) {
	db := openTest(t, hybridTestOpts(8))
	items := hybridItems(61, 200, 8)
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	q := randomVecs(88, 1, 8)[0]
	req := HybridRequest{Vector: q, Text: "cat", K: 10}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	before, err := snap.HybridSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	// Write a doc that would dominate the lexical leg.
	err = db.Upsert(Item{ID: "zzz", Vector: q, Attributes: map[string]any{"tags": "cat cat-adjacent"}})
	if err != nil {
		t.Fatal(err)
	}
	after, err := snap.HybridSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Error("snapshot hybrid results changed after a later write")
	}
	live, err := db.HybridSearch(req)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range live.Results {
		if r.ID == "zzz" {
			found = true
		}
	}
	if !found {
		t.Error("live hybrid query should see the new dominant doc")
	}
}

// TestHybridWeightedSingleLeg: weighted mode with one zero weight reduces
// to a pure single-leg ranking (the bench harness measures lexical-only
// recall this way).
func TestHybridWeightedSingleLeg(t *testing.T) {
	db := openTest(t, hybridTestOpts(8))
	if err := db.UpsertBatch(hybridItems(71, 300, 8)); err != nil {
		t.Fatal(err)
	}
	q := randomVecs(5, 1, 8)[0]
	lex, err := db.HybridSearch(HybridRequest{
		Vector: q, Text: "cat yarn", K: 10,
		Weighted: true, VectorWeight: 0, TextWeight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(lex.Results); i++ {
		if lex.Results[i].TextScore > lex.Results[i-1].TextScore {
			t.Errorf("lexical-only ranking not by BM25 at %d: %+v after %+v",
				i, lex.Results[i], lex.Results[i-1])
		}
	}
	for _, r := range lex.Results {
		if r.TextRank == 0 && r.Score > 0 {
			t.Errorf("vector-only doc scored nonzero in lexical-only mode: %+v", r)
		}
	}
}
