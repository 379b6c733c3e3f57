package ivf

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// filterEveryRow is the post-filter plan without the engine: it scans each
// probed partition (every partition when nprobe is 0, as an Exact search on
// an unquantized index does) with ScanPartition, evaluates the filters on
// every row (through fresh lookups, so every read is a one-shot descent),
// scores the rows that pass one at a time, keeps the best K·RerankFactor on
// a quantized index (K otherwise) in one heap, and reranks them unless
// candidatesOnly.
func filterEveryRow(t *testing.T, ix *Index, rt *storage.ReadTxn, q []float32, filters []stats.Filter, k, nprobe int, candidatesOnly bool) []topk.Result {
	t.Helper()
	_, d, err := ix.load(rt)
	if err != nil {
		t.Fatal(err)
	}
	heapK := k
	var qq *quant.Query
	if d.cb != nil {
		heapK = k * ix.rerankFactor(0)
		qq = d.cb.NewQuery(ix.cfg.Metric, q)
	}
	heap := topk.New(heapK)
	ms := compileMatchers(filters)
	x := make([]float32, ix.cfg.Dim)
	parts := append([]int64{DeltaPartition}, d.cents.ids...)
	if nprobe > 0 {
		parts = ix.probeSet(d.cents, q, nprobe)
	}
	for _, part := range parts {
		err := ix.ScanPartition(rt, part, func(vid int64, blob []byte) error {
			var lk lookups
			lk.bind(ix, rt)
			ok, err := ix.evalFilters(&lk, vid, nil, filters, ms)
			if err != nil || !ok {
				return err
			}
			var dist float32
			if qq != nil && part != DeltaPartition {
				dist = qq.Distance(blob)
			} else {
				vec.FromBlob(x, blob)
				dist = vec.Distance(ix.cfg.Metric, q, x)
			}
			row, err := ix.vectors.Get(rt, reldb.I(part), reldb.I(vid))
			if err != nil {
				return err
			}
			heap.Push(topk.Result{AssetID: row[2].Str, VectorID: vid, Distance: dist})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cands := heap.Results()
	if d.cb == nil || candidatesOnly {
		return cands
	}
	res, _, err := ix.RerankCandidates(rt, q, cands, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPostFilterEqualsFilterEveryRow: a post-filter Search decides
// comparison groups on the attribute copies of each scanned row, scores the
// rows that pass, and evaluates the other groups only on rows a heap would
// keep. Its results, and its CandidatesOnly candidates, must equal
// filterEveryRow's, which reads every attribute from vids, byte for byte
// for every partition encoding, with one and two scan workers. The filters
// are an int range passing about half the rows, a float comparison, a
// comparison on an int attribute that is NULL on some rows, single- and
// two-token MATCH filters, an OR group mixing a comparison with a MATCH
// (deferred whole) and an AND of a comparison group and a MATCH group. The
// store holds a built index plus a delta. A second pass removes the vids
// rows of every 11th vector, which only deferred groups read: a comparison
// on a text attribute then rejects them, and a MATCH probe does not read
// the row. On the unquantized index an Exact search must equal
// filterEveryRow over every partition; with only deferred groups its scan
// covers more rows than a query holds pending before a worker settles them
// mid-scan.
func TestPostFilterEqualsFilterEveryRow(t *testing.T) {
	const dim, n, delta, k, nprobe = 32, 2400, 150, 10, 8
	data := clusteredData(41, n+delta, dim, 24)
	rng := rand.New(rand.NewSource(43))
	queries := vec.NewMatrix(6, dim)
	for qi := 0; qi < queries.Rows; qi++ {
		copy(queries.Row(qi), data.Row(rng.Intn(n)))
		for d := range queries.Row(qi) {
			queries.Row(qi)[d] += float32(rng.NormFloat64() * 0.3)
		}
	}
	attrs := func(i int) map[string]reldb.Value {
		a := map[string]reldb.Value{
			"cat":   reldb.I(int64(i % 100)),
			"score": reldb.F(float64(i%1000) / 1000),
			"tags":  reldb.S(fmt.Sprintf("t%d common%d", i%7, i%2)),
		}
		if i%4 != 0 {
			a["rank"] = reldb.I(int64(i % 9))
		}
		return a
	}
	match := func(q string) reldb.Predicate {
		return reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S(q)}
	}
	catLt50 := reldb.Predicate{Column: "cat", Op: reldb.OpLt, Value: reldb.I(50)}
	// Filters that only deferred groups evaluate, run on the consistent
	// store and again once vids rows are gone.
	deferred := map[string][]stats.Filter{
		"match":        stats.And(match("t3")),
		"match-two":    stats.And(match("common1 t3")),
		"cat-or-match": {{AnyOf: []reldb.Predicate{{Column: "cat", Op: reldb.OpGe, Value: reldb.I(90)}, match("t5")}}},
		"tags>=t4":     stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpGe, Value: reldb.S("t4")}),
	}
	scanned := map[string][]stats.Filter{
		"cat<50":           stats.And(catLt50),
		"score>=0.3":       stats.And(reldb.Predicate{Column: "score", Op: reldb.OpGe, Value: reldb.F(0.3)}),
		"rank!=3":          stats.And(reldb.Predicate{Column: "rank", Op: reldb.OpNe, Value: reldb.I(3)}),
		"cat<50-and-match": stats.And(catLt50, match("common1")),
	}
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{
				Dim: dim, TargetPartitionSize: 60, Seed: 5, Quantization: qt,
				Attributes: []AttributeDef{
					{Name: "cat", Type: reldb.TypeInt64, Indexed: true},
					{Name: "tags", Type: reldb.TypeText, FullText: true},
					{Name: "score", Type: reldb.TypeFloat64},
					{Name: "rank", Type: reldb.TypeInt64},
				},
			})
			env.upsertAll(t, &vec.Matrix{Data: data.Data[:n*dim], Rows: n, Dim: dim}, attrs)
			env.rebuild(t)
			err := env.store.Update(func(wt *storage.WriteTxn) error {
				for i := n; i < n+delta; i++ {
					if err := env.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), attrs(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			env.checkInvariants(t)
			all := maps.Clone(scanned)
			maps.Copy(all, deferred)
			checkPostFilter(t, env, queries, all, k, nprobe)

			// vids rows removed from every 11th vector.
			err = env.store.Update(func(wt *storage.WriteTxn) error {
				for i := 0; i < n+delta; i += 11 {
					row, err := env.ix.assets.Get(wt, reldb.S(fmt.Sprintf("asset-%d", i)))
					if err != nil {
						return err
					}
					if err := env.ix.vids.Delete(wt, row[2]); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			checkPostFilter(t, env, queries, deferred, k, nprobe)
		})
	}
}

// checkPostFilter runs TestPostFilterEqualsFilterEveryRow's comparisons of
// each filter set against filterEveryRow, with one and two workers.
func checkPostFilter(t *testing.T, env *testEnv, queries *vec.Matrix, filters map[string][]stats.Filter, k, nprobe int) {
	t.Helper()
	quantized := env.ix.cfg.Quantization != quant.None
	for _, workers := range []int{1, 2} {
		env.ix.cfg.Workers = workers
		err := env.store.View(func(rt *storage.ReadTxn) error {
			for name, f := range filters {
				for qi := 0; qi < queries.Rows; qi++ {
					q := queries.Row(qi)
					for _, only := range []bool{false, true} {
						got, info, err := env.ix.Search(rt, q, SearchOptions{K: k, NProbe: nprobe, Filters: f, Plan: PlanPostFilter, CandidatesOnly: only})
						if err != nil {
							return err
						}
						want := filterEveryRow(t, env.ix, rt, q, f, k, nprobe, only)
						if info.Plan != PlanPostFilter || len(want) == 0 {
							t.Fatalf("%s: plan %v with %d expected results", name, info.Plan, len(want))
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, %d workers, query %d, candidatesOnly %v:\n got %v\nwant %v", name, workers, qi, only, got, want)
						}
					}
					if quantized {
						continue
					}
					got, info, err := env.ix.Search(rt, q, SearchOptions{K: k, Exact: true, Filters: f})
					if err != nil {
						return err
					}
					sf, err := env.ix.splitFilters(f)
					if err != nil {
						return err
					}
					if len(sf.groups) == 0 && info.VectorsScanned <= int64(max(8*scanBatch, 8*k)) {
						t.Fatalf("%s: exact search scanned %d rows, too few to settle during the scan", name, info.VectorsScanned)
					}
					if want := filterEveryRow(t, env.ix, rt, q, f, k, 0, false); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %d workers, query %d, exact:\n got %v\nwant %v", name, workers, qi, got, want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkPostFilterScan times the post-filter plan's scan engine, rerank
// included, on an SQ8 index with an int and a full-text attribute: under a
// comparison passing half the rows (decided on the scanned rows), under a
// MATCH passing half the rows (settled through the postings after scoring),
// under a comparison on the text attribute passing 3 rows in 7 (settled
// through vids after scoring) and without a filter. It reports ns per row
// the scan reads and the vids rows read per query to settle filters.
func BenchmarkPostFilterScan(b *testing.B) {
	const dim, k, nprobe = 64, 10, 8
	n := 20000
	if testing.Short() {
		n = 4000
	}
	data := clusteredData(7, n, dim, 64)
	env := newEnv(b, Config{
		Dim: dim, Seed: 1, Quantization: quant.SQ8,
		Attributes: []AttributeDef{
			{Name: "cat", Type: reldb.TypeInt64, Indexed: true},
			{Name: "tags", Type: reldb.TypeText, FullText: true},
		},
	})
	env.upsertAll(b, data, func(i int) map[string]reldb.Value {
		return map[string]reldb.Value{
			"cat":  reldb.I(int64(i % 100)),
			"tags": reldb.S(fmt.Sprintf("t%d common%d", i%7, i%2)),
		}
	})
	env.rebuild(b)
	rng := rand.New(rand.NewSource(9))
	queries := vec.NewMatrix(32, dim)
	for qi := 0; qi < queries.Rows; qi++ {
		copy(queries.Row(qi), data.Row(rng.Intn(n)))
		for d := range queries.Row(qi) {
			queries.Row(qi)[d] += float32(rng.NormFloat64() * 0.3)
		}
	}
	rt, err := env.store.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	_, d, err := env.ix.load(rt)
	if err != nil {
		b.Fatal(err)
	}
	partRows := make(map[int64]int64)
	err = env.ix.vectors.ScanKeys(rt, nil, func(key reldb.Row) error {
		partRows[key[0].Int]++
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name    string
		filters []stats.Filter
	}{
		{"cat<50", stats.And(reldb.Predicate{Column: "cat", Op: reldb.OpLt, Value: reldb.I(50)})},
		{"match", stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("common1")})},
		{"tags>=t4", stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpGe, Value: reldb.S("t4")})},
		{"none", nil},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sf, err := env.ix.splitFilters(c.filters)
			if err != nil {
				b.Fatal(err)
			}
			var rows, lookups int64
			for i := 0; i < b.N; i++ {
				q := queries.Row(i % queries.Rows)
				parts := env.ix.probeSet(d.cents, q, nprobe)
				work := make([]partWork, len(parts))
				for j, p := range parts {
					work[j] = partWork{part: p, queries: []int{0}}
					rows += partRows[p]
				}
				var cnt scanCounts
				if _, err := env.ix.scan(rt, d.cb, &vec.Matrix{Data: q, Rows: 1, Dim: dim}, work, sf, BatchOptions{K: k}, &cnt); err != nil {
					b.Fatal(err)
				}
				lookups += cnt.lookups.Load()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
			b.ReportMetric(float64(lookups)/float64(b.N), "lookups/query")
		})
	}
}
