package ivf

import (
	"fmt"
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

// TestPostFilterEqualsFilterEveryRow: a post-filter Search scores every row
// first and evaluates filters only on rows a heap would keep; its results,
// and its CandidatesOnly candidates, must equal filterEveryRow's byte for
// byte for every partition encoding, with one and two scan workers, for an
// int range passing about half the rows, single- and two-token MATCH
// filters, and a store where some vectors have no vids row (a comparison
// predicate then rejects them, a MATCH probe does not read the row). The
// store holds a built index plus a delta. On the unquantized index an Exact
// search, whose scan covers more rows than a query holds pending before a
// worker settles them mid-scan, must equal filterEveryRow over every
// partition.
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
		return map[string]reldb.Value{
			"cat":  reldb.I(int64(i % 100)),
			"tags": reldb.S(fmt.Sprintf("t%d common%d", i%7, i%2)),
		}
	}
	filters := map[string][]stats.Filter{
		"cat<50":       stats.And(reldb.Predicate{Column: "cat", Op: reldb.OpLt, Value: reldb.I(50)}),
		"match":        stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("t3")}),
		"match-two":    stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("common1 t3")}),
		"cat-or-match": {{AnyOf: []reldb.Predicate{{Column: "cat", Op: reldb.OpGe, Value: reldb.I(90)}, {Column: "tags", Op: reldb.OpMatch, Value: reldb.S("t5")}}}},
	}
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{
				Dim: dim, TargetPartitionSize: 60, Seed: 5, Quantization: qt,
				Attributes: []AttributeDef{
					{Name: "cat", Type: reldb.TypeInt64, Indexed: true},
					{Name: "tags", Type: reldb.TypeText, FullText: true},
				},
			})
			env.upsertAll(t, &vec.Matrix{Data: data.Data[:n*dim], Rows: n, Dim: dim}, attrs)
			env.rebuild(t)
			// A delta, then vids rows removed from every 11th vector.
			err := env.store.Update(func(wt *storage.WriteTxn) error {
				for i := n; i < n+delta; i++ {
					if err := env.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), attrs(i)); err != nil {
						return err
					}
				}
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
							if qt != quant.None {
								continue
							}
							got, info, err := env.ix.Search(rt, q, SearchOptions{K: k, Exact: true, Filters: f})
							if err != nil {
								return err
							}
							if info.VectorsScanned <= int64(max(8*scanBatch, 8*k)) {
								t.Fatalf("exact search scanned %d rows, too few to settle during the scan", info.VectorsScanned)
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
		})
	}
}
