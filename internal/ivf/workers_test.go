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
	"micronn/internal/vec"
)

// TestSearchWorkersMatchSingleWorker: one query repeated with four scan
// workers returns exactly what one worker returns, for every partition
// encoding. The workers of one search share its per-query quantizer state,
// so a table filled lazily on that state would let one worker score rows
// against another's half-written entries and evict true neighbours. The
// approximate candidate sets are compared too: the exact rerank can hide a
// misscored candidate that still survives the cut. Filtered searches cover
// the rest of the state workers share: a selective predicate (pre-filter
// plan), a broad one (post-filter plan, evaluated row by row in every
// worker) and a MATCH predicate post-filtered through posting probes.
func TestSearchWorkersMatchSingleWorker(t *testing.T) {
	const dim, n, k, nprobe, repeats = 32, 3000, 10, 16, 8
	data := clusteredData(5, n, dim, 30)
	rng := rand.New(rand.NewSource(17))
	queries := vec.NewMatrix(6, dim)
	for qi := 0; qi < queries.Rows; qi++ {
		copy(queries.Row(qi), data.Row(rng.Intn(n)))
		for d := range queries.Row(qi) {
			queries.Row(qi)[d] += float32(rng.NormFloat64() * 0.2)
		}
	}
	for _, qt := range []quant.Type{quant.None, quant.SQ8, quant.SQ4} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{
				Dim: dim, TargetPartitionSize: 50, Seed: 3, Quantization: qt,
				Attributes: []AttributeDef{
					{Name: "cat", Type: reldb.TypeInt64, Indexed: true},
					{Name: "tags", Type: reldb.TypeText, FullText: true},
				},
			})
			env.upsertAll(t, data, func(i int) map[string]reldb.Value {
				return map[string]reldb.Value{
					"cat":  reldb.I(int64(i % 100)),
					"tags": reldb.S(fmt.Sprintf("t%d common%d", i%7, i%2)),
				}
			})
			env.rebuild(t)
			filtered := []struct {
				filters []stats.Filter
				plan    PlanType // forced when set; otherwise asserted
				want    PlanType
			}{
				{filters: stats.And(reldb.Predicate{Column: "cat", Op: reldb.OpEq, Value: reldb.I(3)}), want: PlanPreFilter},
				{filters: stats.And(reldb.Predicate{Column: "cat", Op: reldb.OpLt, Value: reldb.I(90)}), want: PlanPostFilter},
				{filters: stats.And(reldb.Predicate{Column: "tags", Op: reldb.OpMatch, Value: reldb.S("common1 t3")}), plan: PlanPostFilter, want: PlanPostFilter},
			}

			// run searches every query at the given worker count, returning
			// the final results, the approximate candidates and the batch
			// results.
			run := func(workers int) (final, cands, batch any) {
				env.ix.cfg.Workers = workers
				var f, c []any
				var b any
				err := env.store.View(func(rt *storage.ReadTxn) error {
					for qi := 0; qi < queries.Rows; qi++ {
						for _, only := range []bool{false, true} {
							res, _, err := env.ix.Search(rt, queries.Row(qi), SearchOptions{K: k, NProbe: nprobe, CandidatesOnly: only})
							if err != nil {
								return err
							}
							if only {
								c = append(c, res)
							} else {
								f = append(f, res)
							}
						}
					}
					for _, fc := range filtered {
						for qi := 0; qi < queries.Rows; qi++ {
							res, info, err := env.ix.Search(rt, queries.Row(qi), SearchOptions{K: k, NProbe: nprobe, Filters: fc.filters, Plan: fc.plan})
							if err != nil {
								return err
							}
							if info.Plan != fc.want || len(res) == 0 {
								t.Fatalf("filtered search ran plan %v with %d results, want plan %v and some results", info.Plan, len(res), fc.want)
							}
							f = append(f, res)
						}
					}
					res, _, err := env.ix.BatchSearch(rt, queries, BatchOptions{K: k, NProbe: nprobe})
					b = res
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				return f, c, b
			}

			wantFinal, wantCands, wantBatch := run(1)
			for r := 0; r < repeats; r++ {
				final, cands, batch := run(4)
				if !reflect.DeepEqual(final, wantFinal) {
					t.Fatalf("repeat %d: 4-worker results differ from 1-worker results", r)
				}
				if !reflect.DeepEqual(cands, wantCands) {
					t.Fatalf("repeat %d: 4-worker candidates differ from 1-worker candidates", r)
				}
				if !reflect.DeepEqual(batch, wantBatch) {
					t.Fatalf("repeat %d: 4-worker batch results differ from 1-worker batch results", r)
				}
			}
		})
	}
}

// TestSearchAllocsIndependentOfRowsScanned: partition scans read rows in
// place from the leaf pages, so a search's allocations must not grow with
// the rows it scans. Widening nprobe from 8 to 32 roughly quadruples the
// scanned rows; the extra allocations (per-partition cursors, asset ids of
// heap survivors) must stay under one per ten extra rows. Decoding a row
// per scanned vector costs about five.
func TestSearchAllocsIndependentOfRowsScanned(t *testing.T) {
	const dim, n, k = 16, 6000, 10
	data := clusteredData(23, n, dim, 40)
	q := data.Row(7)
	for _, qt := range []quant.Type{quant.None, quant.SQ8} {
		t.Run(qt.String(), func(t *testing.T) {
			env := newEnv(t, Config{Dim: dim, TargetPartitionSize: 150, Seed: 5, Quantization: qt, Workers: 1})
			env.upsertAll(t, data, nil)
			env.rebuild(t)

			// measure returns the allocations and rows scanned of one
			// search at nprobe.
			measure := func(nprobe int) (allocs float64, rows int64) {
				err := env.store.View(func(rt *storage.ReadTxn) error {
					var serr error
					allocs = testing.AllocsPerRun(20, func() {
						var info *PlanInfo
						if _, info, serr = env.ix.Search(rt, q, SearchOptions{K: k, NProbe: nprobe}); serr == nil {
							rows = info.VectorsScanned
						}
					})
					return serr
				})
				if err != nil {
					t.Fatal(err)
				}
				return allocs, rows
			}
			aLo, rLo := measure(8)
			aHi, rHi := measure(32)
			t.Logf("nprobe 8: %.0f allocs, %d rows; nprobe 32: %.0f allocs, %d rows", aLo, rLo, aHi, rHi)
			if rHi-rLo < 1000 {
				t.Fatalf("nprobe 32 scanned only %d more rows than nprobe 8; the test needs a wider gap", rHi-rLo)
			}
			if extra, budget := aHi-aLo, float64(rHi-rLo)/10; extra >= budget {
				t.Fatalf("%.0f extra allocations for %d extra rows scanned, want fewer than %.0f", extra, rHi-rLo, budget)
			}
		})
	}
}
