package ivf

import (
	"math/rand"
	"reflect"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// TestSearchWorkersMatchSingleWorker: one query repeated with four scan
// workers returns exactly what one worker returns, for every partition
// encoding. The workers of one search share its per-query quantizer state,
// so a table filled lazily on that state would let one worker score rows
// against another's half-written entries and evict true neighbours. The
// approximate candidate sets are compared too: the exact rerank can hide a
// misscored candidate that still survives the cut.
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
			env := newEnv(t, Config{Dim: dim, TargetPartitionSize: 50, Seed: 3, Quantization: qt})
			env.upsertAll(t, data, nil)
			env.rebuild(t)

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
