package ivf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"micronn/internal/btree"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// fullRerank is the rerank without the bound: it reads every candidate's
// exact vector and keeps the top k.
func fullRerank(t *testing.T, ix *Index, rt btree.ReadTxn, q []float32, cands []topk.Result, k int) []topk.Result {
	t.Helper()
	heap := topk.New(k)
	x := make([]float32, ix.cfg.Dim)
	for _, c := range cands {
		row, err := ix.rawvecs.Get(rt, reldb.I(c.VectorID))
		if err != nil {
			t.Fatal(err)
		}
		vec.FromBlob(x, row[1].Bts)
		heap.Push(topk.Result{AssetID: c.AssetID, VectorID: c.VectorID, Distance: vec.Distance(ix.cfg.Metric, q, x)})
	}
	return heap.Results()
}

// sameBits fails unless got and want hold the same results with the same
// float bits.
func sameBits(t *testing.T, tag string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.AssetID != w.AssetID || g.VectorID != w.VectorID || math.Float32bits(g.Distance) != math.Float32bits(w.Distance) || g.Residual != w.Residual {
			t.Fatalf("%s: rank %d is %+v, want %+v", tag, i, g, w)
		}
	}
}

// TestRerankBoundMatchesFullRerank: rows upserted after a Rebuild outside
// the trained range, some far enough to saturate their residual bytes, are
// flushed under the stale codebook. For queries near both kinds of row, on
// SQ8 and SQ4, RerankCandidates over a scan's candidates must return
// exactly what reading every candidate returns, Search must return the
// same, and on SQ8 the bound must save reads. The drift gauge counts the
// flushed rows until the next Rebuild resets it.
func TestRerankBoundMatchesFullRerank(t *testing.T) {
	for _, kind := range []quant.Type{quant.SQ8, quant.SQ4} {
		t.Run(kind.String(), func(t *testing.T) {
			const dim, n, extra, k = 16, 800, 200, 10
			data := clusteredData(71, n+extra, dim, 8)
			for i := n; i < n+extra; i++ {
				// Scaled rows clamp past the trained range; the largest
				// factor moves them far enough out to saturate.
				vec.Scale(data.Row(i), []float32{1.05, 1.1, 1.2, 1.5, 4}[i%5])
			}
			e := newEnv(t, Config{Dim: dim, TargetPartitionSize: 40, Seed: 3, Quantization: kind})
			e.upsertAll(t, &vec.Matrix{Data: data.Data[:n*dim], Rows: n, Dim: dim}, nil)
			e.rebuild(t)
			err := e.store.Update(func(wt *storage.WriteTxn) error {
				for i := n; i < n+extra; i++ {
					if err := e.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			e.flush(t)
			e.checkInvariants(t)

			var st Stats
			saturated := 0
			var read, handed int64
			err = e.store.View(func(rt *storage.ReadTxn) error {
				if st, err = e.ix.Stats(rt); err != nil {
					return err
				}
				err := e.ix.vectors.ScanBorrowed(rt, nil, func(key, val []byte) error {
					r, _, err := readRowView(key, val)
					if err == nil && r.vid >= n && r.payload[len(r.payload)-1] == quant.NoResidual {
						saturated++
					}
					return err
				})
				if err != nil {
					return err
				}
				for qi := 0; qi < 40; qi++ {
					q := append([]float32(nil), data.Row(qi*(n+extra)/40)...)
					q[qi%dim] += 0.5
					cands, _, err := e.ix.Search(rt, q, SearchOptions{K: k, NProbe: 4, CandidatesOnly: true})
					if err != nil {
						return err
					}
					want := fullRerank(t, e.ix, rt, q, cands, k)
					got, bytesRead, err := e.ix.RerankCandidates(rt, q, cands, k)
					if err != nil {
						return err
					}
					sameBits(t, fmt.Sprintf("query %d RerankCandidates", qi), got, want)
					res, info, err := e.ix.Search(rt, q, SearchOptions{K: k, NProbe: 4})
					if err != nil {
						return err
					}
					sameBits(t, fmt.Sprintf("query %d Search", qi), res, want)
					if int64(info.Reranked)*int64(vec.BlobSize(dim)) != bytesRead || info.Candidates != len(cands) {
						t.Fatalf("query %d: Search read %d of %d candidates, RerankCandidates %d bytes of %d", qi, info.Reranked, info.Candidates, bytesRead, len(cands))
					}
					read += int64(info.Reranked)
					handed += int64(info.Candidates)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if saturated == 0 || saturated == extra {
				t.Errorf("%d of %d flushed rows' residual bytes saturated to %d, want some but not all", saturated, extra, quant.NoResidual)
			}
			if kind == quant.SQ8 && read >= handed {
				// SQ4's 16 levels leave residuals as large as these
				// clusters' spread, so there it may rule out nothing.
				t.Errorf("the rerank read all %d candidates", handed)
			}
			t.Logf("%d of %d flushed rows saturated; the rerank read %d of %d candidates", saturated, extra, read, handed)
			if st.ResidualRows != extra || !(st.ResidualSum > 0) {
				t.Errorf("drift gauge after the flush: %d rows, sum %v; want %d rows and a positive sum", st.ResidualRows, st.ResidualSum, extra)
			}
			e.rebuild(t)
			err = e.store.View(func(rt *storage.ReadTxn) error {
				st, err = e.ix.Stats(rt)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if st.ResidualRows != 0 || st.ResidualSum != 0 {
				t.Errorf("drift gauge after a Rebuild: %d rows, sum %v; want zero", st.ResidualRows, st.ResidualSum)
			}
		})
	}
}

// TestRerankReadsEveryCandidateOffL2: the residual bound is an L2 bound,
// so on Dot and Cosine the rerank reads every candidate.
func TestRerankReadsEveryCandidateOffL2(t *testing.T) {
	for _, metric := range []vec.Metric{vec.Dot, vec.Cosine} {
		t.Run(metric.String(), func(t *testing.T) {
			const dim, n, k = 16, 600, 10
			data := clusteredData(73, n, dim, 6)
			_, sq8 := buildPair(t, metric, data)
			err := sq8.store.View(func(rt *storage.ReadTxn) error {
				for qi := 0; qi < 10; qi++ {
					_, info, err := sq8.ix.Search(rt, data.Row(qi*37), SearchOptions{K: k, NProbe: 4})
					if err != nil {
						return err
					}
					if info.Candidates == 0 || info.Reranked != info.Candidates {
						t.Fatalf("query %d: the rerank read %d of %d candidates, want all", qi, info.Reranked, info.Candidates)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// lowRankData draws n points from a mixture of clusters that each spread
// along a few directions: a centre with unit-variance coordinates, 12
// random directions of norm about 9, and noise of 0.35 per dimension. Its
// distances to a query spread the way embeddings' do, unlike
// clusteredData's isotropic clusters, whose points are all about equally
// far from a query in high dimensions.
func lowRankData(seed int64, n, dim, clusters int) *vec.Matrix {
	const rank = 12
	rng := rand.New(rand.NewSource(seed))
	ctrs := vec.NewMatrix(clusters, dim)
	bases := vec.NewMatrix(clusters*rank, dim)
	for i := range ctrs.Data {
		ctrs.Data[i] = float32(rng.NormFloat64())
	}
	for i := range bases.Data {
		bases.Data[i] = float32(rng.NormFloat64() * 9 / math.Sqrt(float64(dim)))
	}
	data := vec.NewMatrix(n, dim)
	for i := 0; i < n; i++ {
		c, row := rng.Intn(clusters), data.Row(i)
		copy(row, ctrs.Row(c))
		for r := 0; r < rank; r++ {
			z := float32(rng.NormFloat64())
			for d, x := range bases.Row(c*rank + r) {
				row[d] += z * x
			}
		}
		for d := range row {
			row[d] += float32(rng.NormFloat64() * 0.35)
		}
	}
	return data
}

// BenchmarkRerank times RerankCandidates on the candidates of an SQ8
// Search at K=100 and RerankFactor 4, the refine step of a filtered query,
// over 30k 128-dimensional points of lowRankData (4k under -short) and 32
// queries from the same mixture: exact
// reads of the candidates the residual bounds cannot rule out. It reports
// the rows read and the candidates per query.
func BenchmarkRerank(b *testing.B) {
	const dim, k, nprobe = 128, 100, 8
	n := 30000
	if testing.Short() {
		n = 4000
	}
	const nq = 32
	all := lowRankData(11, n+nq, dim, 24)
	data := all.Slice(0, n)
	env := newEnv(b, Config{Dim: dim, Seed: 1, Quantization: quant.SQ8})
	env.upsertAll(b, data, nil)
	env.rebuild(b)
	rt, err := env.store.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	type query struct {
		q     []float32
		cands []topk.Result
	}
	queries := make([]query, nq)
	for i := range queries {
		q := all.Row(n + i)
		cands, _, err := env.ix.Search(rt, q, SearchOptions{K: k, NProbe: nprobe, CandidatesOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = query{q, cands}
	}
	var read, cands int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qc := queries[i%len(queries)]
		_, n, err := env.ix.RerankCandidates(rt, qc.q, qc.cands, k)
		if err != nil {
			b.Fatal(err)
		}
		read += n / int64(vec.BlobSize(dim))
		cands += int64(len(qc.cands))
	}
	b.ReportMetric(float64(read)/float64(b.N), "read/query")
	b.ReportMetric(float64(cands)/float64(b.N), "cands/query")
}
