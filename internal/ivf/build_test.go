package ivf

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"micronn/internal/clustering"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// trainingEnv builds a float32 or SQ8 index over n clustered vectors and,
// with rebuilt, spreads them over partitions, so that clustered-key order
// is neither vid nor insertion order.
func trainingEnv(t *testing.T, q quant.Type, rebuilt bool) (*testEnv, *vec.Matrix) {
	t.Helper()
	data := clusteredData(21, 600, 16, 6)
	e := newEnv(t, Config{Dim: data.Dim, Metric: vec.L2, TargetPartitionSize: 50, Seed: 5, Quantization: q})
	e.upsertAll(t, data, nil)
	if rebuilt {
		e.rebuild(t)
	}
	return e, data
}

// keyedVectors returns the clustered keys of e's vectors and each one's
// exact vector, found through its row's asset id ("asset-i" holds row i of
// data), not through the read path under test.
func keyedVectors(t *testing.T, e *testEnv, txn *storage.ReadTxn, data *vec.Matrix) ([]partVid, *vec.Matrix) {
	t.Helper()
	keys, err := e.ix.collectKeys(txn, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := vec.NewMatrix(len(keys), data.Dim)
	for p, k := range keys {
		row, err := e.ix.vectors.Get(txn, reldb.I(k.part), reldb.I(k.vid))
		if err != nil {
			t.Fatal(err)
		}
		i, err := strconv.Atoi(strings.TrimPrefix(row[2].Str, "asset-"))
		if err != nil {
			t.Fatal(err)
		}
		want.SetRow(p, data.Row(i))
	}
	return keys, want
}

func TestDiskSourceReadsRequestedSlots(t *testing.T) {
	for _, q := range []quant.Type{quant.None, quant.SQ8} {
		for _, rebuilt := range []bool{false, true} {
			e, data := trainingEnv(t, q, rebuilt)
			err := e.store.View(func(rt *storage.ReadTxn) error {
				keys, want := keyedVectors(t, e, rt, data)
				n := len(keys)
				rng := rand.New(rand.NewSource(3))
				descending := make([]int, n)
				for i := range descending {
					descending[i] = n - 1 - i
				}
				random := make([]int, 1024)
				for i := range random {
					random[i] = rng.Intn(n)
				}
				src := &diskSource{ix: e.ix, txn: rt, keys: keys, dim: data.Dim}
				for name, idx := range map[string][]int{
					"duplicates": {7, 7, n - 1, 0, 7, n - 1, 0, 0},
					"descending": descending,
					"random":     random,
				} {
					dst := vec.NewMatrix(len(idx), data.Dim)
					if err := src.Read(idx, dst); err != nil {
						t.Fatal(err)
					}
					for slot, p := range idx {
						for j, x := range dst.Row(slot) {
							if math.Float32bits(x) != math.Float32bits(want.Row(p)[j]) {
								t.Fatalf("quant %v rebuilt %v %s: slot %d holds %v, want position %d's row %v",
									q, rebuilt, name, slot, dst.Row(slot), p, want.Row(p))
							}
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
}

// TestDiskSourceTrainsLikeMatrixSource checks that the order in which
// diskSource reads rows never reaches the trainer: mini-batch k-means over
// the disk gives the centroids it gives over the same vectors in memory.
func TestDiskSourceTrainsLikeMatrixSource(t *testing.T) {
	for _, q := range []quant.Type{quant.None, quant.SQ8} {
		e, data := trainingEnv(t, q, true)
		err := e.store.View(func(rt *storage.ReadTxn) error {
			keys, mem := keyedVectors(t, e, rt, data)
			cfg := clustering.Config{TargetClusterSize: 40, BatchSize: 128, Iterations: 20, Seed: 9}
			disk, err := clustering.MiniBatchKMeans(cfg, &diskSource{ix: e.ix, txn: rt, keys: keys, dim: data.Dim})
			if err != nil {
				return err
			}
			ref, err := clustering.MiniBatchKMeans(cfg, clustering.MatrixSource{M: mem})
			if err != nil {
				return err
			}
			for i, x := range disk.Centroids.Data {
				if math.Float32bits(x) != math.Float32bits(ref.Centroids.Data[i]) {
					t.Fatalf("quant %v: centroid element %d is %v from disk, %v from memory", q, i, x, ref.Centroids.Data[i])
				}
			}
			for c := range disk.Counts {
				if disk.Counts[c] != ref.Counts[c] {
					t.Fatalf("quant %v: centroid %d counts %d from disk, %d from memory", q, c, disk.Counts[c], ref.Counts[c])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
