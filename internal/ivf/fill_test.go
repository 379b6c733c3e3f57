package ivf

import (
	"fmt"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/storage"
)

// vectorLeaves returns how many leaves the vectors table occupies and how
// many it would need if every leaf were full: rows ÷ rows-per-full-leaf.
// A full leaf holds as many of the table's largest cells as fit after the
// btree's 13-byte page header; each cell is its key and value plus 7 bytes
// of framing and a 2-byte slot.
func vectorLeaves(t *testing.T, e *testEnv) (leaves, ideal int) {
	t.Helper()
	err := e.store.View(func(rt *storage.ReadTxn) error {
		rows, maxCell := 0, 0
		err := e.ix.vectors.ScanBorrowed(rt, nil, func(key, val []byte) error {
			rows++
			maxCell = max(maxCell, 1+2+len(key)+4+len(val)+2)
			return nil
		})
		if err != nil {
			return err
		}
		perLeaf := (int(e.store.PageSize()) - 13) / maxCell
		ideal = (rows + perLeaf - 1) / perLeaf
		return e.ix.vectors.LeafPages(rt, nil, func(uint32) { leaves++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	return leaves, ideal
}

// TestRebuildFillsPartitionLeaves: Rebuild moves rows into each partition
// in vid order, interleaved across partitions, so every insert lands just
// before the next partition's first key. The btree's ascending-run split
// keeps those pages full, so the vectors table stays within a small factor
// of its full-leaf size (the byte-midpoint split alone needed 1.7x-2.1x).
// Each partition can still start and end in a part-full leaf, which weighs
// more when a partition spans few leaves (SQ8 codes) than many (float32).
// A second Rebuild, after fresh upserts, moves rows between partitions
// already on disk and must leave the same fill and a consistent index.
func TestRebuildFillsPartitionLeaves(t *testing.T) {
	const dim, n = 128, 3000
	data := clusteredData(5, n, dim, 30)
	for _, tc := range []struct {
		q      quant.Type
		factor float64
	}{
		{quant.None, 1.15},
		{quant.SQ8, 1.5},
	} {
		t.Run(fmt.Sprint(tc.q), func(t *testing.T) {
			e := newEnv(t, Config{Dim: dim, TargetPartitionSize: 100, Seed: 3, Quantization: tc.q})
			e.upsertAll(t, data, nil)
			e.rebuild(t)
			check := func(when string) {
				leaves, ideal := vectorLeaves(t, e)
				t.Logf("%s: %d leaves, %d if full (%.2fx)", when, leaves, ideal, float64(leaves)/float64(ideal))
				if float64(leaves) > tc.factor*float64(ideal) {
					t.Fatalf("%s: vectors table has %d leaves, more than %.2fx the %d full leaves its rows need", when, leaves, tc.factor, ideal)
				}
			}
			check("first rebuild")

			// Fresh upserts: new assets plus replacements of old ones.
			err := e.store.Update(func(wt *storage.WriteTxn) error {
				for i := 0; i < 600; i++ {
					if err := e.ix.Upsert(wt, fmt.Sprintf("asset-%d", (i*7)%(n+300)), data.Row((i*13)%n), nil); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			e.rebuild(t)
			e.checkInvariants(t)
			check("second rebuild")
		})
	}
}
