package ivf

import (
	"errors"
	"slices"

	"micronn/internal/btree"
	"micronn/internal/reldb"
)

// Raw access helpers used by benchmarks and the CLI. They expose the
// storage layout directly so experiments (e.g. the clustered-vs-shuffled
// layout ablation) can compare access patterns without going through the
// search path.

// PartitionIDs returns every IVF partition id (excluding the delta) at the
// transaction's snapshot.
func (ix *Index) PartitionIDs(txn btree.ReadTxn) ([]int64, error) {
	_, d, err := ix.load(txn)
	if err != nil {
		return nil, err
	}
	return slices.Clone(d.cents.ids), nil
}

// ScanPartition streams the (vid, vector blob) pairs of one partition in
// clustered order — a single contiguous B+tree range scan. The blob is the
// float32 vector, or the SQ8/SQ4 code of a quantized partition row without
// its residual byte.
func (ix *Index) ScanPartition(txn btree.ReadTxn, part int64, fn func(vid int64, blob []byte) error) error {
	return ix.vectors.Scan(txn, []reldb.Value{reldb.I(part)}, func(row reldb.Row) error {
		return fn(row[1].Int, ix.vectorBlob(part, row[3].Bts))
	})
}

// vectorBlob returns the vector blob of a partition row's payload: the
// payload without its residual byte on a quantized partition, the payload
// itself otherwise.
func (ix *Index) vectorBlob(part int64, payload []byte) []byte {
	if ix.rawvecs != nil && part != DeltaPartition && len(payload) > 0 {
		return payload[:len(payload)-1]
	}
	return payload
}

// FetchVector resolves a vector by vid through the vid and asset mappings
// — the random-access path an unclustered layout would force for every
// row. It returns the blob ScanPartition would.
func (ix *Index) FetchVector(txn btree.ReadTxn, vid int64) ([]byte, error) {
	var lk lookups
	lk.bind(ix, txn)
	asset, err := lk.assetOf(vid)
	if errors.Is(err, reldb.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	part, err := ix.partOf(txn, asset)
	if err != nil {
		return nil, err
	}
	row, err := ix.vectors.Get(txn, reldb.I(part), reldb.I(vid))
	if err != nil {
		return nil, err
	}
	return ix.vectorBlob(part, row[3].Bts), nil
}
