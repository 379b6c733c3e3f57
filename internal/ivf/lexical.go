package ivf

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"micronn/internal/btree"
	"micronn/internal/fts"
	"micronn/internal/reldb"
	"micronn/internal/vec"
)

// This file is the index-level lexical leg of hybrid search: BM25 ranking
// over a FullText attribute's inverted index, split into a stats-collection
// half and a scoring half so a sharded router can aggregate global df/N
// figures before any shard scores (making sharded and single-store rankings
// identical). Fusion itself lives a layer up, in the public API.

// LexicalDoc is one BM25-ranked document resolved to its asset id, with its
// exact (full-precision) distance to the query vector so fusion can report
// parity distances for documents the vector leg never visited.
type LexicalDoc struct {
	AssetID  string
	VectorID int64
	Score    float64
	Distance float32
}

// FullTextColumns returns the attribute names carrying a full-text index,
// sorted.
func (ix *Index) FullTextColumns() []string {
	cols := make([]string, 0, len(ix.ftsIndexes))
	for c := range ix.ftsIndexes {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	return cols
}

// ftsIndex resolves column's full-text index.
func (ix *Index) ftsIndex(column string) (*fts.Index, error) {
	f, ok := ix.ftsIndexes[column]
	if !ok {
		return nil, fmt.Errorf("%w: hybrid text search on %q without full-text index", ErrNoFilter, column)
	}
	return f, nil
}

// LexicalStats collects this store's BM25 statistics (per-token document
// frequencies, document count, summed document length) for the given unique
// query tokens.
func (ix *Index) LexicalStats(txn btree.ReadTxn, column string, tokens []string) (fts.BM25Stats, error) {
	f, err := ix.ftsIndex(column)
	if err != nil {
		return fts.BM25Stats{}, err
	}
	return f.CollectBM25Stats(txn, tokens)
}

// LexicalSearch BM25-ranks the documents of column's full-text index against
// the query tokens using the supplied (possibly cross-shard global) corpus
// statistics and returns the k best, resolved to asset ids and annotated
// with exact distances to q. The cut to k happens AFTER resolving doc ids
// to asset ids and re-sorting on (score desc, asset id asc): asset ids are
// the only tie-break total order that agrees across topologies (vids are
// assigned per store), so this ordering makes a sharded merge of per-shard
// top-k lists equal a single store's top-k. Asset ids are resolved in vid
// order, the order BM25Score returns. Documents whose vid no longer
// resolves are skipped.
func (ix *Index) LexicalSearch(txn btree.ReadTxn, column string, q []float32, tokens []string, gs fts.BM25Stats, k int) ([]LexicalDoc, error) {
	if k <= 0 {
		return nil, nil
	}
	f, err := ix.ftsIndex(column)
	if err != nil {
		return nil, err
	}
	scored, err := f.BM25Score(txn, tokens, gs, fts.DefaultBM25K1, fts.DefaultBM25B)
	if err != nil {
		return nil, err
	}
	var lk lookups
	lk.bind(ix, txn)
	out := make([]LexicalDoc, 0, len(scored))
	for _, sd := range scored {
		asset, err := lk.assetOf(sd.Doc)
		if errors.Is(err, reldb.ErrNotFound) {
			continue // posting without a live vector row
		}
		if err != nil {
			return nil, err
		}
		out = append(out, LexicalDoc{AssetID: asset, VectorID: sd.Doc, Score: sd.Score})
	}
	slices.SortFunc(out, func(a, b LexicalDoc) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.AssetID, b.AssetID))
	})
	if len(out) > k {
		out = out[:k]
	}
	if len(out) > 0 && len(q) != ix.cfg.Dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), ix.cfg.Dim)
	}
	x := make([]float32, ix.cfg.Dim)
	for _, i := range keyOrder(len(out), func(i int) int64 { return out[i].VectorID }) {
		if _, err := lk.readExactVector(out[i].VectorID, out[i].AssetID, x); err != nil {
			return nil, err
		}
		out[i].Distance = vec.Distance(ix.cfg.Metric, q, x)
	}
	return out, nil
}
