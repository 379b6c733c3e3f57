package fts

import (
	"cmp"
	"math"
	"slices"

	"micronn/internal/btree"
	"micronn/internal/reldb"
)

// BM25 parameter defaults (the standard Robertson/Walker settings).
const (
	DefaultBM25K1 = 1.2
	DefaultBM25B  = 0.75
)

// BM25Stats carries the corpus-level statistics BM25 scoring needs. They
// are separated from scoring so a sharded router can sum the per-shard
// stats into global figures and hand the same global stats to every shard
// — making sharded and single-store rankings identical.
type BM25Stats struct {
	// DocFreq maps each query token to its document frequency.
	DocFreq map[string]int64
	// TotalDocs is the number of indexed documents (N).
	TotalDocs int64
	// TotalLen is the summed unique-token length of all documents.
	TotalLen int64
}

// Merge adds other's counts into s (token-wise df sum plus N and length
// totals), building the global view across shards.
func (s *BM25Stats) Merge(other BM25Stats) {
	if s.DocFreq == nil {
		s.DocFreq = make(map[string]int64, len(other.DocFreq))
	}
	for tok, df := range other.DocFreq {
		s.DocFreq[tok] += df
	}
	s.TotalDocs += other.TotalDocs
	s.TotalLen += other.TotalLen
}

// CollectBM25Stats gathers this index's df/N/length statistics for the
// given (already tokenized, unique) query tokens.
func (ix *Index) CollectBM25Stats(txn btree.ReadTxn, tokens []string) (BM25Stats, error) {
	st := BM25Stats{DocFreq: make(map[string]int64, len(tokens))}
	for _, tok := range tokens {
		df, err := ix.DocFreq(txn, tok)
		if err != nil {
			return BM25Stats{}, err
		}
		st.DocFreq[tok] = df
	}
	var err error
	if st.TotalDocs, err = ix.TotalDocs(txn); err != nil {
		return BM25Stats{}, err
	}
	if st.TotalLen, err = ix.TotalTokens(txn); err != nil {
		return BM25Stats{}, err
	}
	return st, nil
}

// ScoredDoc is one BM25-ranked document.
type ScoredDoc struct {
	Doc   int64
	Score float64
}

// BM25Score scores every document containing at least one query token
// (disjunctive semantics — the lexical leg of hybrid search) and returns
// all of them in ascending doc id order. The caller ranks and cuts to its
// top-k AFTER re-keying ties on a cross-store total order (asset ids) —
// doc ids are store-local, so cutting here could drop different tied docs
// on different topologies. Postings carry only unique tokens, so term
// frequency is binary and the per-term contribution reduces to
// IDF(t)·(k1+1)/(1 + k1·(1−b+b·len/avglen)).
//
// gs supplies the df/N/avglen figures, which may span more data than this
// index (global stats on a sharded store). Tokens must be the sorted unique
// token set of the query (see token.Unique); iterating them in that fixed
// order keeps float accumulation — and therefore ranking — deterministic.
// Each token's postings ascend by doc id, so document lengths are read
// through one seeker over the length table.
func (ix *Index) BM25Score(txn btree.ReadTxn, tokens []string, gs BM25Stats, k1, b float64) ([]ScoredDoc, error) {
	if len(tokens) == 0 || gs.TotalDocs <= 0 {
		return nil, nil
	}
	if k1 <= 0 {
		k1 = DefaultBM25K1
	}
	if b < 0 || b > 1 {
		b = DefaultBM25B
	}
	avgLen := float64(gs.TotalLen) / float64(gs.TotalDocs)

	var lens reldb.Seeker
	lens.Reset(ix.doclen, txn)
	scores := make(map[int64]float64)
	for _, tok := range tokens {
		df := gs.DocFreq[tok]
		if df <= 0 {
			continue // token absent from the corpus: contributes nothing
		}
		n := float64(gs.TotalDocs)
		idf := math.Log(1 + (n-float64(df)+0.5)/(float64(df)+0.5))
		err := ix.postings.ScanKeys(txn, []reldb.Value{reldb.S(tok)}, func(key reldb.Row) error {
			id := key[1].Int
			norm := 1.0
			if avgLen > 0 {
				dl, err := docLen(&lens, id)
				if err != nil {
					return err
				}
				if dl > 0 {
					norm = 1 - b + b*float64(dl)/avgLen
				}
			}
			scores[id] += idf * (k1 + 1) / (1 + k1*norm)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(scores) == 0 {
		return nil, nil
	}
	out := make([]ScoredDoc, 0, len(scores))
	for id, s := range scores {
		out = append(out, ScoredDoc{Doc: id, Score: s})
	}
	slices.SortFunc(out, func(x, y ScoredDoc) int { return cmp.Compare(x.Doc, y.Doc) })
	return out, nil
}
