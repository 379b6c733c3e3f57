// Package fts implements the full-text MATCH support MicroNN gets from
// SQLite's FTS5 in the paper (§3.5): an inverted token index over a text
// attribute, document-frequency statistics for selectivity estimation and
// BM25, and conjunctive MATCH evaluation by posting probes. The Big-ANN
// filtered-search benchmark (Figure 7) stores each vector's tag bag as a
// whitespace-separated string indexed through this package.
//
// An index is two tables. postings maps (token, doc) to the document's
// unique-token count, so BM25 reads every length from the posting it scans.
// stats maps each token to its document frequency, plus the reserved keys
// #docs (the document count) and #len (the summed document lengths).
//
// The contract: add a document id once, and remove it with the text it was
// added with. Add trusts it and reads no posting; Remove fails with an
// error wrapping reldb.ErrNotFound when a posting it expects is missing.
package fts

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"micronn/internal/btree"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/token"
)

// docCountKey is the reserved stats key holding the total document count.
// Tokens are lowercase alphanumeric runs, so "#docs" can never collide.
const docCountKey = "#docs"

// tokenLenKey is the reserved stats key holding the summed unique-token
// length of every indexed document, so the BM25 average document length is
// O(1). Same no-collision argument as docCountKey.
const tokenLenKey = "#len"

// Index is an inverted token index over int64 document ids.
type Index struct {
	postings *reldb.Table // (token TEXT, doc INTEGER) -> (len INTEGER)
	stats    *reldb.Table // (token TEXT) -> (count INTEGER)
}

func tableNames(name string) (postings, stats string) {
	return "__fts_" + name + "_postings", "__fts_" + name + "_stats"
}

// Create creates the index's tables inside wt.
func Create(db *reldb.DB, wt *storage.WriteTxn, name string) (*Index, error) {
	pName, sName := tableNames(name)
	err := db.CreateTable(wt, &reldb.Schema{
		Name: pName,
		Key: []reldb.Column{
			{Name: "token", Type: reldb.TypeText},
			{Name: "doc", Type: reldb.TypeInt64},
		},
		Cols: []reldb.Column{{Name: "len", Type: reldb.TypeInt64}},
	})
	if err != nil {
		return nil, err
	}
	err = db.CreateTable(wt, &reldb.Schema{
		Name: sName,
		Key:  []reldb.Column{{Name: "token", Type: reldb.TypeText}},
		Cols: []reldb.Column{{Name: "count", Type: reldb.TypeInt64}},
	})
	if err != nil {
		return nil, err
	}
	return Open(db, name)
}

// Open returns a handle to an existing index. It fails unless both of the
// index's tables exist.
func Open(db *reldb.DB, name string) (*Index, error) {
	pName, sName := tableNames(name)
	postings, err := db.Table(pName)
	if err != nil {
		return nil, err
	}
	stats, err := db.Table(sName)
	if err != nil {
		return nil, err
	}
	return &Index{postings: postings, stats: stats}, nil
}

func (ix *Index) bumpStat(wt *storage.WriteTxn, token string, delta int64) error {
	row, err := ix.stats.Get(wt, reldb.S(token))
	var cur int64
	switch {
	case err == nil:
		cur = row[1].Int
	case errors.Is(err, reldb.ErrNotFound):
	default:
		return err
	}
	cur += delta
	if cur <= 0 {
		err := ix.stats.Delete(wt, reldb.S(token))
		if errors.Is(err, reldb.ErrNotFound) {
			return nil
		}
		return err
	}
	return ix.stats.Put(wt, reldb.Row{reldb.S(token), reldb.I(cur)})
}

// Add indexes text under document id, which must not be indexed already:
// one posting per unique token, each carrying the unique-token count, which
// #len gains, and one more document in #docs.
func (ix *Index) Add(wt *storage.WriteTxn, id int64, text string) error {
	return ix.update(wt, id, text, 1)
}

// Remove un-indexes document id, whose text must be the text it was added
// with. A posting that text implies but the index lacks fails the removal
// with an error wrapping reldb.ErrNotFound.
func (ix *Index) Remove(wt *storage.WriteTxn, id int64, text string) error {
	return ix.update(wt, id, text, -1)
}

// update adds (sign 1) or removes (sign -1) document id's postings and its
// share of the statistics.
func (ix *Index) update(wt *storage.WriteTxn, id int64, text string, sign int64) error {
	toks := token.Unique(text)
	n := int64(len(toks))
	for _, tok := range toks {
		if sign > 0 {
			if err := ix.postings.Put(wt, reldb.Row{reldb.S(tok), reldb.I(id), reldb.I(n)}); err != nil {
				return err
			}
		} else if err := ix.postings.Delete(wt, reldb.S(tok), reldb.I(id)); err != nil {
			return fmt.Errorf("fts: remove doc %d: posting %q: %w", id, tok, err)
		}
		if err := ix.bumpStat(wt, tok, sign); err != nil {
			return err
		}
	}
	if err := ix.bumpStat(wt, docCountKey, sign); err != nil {
		return err
	}
	if n > 0 {
		return ix.bumpStat(wt, tokenLenKey, sign*n)
	}
	return nil
}

// DocFreq returns the number of documents containing token.
func (ix *Index) DocFreq(txn btree.ReadTxn, token string) (int64, error) {
	row, err := ix.stats.Get(txn, reldb.S(strings.ToLower(token)))
	if errors.Is(err, reldb.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return row[1].Int, nil
}

// TotalDocs returns the number of indexed documents.
func (ix *Index) TotalDocs(txn btree.ReadTxn) (int64, error) {
	return ix.DocFreq(txn, docCountKey)
}

// TotalTokens returns the summed unique-token length of every indexed
// document.
func (ix *Index) TotalTokens(txn btree.ReadTxn) (int64, error) {
	return ix.DocFreq(txn, tokenLenKey)
}

// MatchScan streams, in ascending id order, the documents containing every
// one of tokens, a query's unique tokens (see token.Unique). It drives the
// scan from the rarest token's posting list and probes the others, so cost
// is proportional to the best selectivity. No tokens match nothing, so a
// planner must not drive from them: a MATCH without tokens constrains
// nothing.
func (ix *Index) MatchScan(txn btree.ReadTxn, tokens []string, fn func(id int64) error) error {
	if len(tokens) == 0 {
		return nil
	}
	// Order tokens by ascending document frequency.
	type tokDF struct {
		tok string
		df  int64
	}
	tds := make([]tokDF, len(tokens))
	for i, tok := range tokens {
		df, err := ix.DocFreq(txn, tok)
		if err != nil {
			return err
		}
		if df == 0 {
			return nil // conjunction with an absent token is empty
		}
		tds[i] = tokDF{tok, df}
	}
	sort.Slice(tds, func(i, j int) bool { return tds[i].df < tds[j].df })

	// Ids ascend along the rare token's postings, so each other token is
	// probed through its own seeker.
	rare := tds[0].tok
	probes := make([]reldb.Seeker, len(tds)-1)
	for i := range probes {
		probes[i].Reset(ix.postings, txn)
	}
	return ix.postings.ScanKeys(txn, []reldb.Value{reldb.S(rare)}, func(key reldb.Row) error {
		id := key[1].Int
		for i := range probes {
			_, err := probes[i].GetBorrowed(reldb.S(tds[i+1].tok), reldb.I(id))
			if errors.Is(err, reldb.ErrNotFound) {
				return nil // this doc lacks the token; keep scanning
			}
			if err != nil {
				return err
			}
		}
		return fn(id)
	})
}

// BindPostings binds s to ix's postings table at txn, for
// ContainsAllTokens.
func (ix *Index) BindPostings(s *reldb.Seeker, txn btree.ReadTxn) { s.Reset(ix.postings, txn) }

// ContainsAllTokens reports whether document id carries every one of
// tokens, a query's unique tokens (see token.Unique), answered by posting
// probes through postings, a seeker bound with BindPostings. No tokens
// constrain nothing. Probing ids in ascending order keeps the seeker in the
// leaves it holds.
func (ix *Index) ContainsAllTokens(postings *reldb.Seeker, id int64, tokens []string) (bool, error) {
	for _, tok := range tokens {
		_, err := postings.GetBorrowed(reldb.S(tok), reldb.I(id))
		if errors.Is(err, reldb.ErrNotFound) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// Check verifies the statistics against the postings: each posting's
// length is its document's posting count, each token's document frequency
// its posting count, and #len the number of postings. It returns each
// document's posting count; #docs, which also counts documents without
// tokens, is the caller's to check.
func (ix *Index) Check(txn btree.ReadTxn) (map[int64]int64, error) {
	docs := make(map[int64]int64)
	lens := make(map[int64]int64)
	dfs := make(map[string]int64)
	var total int64
	err := ix.postings.Scan(txn, nil, func(row reldb.Row) error {
		tok, id, n := row[0].Str, row[1].Int, row[2].Int
		if l, ok := lens[id]; ok && l != n {
			return fmt.Errorf("fts: invariant: doc %d postings carry lengths %d and %d", id, l, n)
		}
		lens[id] = n
		docs[id]++
		dfs[tok]++
		total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, n := range docs {
		if lens[id] != n {
			return nil, fmt.Errorf("fts: invariant: doc %d postings carry length %d, it has %d postings", id, lens[id], n)
		}
	}
	err = ix.stats.Scan(txn, nil, func(row reldb.Row) error {
		tok, n := row[0].Str, row[1].Int
		if tok == docCountKey || tok == tokenLenKey {
			return nil
		}
		if n != dfs[tok] {
			return fmt.Errorf("fts: invariant: token %q document frequency %d, %d postings", tok, n, dfs[tok])
		}
		delete(dfs, tok)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for tok, n := range dfs {
		return nil, fmt.Errorf("fts: invariant: token %q has %d postings and no document frequency", tok, n)
	}
	n, err := ix.TotalTokens(txn)
	if err != nil {
		return nil, err
	}
	if n != total {
		return nil, fmt.Errorf("fts: invariant: #len %d, %d postings", n, total)
	}
	return docs, nil
}
