// Package fts implements the full-text MATCH support MicroNN gets from
// SQLite's FTS5 in the paper (§3.5): an inverted token index over a text
// attribute, document-frequency statistics for selectivity estimation, and
// conjunctive MATCH evaluation. The Big-ANN filtered-search benchmark
// (Figure 7) stores each vector's tag bag as a whitespace-separated string
// indexed through this package.
package fts

import (
	"errors"
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

// tokenLenKey is the reserved stats key holding the summed token length of
// every indexed document (Σ doclen), maintained alongside the per-doc
// length table so the BM25 average document length is O(1). Same
// no-collision argument as docCountKey.
const tokenLenKey = "#len"

// Tokenize lowercases s and splits it into maximal letter/digit runs. It is
// the shared tokenizer from internal/token, re-exported so existing callers
// keep one import.
func Tokenize(s string) []string { return token.Tokenize(s) }

// UniqueTokens returns the deduplicated, sorted token set of s.
func UniqueTokens(s string) []string { return token.Unique(s) }

// Match reports whether doc contains every token of query (the conjunctive
// MATCH semantics used by hybrid post-filtering).
func Match(doc, query string) bool { return token.Match(doc, query) }

// Index is an inverted token index over int64 document ids.
type Index struct {
	postings *reldb.Table // (token TEXT, doc INTEGER) -> ()
	stats    *reldb.Table // (token TEXT) -> (count INTEGER)
	// doclen records each indexed document's unique-token count. It doubles
	// as the doc-existence record: a document is "in the index" exactly when
	// it has a doclen row, which is what makes the #docs stat drift-free
	// under duplicate Add and spurious Remove.
	doclen *reldb.Table // (doc INTEGER) -> (len INTEGER)
}

func tableNames(name string) (postings, stats string) {
	return "__fts_" + name + "_postings", "__fts_" + name + "_stats"
}

func doclenTableName(name string) string {
	return "__fts_" + name + "_doclen"
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
	err = db.CreateTable(wt, &reldb.Schema{
		Name: doclenTableName(name),
		Key:  []reldb.Column{{Name: "doc", Type: reldb.TypeInt64}},
		Cols: []reldb.Column{{Name: "len", Type: reldb.TypeInt64}},
	})
	if err != nil {
		return nil, err
	}
	return Open(db, name)
}

// Open returns a handle to an existing index. It fails unless all three of
// the index's tables exist.
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
	doclen, err := db.Table(doclenTableName(name))
	if err != nil {
		return nil, err
	}
	return &Index{postings: postings, stats: stats, doclen: doclen}, nil
}

// Exists reports whether the named index exists in db.
func Exists(db *reldb.DB, name string) bool {
	pName, _ := tableNames(name)
	return db.HasTable(pName)
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

// Add indexes doc's text under id. Re-adding an id is cumulative (the doc's
// token set becomes the union) and drift-free: a posting already present
// bumps nothing, and #docs only moves when the doc had no doclen row yet.
func (ix *Index) Add(wt *storage.WriteTxn, id int64, text string) error {
	var added int64
	for _, tok := range UniqueTokens(text) {
		_, err := ix.postings.Get(wt, reldb.S(tok), reldb.I(id))
		if err == nil {
			continue // posting already present: stats already count it
		}
		if !errors.Is(err, reldb.ErrNotFound) {
			return err
		}
		if err := ix.postings.Put(wt, reldb.Row{reldb.S(tok), reldb.I(id)}); err != nil {
			return err
		}
		if err := ix.bumpStat(wt, tok, 1); err != nil {
			return err
		}
		added++
	}
	row, err := ix.doclen.Get(wt, reldb.I(id))
	switch {
	case errors.Is(err, reldb.ErrNotFound):
		if err := ix.doclen.Put(wt, reldb.Row{reldb.I(id), reldb.I(added)}); err != nil {
			return err
		}
		if err := ix.bumpStat(wt, docCountKey, 1); err != nil {
			return err
		}
	case err != nil:
		return err
	case added > 0:
		if err := ix.doclen.Put(wt, reldb.Row{reldb.I(id), reldb.I(row[1].Int + added)}); err != nil {
			return err
		}
	}
	if added > 0 {
		return ix.bumpStat(wt, tokenLenKey, added)
	}
	return nil
}

// Remove un-indexes the document (text must be the text supplied to Add).
// Removing tokens the doc never had, or an id that was never added, is a
// no-op on the statistics.
func (ix *Index) Remove(wt *storage.WriteTxn, id int64, text string) error {
	var removed int64
	for _, tok := range UniqueTokens(text) {
		err := ix.postings.Delete(wt, reldb.S(tok), reldb.I(id))
		if errors.Is(err, reldb.ErrNotFound) {
			continue
		}
		if err != nil {
			return err
		}
		if err := ix.bumpStat(wt, tok, -1); err != nil {
			return err
		}
		removed++
	}
	row, err := ix.doclen.Get(wt, reldb.I(id))
	if errors.Is(err, reldb.ErrNotFound) {
		return nil // never added (or already removed): nothing to account
	}
	if err != nil {
		return err
	}
	if removed > 0 {
		if err := ix.bumpStat(wt, tokenLenKey, -removed); err != nil {
			return err
		}
	}
	if rest := row[1].Int - removed; rest > 0 {
		return ix.doclen.Put(wt, reldb.Row{reldb.I(id), reldb.I(rest)})
	}
	if err := ix.doclen.Delete(wt, reldb.I(id)); err != nil {
		return err
	}
	return ix.bumpStat(wt, docCountKey, -1)
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

// ScanDocs streams the id of every indexed document (every document with a
// length row) in ascending order.
func (ix *Index) ScanDocs(txn btree.ReadTxn, fn func(id int64) error) error {
	return ix.doclen.ScanKeys(txn, nil, func(key reldb.Row) error { return fn(key[0].Int) })
}

// DocLen returns document id's unique-token count, 0 if unknown.
func (ix *Index) DocLen(txn btree.ReadTxn, id int64) (int64, error) {
	var s reldb.Seeker
	s.Reset(ix.doclen, txn)
	return docLen(&s, id)
}

// docLen is DocLen through a seeker over the length table.
func docLen(s *reldb.Seeker, id int64) (int64, error) {
	val, err := s.GetBorrowed(reldb.I(id))
	if errors.Is(err, reldb.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n, _, err := reldb.DecodeRowValue(val)
	return n.Int, err
}

// MatchScan streams, in ascending id order, the documents containing every
// token of query. It drives the scan from the rarest token's posting list
// and probes the others, so cost is proportional to the best selectivity.
// An empty query matches nothing (callers treat it as no constraint).
func (ix *Index) MatchScan(txn btree.ReadTxn, query string, fn func(id int64) error) error {
	tokens := UniqueTokens(query)
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
// tokens, a pre-tokenized query (see token.NewMatcher), answered by posting
// probes through postings, a seeker bound with BindPostings: cheaper than
// refetching and re-tokenizing the document text when post-filtering.
// Probing ids in ascending order keeps the seeker in the leaves it holds.
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

// MatchCount counts the documents matching query.
func (ix *Index) MatchCount(txn btree.ReadTxn, query string) (int64, error) {
	var n int64
	err := ix.MatchScan(txn, query, func(int64) error {
		n++
		return nil
	})
	return n, err
}
