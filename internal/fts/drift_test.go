package fts

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"micronn/internal/reldb"
	"micronn/internal/storage"
)

// driftOracle is a naive reference model of the index's statistics: the
// exact token set of every live document. Every statistic the index
// maintains incrementally is recomputable from it.
type driftOracle map[int64]map[string]bool

func (o driftOracle) add(id int64, text string) {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return
	}
	set := o[id]
	if set == nil {
		set = make(map[string]bool)
		o[id] = set
	}
	for _, t := range toks {
		set[t] = true
	}
}

func (o driftOracle) remove(id int64, text string) {
	set := o[id]
	if set == nil {
		return
	}
	for _, t := range Tokenize(text) {
		delete(set, t)
	}
	if len(set) == 0 {
		delete(o, id)
	}
}

func (o driftOracle) docFreq(tok string) int64 {
	var n int64
	for _, set := range o {
		if set[tok] {
			n++
		}
	}
	return n
}

func (o driftOracle) totalLen() int64 {
	var n int64
	for _, set := range o {
		n += int64(len(set))
	}
	return n
}

// checkAgainstOracle compares every statistic the index maintains against
// the oracle's recomputation: document count, summed unique-token length,
// per-token document frequency and per-document length.
func checkAgainstOracle(t *testing.T, db *reldb.DB, ix *Index, o driftOracle, vocab []string, label string) {
	t.Helper()
	err := db.Store().View(func(rt *storage.ReadTxn) error {
		n, err := ix.TotalDocs(rt)
		if err != nil {
			return err
		}
		if want := int64(len(o)); n != want {
			t.Errorf("%s: TotalDocs = %d, want %d", label, n, want)
		}
		tl, err := ix.TotalTokens(rt)
		if err != nil {
			return err
		}
		if want := o.totalLen(); tl != want {
			t.Errorf("%s: TotalTokens = %d, want %d", label, tl, want)
		}
		for _, tok := range vocab {
			df, err := ix.DocFreq(rt, tok)
			if err != nil {
				return err
			}
			if want := o.docFreq(tok); df != want {
				t.Errorf("%s: DocFreq(%q) = %d, want %d", label, tok, df, want)
			}
		}
		for id, set := range o {
			dl, err := ix.DocLen(rt, id)
			if err != nil {
				return err
			}
			if want := int64(len(set)); dl != want {
				t.Errorf("%s: DocLen(%d) = %d, want %d", label, id, dl, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatDriftRoundTripZero is the regression test for the historical
// drift bug: Add bumped #docs and every token count unconditionally, so
// re-adding an already-indexed document (the Upsert path does exactly this)
// inflated the statistics and a later Remove left them permanently skewed.
// An Add/re-Add/Remove round-trip must land on exactly zero.
func TestStatDriftRoundTripZero(t *testing.T) {
	cases := []struct {
		name       string
		adds       []string
		removeText string
	}{
		{"identical-readd", []string{"cat yarn", "cat yarn"}, "cat yarn"},
		{"overlapping-readd", []string{"cat yarn", "yarn dog"}, "cat yarn dog"},
		{"triple-readd", []string{"cat", "cat", "cat"}, "cat"},
		{"subset-readd", []string{"cat yarn dog", "yarn"}, "dog cat yarn"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, ix := testIndex(t)
			err := db.Store().Update(func(wt *storage.WriteTxn) error {
				for _, text := range c.adds {
					if err := ix.Add(wt, 7, text); err != nil {
						return err
					}
				}
				return ix.Remove(wt, 7, c.removeText)
			})
			if err != nil {
				t.Fatal(err)
			}
			vocab := UniqueTokens(strings.Join(c.adds, " "))
			checkAgainstOracle(t, db, ix, driftOracle{}, vocab, c.name)
			// Removing an already-removed (or never-added) doc must be a
			// no-op, not an underflow.
			err = db.Store().Update(func(wt *storage.WriteTxn) error {
				if err := ix.Remove(wt, 7, c.removeText); err != nil {
					return err
				}
				return ix.Remove(wt, 99, "cat")
			})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, db, ix, driftOracle{}, vocab, c.name+"/re-remove")
		})
	}
}

// TestStatDriftRandomized drives a long randomized Add/re-Add/partial-Remove/
// full-Remove sequence against the naive oracle and checks every statistic,
// both live and after closing and reopening the store (the statistics are
// persistent state, so drift would survive restarts).
func TestStatDriftRandomized(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "drift.db")
	s, err := storage.Open(path, storage.Options{Backend: storage.BackendFile, Sync: storage.SyncOff, CheckpointFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := reldb.Open(s)
	if err != nil {
		t.Fatal(err)
	}
	var ix *Index
	err = s.Update(func(wt *storage.WriteTxn) error {
		ix, err = Create(db, wt, "tags")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	vocab := make([]string, 20)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%02d", i)
	}
	randText := func() string {
		n := 1 + rng.Intn(5)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(toks, " ")
	}
	fullText := func(o driftOracle, id int64) string {
		set := o[id]
		toks := make([]string, 0, len(set))
		for tok := range set {
			toks = append(toks, tok)
		}
		sort.Strings(toks)
		return strings.Join(toks, " ")
	}

	oracle := driftOracle{}
	const docs = 30
	for step := 0; step < 600; step++ {
		id := int64(rng.Intn(docs))
		err := s.Update(func(wt *storage.WriteTxn) error {
			switch op := rng.Intn(4); op {
			case 0, 1: // add (often a re-add over existing tokens)
				text := randText()
				oracle.add(id, text)
				return ix.Add(wt, id, text)
			case 2: // full remove, mirroring the Upsert/Delete cleanup path
				text := fullText(oracle, id)
				oracle.remove(id, text)
				return ix.Remove(wt, id, text)
			default: // partial remove of arbitrary tokens
				text := randText()
				oracle.remove(id, text)
				return ix.Remove(wt, id, text)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if step%97 == 0 {
			checkAgainstOracle(t, db, ix, oracle, vocab, fmt.Sprintf("step %d", step))
		}
	}
	checkAgainstOracle(t, db, ix, oracle, vocab, "final")

	// Reopen from disk: the statistics must round-trip through persistence.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := storage.Open(path, storage.Options{Backend: storage.BackendFile, Sync: storage.SyncOff, CheckpointFrames: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	db2, err := reldb.Open(s2)
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Open(db2, "tags")
	if err != nil {
		t.Fatal(err)
	}
	if !ix2.HasDocLens() {
		t.Fatal("reopened index lost its doc-length table")
	}
	checkAgainstOracle(t, db2, ix2, oracle, vocab, "reopened")

	// Drain every remaining document: the index must land on exactly zero.
	ids := make([]int64, 0, len(oracle))
	for id := range oracle {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	err = s2.Update(func(wt *storage.WriteTxn) error {
		for _, id := range ids {
			text := fullText(oracle, id)
			if err := ix2.Remove(wt, id, text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, db2, ix2, driftOracle{}, vocab, "drained")
}
