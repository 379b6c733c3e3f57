package fts

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/token"
)

// driftOracle is a naive reference model of the index: the text of every
// live document. Every statistic the index maintains incrementally, and
// every document's length, is recomputable from it.
type driftOracle map[int64]string

func (o driftOracle) docFreq(tok string) int64 {
	var n int64
	for _, text := range o {
		if slices.Contains(token.Unique(text), tok) {
			n++
		}
	}
	return n
}

func (o driftOracle) totalLen() int64 {
	var n int64
	for _, text := range o {
		n += int64(len(token.Unique(text)))
	}
	return n
}

// checkAgainstOracle compares every statistic the index maintains against
// the oracle's recomputation: document count, summed unique-token length,
// per-token document frequency, and through Check the length each posting
// carries.
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
		docs, err := ix.Check(rt)
		if err != nil {
			t.Errorf("%s: Check: %v", label, err)
		}
		for id, text := range o {
			if want := int64(len(token.Unique(text))); docs[id] != want {
				t.Errorf("%s: doc %d has %d postings, want %d", label, id, docs[id], want)
			}
			delete(docs, id)
		}
		for id := range docs {
			t.Errorf("%s: doc %d has postings, want none", label, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatDriftRoundTripZero: an id re-added after its removal, and a
// removal the index cannot account for, leave no drift. Each Add/Remove
// round trip lands on exactly zero, and a Remove whose postings are missing
// (a removed doc, an id never added, a token the doc lacks) fails with an
// error wrapping reldb.ErrNotFound and, its transaction rolled back,
// changes nothing.
func TestStatDriftRoundTripZero(t *testing.T) {
	cases := []struct {
		name  string
		texts []string // added and removed in turn under one id
	}{
		{"identical-readd", []string{"cat yarn", "cat yarn"}},
		{"overlapping-readd", []string{"cat yarn", "yarn dog"}},
		{"triple-readd", []string{"cat", "cat", "cat"}},
		{"subset-readd", []string{"cat yarn dog", "yarn"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db, ix := testIndex(t)
			vocab := token.Unique(strings.Join(c.texts, " "))
			update := func(fn func(wt *storage.WriteTxn) error) error { return db.Store().Update(fn) }
			for i, text := range c.texts {
				if err := update(func(wt *storage.WriteTxn) error { return ix.Add(wt, 7, text) }); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, db, ix, driftOracle{7: text}, vocab, fmt.Sprintf("%s/add %d", c.name, i))
				if err := update(func(wt *storage.WriteTxn) error { return ix.Remove(wt, 7, text) }); err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, db, ix, driftOracle{}, vocab, fmt.Sprintf("%s/remove %d", c.name, i))
			}
			for _, r := range []struct {
				id   int64
				text string
			}{{7, c.texts[0]}, {99, "cat"}} {
				err := update(func(wt *storage.WriteTxn) error { return ix.Remove(wt, r.id, r.text) })
				if !errors.Is(err, reldb.ErrNotFound) {
					t.Errorf("Remove(%d, %q) of an unindexed doc = %v, want ErrNotFound", r.id, r.text, err)
				}
			}
			checkAgainstOracle(t, db, ix, driftOracle{}, vocab, c.name+"/re-remove")
			err := update(func(wt *storage.WriteTxn) error {
				if err := ix.Add(wt, 7, c.texts[0]); err != nil {
					return err
				}
				return ix.Remove(wt, 7, c.texts[0]+" absent")
			})
			if !errors.Is(err, reldb.ErrNotFound) {
				t.Errorf("Remove with a token the doc lacks = %v, want ErrNotFound", err)
			}
			checkAgainstOracle(t, db, ix, driftOracle{}, vocab, c.name+"/rolled back")
		})
	}
}

// TestStatDriftRandomized drives a long randomized sequence of Adds of
// fresh ids and Removes of live ones against the naive oracle and checks
// every statistic, both live and after closing and reopening the store (the
// statistics are persistent state, so drift would survive restarts).
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
		n := rng.Intn(6) // no tokens at all now and then
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return strings.Join(toks, " ")
	}

	// Each id is added once and removed with its text, as ivf does: every
	// Upsert takes a fresh vid.
	oracle := driftOracle{}
	var next int64
	for step := 0; step < 600; step++ {
		err := s.Update(func(wt *storage.WriteTxn) error {
			if len(oracle) == 0 || rng.Intn(5) < 3 {
				id, text := next, randText()
				next++
				oracle[id] = text
				return ix.Add(wt, id, text)
			}
			id := rng.Int63n(next)
			text, ok := oracle[id]
			if !ok {
				return nil // already removed
			}
			delete(oracle, id)
			return ix.Remove(wt, id, text)
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
	// An index without its stats table does not open.
	err = s2.Update(func(wt *storage.WriteTxn) error {
		pName, _ := tableNames("bare")
		return db2.CreateTable(wt, &reldb.Schema{
			Name: pName,
			Key:  []reldb.Column{{Name: "token", Type: reldb.TypeText}, {Name: "doc", Type: reldb.TypeInt64}},
			Cols: []reldb.Column{{Name: "len", Type: reldb.TypeInt64}},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db2, "bare"); err == nil {
		t.Fatal("Open succeeded without the stats table")
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
			if err := ix2.Remove(wt, id, oracle[id]); err != nil {
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
