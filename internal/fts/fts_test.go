package fts

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"micronn/internal/btree"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/token"
)

func testIndex(t *testing.T) (*reldb.DB, *Index) {
	t.Helper()
	s, err := storage.Open(filepath.Join(t.TempDir(), "t.db"), storage.Options{
		Sync: storage.SyncOff, CheckpointFrames: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
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
	return db, ix
}

// matchCount counts the documents MatchScan finds for query.
func matchCount(rt btree.ReadTxn, ix *Index, query string) (int64, error) {
	var n int64
	err := ix.MatchScan(rt, token.Unique(query), func(int64) error {
		n++
		return nil
	})
	return n, err
}

// TestTokenize: Add indexes exactly the tokens of the shared tokenizer, one
// posting each, lowercased, split at every rune that is not a letter or
// digit.
func TestTokenize(t *testing.T) {
	cases := map[string][]string{
		"Hello World":        {"hello", "world"},
		"black-cat_playing!": {"black", "cat", "playing"},
		"  spaces  ":         {"spaces"},
		"":                   nil,
		"123 abc123":         {"123", "abc123"},
		"ÜNïcode Wörds":      {"ünïcode", "wörds"},
	}
	for in, want := range cases {
		db, ix := testIndex(t)
		err := db.Store().Update(func(wt *storage.WriteTxn) error { return ix.Add(wt, 1, in) })
		if err != nil {
			t.Fatal(err)
		}
		err = db.Store().View(func(rt *storage.ReadTxn) error {
			docs, err := ix.Check(rt)
			if err != nil {
				return err
			}
			if docs[1] != int64(len(want)) {
				t.Errorf("Add(%q): %d postings, want %v", in, docs[1], want)
			}
			for _, tok := range want {
				if df, err := ix.DocFreq(rt, tok); err != nil || df != 1 {
					t.Errorf("Add(%q): DocFreq(%q) = %d, %v, want 1", in, tok, df, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestMatch: ContainsAllTokens answers MATCH by posting probes, with the
// conjunctive, case-insensitive semantics, and a query without tokens
// constrains nothing.
func TestMatch(t *testing.T) {
	cases := []struct {
		doc, query string
		want       bool
	}{
		{"black cat playing yarn", "cat", true},
		{"black cat playing yarn", "cat yarn", true},
		{"black cat playing yarn", "cat dog", false},
		{"black cat", "", true},
		{"", "cat", false},
		{"Cat", "CAT", true}, // case-insensitive
	}
	db, ix := testIndex(t)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		for i, c := range cases {
			if err := ix.Add(wt, int64(i), c.doc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		var s reldb.Seeker
		ix.BindPostings(&s, rt)
		for i, c := range cases {
			got, err := ix.ContainsAllTokens(&s, int64(i), token.Unique(c.query))
			if err != nil {
				return err
			}
			if got != c.want {
				t.Errorf("MATCH %q on %q = %v, want %v", c.query, c.doc, got, c.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAddAndMatchScan(t *testing.T) {
	db, ix := testIndex(t)
	docs := map[int64]string{
		1: "cat yarn indoor",
		2: "cat outdoor",
		3: "dog yarn",
		4: "cat yarn outdoor",
	}
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		for id, text := range docs {
			if err := ix.Add(wt, id, text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	queryCases := []struct {
		query string
		want  []int64
	}{
		{"cat", []int64{1, 2, 4}},
		{"cat yarn", []int64{1, 4}},
		{"yarn", []int64{1, 3, 4}},
		{"dog cat", nil},
		{"absenttoken", nil},
		{"cat yarn outdoor", []int64{4}},
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		for _, c := range queryCases {
			var got []int64
			err := ix.MatchScan(rt, token.Unique(c.query), func(id int64) error {
				got = append(got, id)
				return nil
			})
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("MatchScan(%q) = %v, want %v", c.query, got, c.want)
			}
		}
		total, err := ix.TotalDocs(rt)
		if err != nil {
			return err
		}
		if total != 4 {
			t.Errorf("TotalDocs = %d, want 4", total)
		}
		df, err := ix.DocFreq(rt, "cat")
		if err != nil {
			return err
		}
		if df != 3 {
			t.Errorf("DocFreq(cat) = %d, want 3", df)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRemove(t *testing.T) {
	db, ix := testIndex(t)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := ix.Add(wt, 1, "cat yarn"); err != nil {
			return err
		}
		if err := ix.Add(wt, 2, "cat"); err != nil {
			return err
		}
		return ix.Remove(wt, 1, "cat yarn")
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		df, err := ix.DocFreq(rt, "cat")
		if err != nil {
			return err
		}
		if df != 1 {
			t.Errorf("DocFreq(cat) = %d, want 1", df)
		}
		df, err = ix.DocFreq(rt, "yarn")
		if err != nil {
			return err
		}
		if df != 0 {
			t.Errorf("DocFreq(yarn) = %d, want 0", df)
		}
		n, err := matchCount(rt, ix, "cat")
		if err != nil {
			return err
		}
		if n != 1 {
			t.Errorf("MatchCount(cat) = %d, want 1", n)
		}
		total, err := ix.TotalDocs(rt)
		if err != nil {
			return err
		}
		if total != 1 {
			t.Errorf("TotalDocs = %d, want 1", total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMatchScanUsesRarestToken(t *testing.T) {
	db, ix := testIndex(t)
	// "common" appears in 500 docs, "rare" in 3; the scan should still
	// return exactly the intersection.
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		for i := int64(0); i < 500; i++ {
			text := "common"
			if i%200 == 0 {
				text = "common rare"
			}
			if err := ix.Add(wt, i, text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		var got []int64
		err := ix.MatchScan(rt, token.Unique("common rare"), func(id int64) error {
			got = append(got, id)
			return nil
		})
		if err != nil {
			return err
		}
		want := []int64{0, 200, 400}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("intersection = %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpenExisting(t *testing.T) {
	db, ix := testIndex(t)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		return ix.Add(wt, 42, "persisted token")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(db, "other"); err == nil {
		t.Error("Open(other) found an index never created")
	}
	ix2, err := Open(db, "tags")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		n, err := matchCount(rt, ix2, "persisted")
		if err != nil {
			return err
		}
		if n != 1 {
			t.Errorf("MatchCount via reopened handle = %d", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchScan(b *testing.B) {
	s, err := storage.Open(filepath.Join(b.TempDir(), "t.db"), storage.Options{
		Sync: storage.SyncOff, CheckpointFrames: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	db, err := reldb.Open(s)
	if err != nil {
		b.Fatal(err)
	}
	var ix *Index
	err = s.Update(func(wt *storage.WriteTxn) error {
		ix, err = Create(db, wt, "bench")
		if err != nil {
			return err
		}
		for i := int64(0); i < 10000; i++ {
			text := fmt.Sprintf("tag%d tag%d common", i%97, i%31)
			if err := ix.Add(wt, i, text); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	rt, err := s.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := matchCount(rt, ix, "tag13 common"); err != nil {
			b.Fatal(err)
		}
	}
}
