package micronn

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

// TestCommitGroupIsolatesWriterMistakes gathers one group by hand on an
// ingester whose committer is not running: a well-formed upsert, an upsert
// whose int attribute carries a string, and a strict delete of an absent
// id. The mistyped value must be refused with ErrBadRequest before it can
// join the group, so commitGroup writes the good item; the absent delete
// fails only its own caller.
func TestCommitGroupIsolatesWriterMistakes(t *testing.T) {
	db, err := Open("", Options{
		Dim: 4, Backend: BackendMemory,
		Attributes: []AttributeDef{{Name: "n", Type: AttrInt}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	g := newIngester(db) // never started: the test drains it itself

	call := func(f func() error) <-chan error {
		c := make(chan error, 1)
		go func() { c <- f() }()
		return c
	}
	good := call(func() error {
		return g.upsert([]Item{{ID: "good", Vector: []float32{1, 0, 0, 0}, Attributes: map[string]any{"n": 1}}})
	})
	bad := call(func() error {
		return g.upsert([]Item{{ID: "bad", Vector: []float32{0, 1, 0, 0}, Attributes: map[string]any{"n": "str"}}})
	})
	absent := call(func() error { return g.delete([]string{"absent"}, true) })

	// Wait until every call is either queued or already answered.
	var badErr error
	badDone := false
	for deadline := time.Now().Add(10 * time.Second); ; {
		if !badDone {
			select {
			case badErr = <-bad:
				badDone = true
			default:
			}
		}
		g.mu.Lock()
		queued := len(g.pending)
		g.mu.Unlock()
		if queued == 3 || (badDone && queued == 2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("writers never queued: %d pending", queued)
		}
		time.Sleep(time.Millisecond)
	}
	g.mu.Lock()
	batch := g.pending
	g.pending = nil
	g.mu.Unlock()
	g.commitGroup(batch)

	if err := <-good; err != nil {
		t.Fatalf("well-formed upsert failed beside a mistyped one: %v", err)
	}
	if !badDone {
		badErr = <-bad
	}
	if !errors.Is(badErr, ErrBadRequest) {
		t.Fatalf("mistyped attribute: %v, want ErrBadRequest", badErr)
	}
	if err := <-absent; !errors.Is(err, ErrNotFound) {
		t.Fatalf("strict delete of an absent id: %v, want ErrNotFound", err)
	}
	item, err := db.Get("good")
	if err != nil {
		t.Fatalf("good item not written: %v", err)
	}
	if item.Attributes["n"] != int64(1) {
		t.Fatalf("good item attributes = %v", item.Attributes)
	}
	if _, err := db.Get("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("mistyped item visible: %v", err)
	}
}

// TestUpsertAttributeMistakesAreBadRequest pins the typed-error contract for
// the three attribute mistakes a caller can make, on a single store and on
// a 3-shard store.
func TestUpsertAttributeMistakesAreBadRequest(t *testing.T) {
	opts := Options{Dim: 4, Attributes: []AttributeDef{{Name: "n", Type: AttrInt}}}
	single, err := Open("", Options{Dim: opts.Dim, Attributes: opts.Attributes, Backend: BackendMemory})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded := opts
	sharded.Shards = 3
	sdb := openShardedTest(t, filepath.Join(t.TempDir(), "attrs.d"), sharded)

	v := []float32{1, 0, 0, 0}
	for _, st := range []struct {
		name string
		db   Store
	}{{"single", single}, {"3shard", sdb}} {
		for _, tc := range []struct {
			name  string
			attrs map[string]any
		}{
			{"undeclared", map[string]any{"missing": 1}},
			{"mistyped", map[string]any{"n": "str"}},
			{"unsupported", map[string]any{"n": struct{}{}}},
		} {
			err := st.db.Upsert(Item{ID: "x", Vector: v, Attributes: tc.attrs})
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("%s %s: %v, want ErrBadRequest", st.name, tc.name, err)
			}
		}
		// A null value is valid for any declared column.
		if err := st.db.Upsert(Item{ID: "y", Vector: v, Attributes: map[string]any{"n": nil}}); err != nil {
			t.Errorf("%s null attribute: %v", st.name, err)
		}
	}
}
