package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"micronn/internal/storage"
)

// countingTxn counts the pages a lookup reads.
type countingTxn struct {
	ReadTxn
	reads int
}

func (c *countingTxn) Get(pageNo uint32) ([]byte, error) {
	c.reads++
	return c.ReadTxn.Get(pageNo)
}

// treeDepth is the number of levels from the root to the leftmost leaf.
func treeDepth(rt ReadTxn, tree *Tree) (int, error) {
	pageNo, depth := tree.root, 1
	for {
		buf, err := rt.Get(pageNo)
		if err != nil {
			return 0, err
		}
		p := page{buf: buf}
		if p.typ() == pageTypeLeaf {
			return depth, nil
		}
		pageNo = p.right()
		if p.nCells() > 0 {
			if _, pageNo, err = p.interiorCell(0); err != nil {
				return 0, err
			}
		}
		depth++
	}
}

// seekKey is key i of the seeker tests: long, so interior pages hold few
// separators and a few thousand keys make a tree of three levels or more.
func seekKey(i int) []byte {
	return []byte(fmt.Sprintf("%08d%s", i, strings.Repeat("k", 90)))
}

// TestSeekerMatchesGet compares Seeker.Get with Tree.Get on trees at least
// three levels deep, after splits and after deletes that unlink whole
// leaves: present keys, keys missing between cells and past both ends, and
// overflow values, looked up in ascending, descending, random and repeated
// order through one seeker per pass. Ascending lookups through the seeker
// must read far fewer pages than one descent per key.
func TestSeekerMatchesGet(t *testing.T) {
	s := testStore(t)
	tree := newTree(t, s)
	rng := rand.New(rand.NewSource(7))
	const n = 3000 // even keys 0, 2, ..., 2n-2 are stored
	order := rng.Perm(n)
	err := s.Update(func(wt *storage.WriteTxn) error {
		for _, i := range order {
			val := bytes.Repeat([]byte{byte(i)}, 20+rng.Intn(100))
			if i%97 == 0 {
				val = bytes.Repeat([]byte{byte(i)}, 3*int(s.PageSize())) // overflow chain
			}
			if err := tree.Put(wt, seekKey(2*i), val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	probes := [][]byte{[]byte("/"), []byte("~"), seekKey(-1)[:3]}
	for i := 0; i < 2*n+2; i++ {
		probes = append(probes, seekKey(i)) // odd keys fall between cells
	}
	check := func(label string) {
		t.Helper()
		err := s.View(func(rt *storage.ReadTxn) error {
			depth, err := treeDepth(rt, tree)
			if err != nil {
				return err
			}
			if depth < 3 {
				t.Fatalf("%s: tree depth %d, want at least 3", label, depth)
			}
			asc := slices.Clone(probes)
			slices.SortFunc(asc, bytes.Compare)
			desc := slices.Clone(asc)
			slices.Reverse(desc)
			random := slices.Clone(probes)
			rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
			var repeated [][]byte
			for _, k := range random[:200] {
				repeated = append(repeated, k, k, k)
			}
			var sk Seeker
			for _, pass := range []struct {
				name string
				keys [][]byte
			}{{"ascending", asc}, {"descending", desc}, {"random", random}, {"repeated", repeated}} {
				sk.Reset(tree, rt)
				for _, k := range pass.keys {
					want, wantErr := tree.Get(rt, k)
					got, gotErr := sk.Get(k)
					if !errors.Is(gotErr, wantErr) && (gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error()) {
						t.Fatalf("%s %s: Get(%.12q) error %v, want %v", label, pass.name, k, gotErr, wantErr)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %s: Get(%.12q) = %d bytes, want %d", label, pass.name, k, len(got), len(want))
					}
				}
			}

			// Ascending lookups read far fewer pages through a seeker.
			perGet := &countingTxn{ReadTxn: rt}
			for _, k := range asc {
				tree.Get(perGet, k)
			}
			seeking := &countingTxn{ReadTxn: rt}
			sk.Reset(tree, seeking)
			for _, k := range asc {
				sk.Get(k)
			}
			t.Logf("%s: depth %d, seeker %d reads, per-get %d", label, depth, seeking.reads, perGet.reads)
			if seeking.reads*4 > perGet.reads {
				t.Errorf("%s: ascending seeker read %d pages, one descent per key %d", label, seeking.reads, perGet.reads)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	check("after splits")

	// Delete a contiguous run (whole leaves unlink) and scattered keys.
	err = s.Update(func(wt *storage.WriteTxn) error {
		for i := n / 4; i < n/2; i++ {
			if err := tree.Delete(wt, seekKey(2*i)); err != nil {
				return err
			}
		}
		for i := 0; i < n; i += 7 {
			if err := tree.Delete(wt, seekKey(2*i)); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	check("after deletes")
}

// TestSeekerGetAllocatesNothing: an inline lookup allocates nothing,
// through a kept seeker or through Tree.Get, whose path lives on the stack.
func TestSeekerGetAllocatesNothing(t *testing.T) {
	s := testStore(t)
	tree := newTree(t, s)
	err := s.Update(func(wt *storage.WriteTxn) error {
		for i := 0; i < 2000; i++ {
			if err := tree.Put(wt, seekKey(i), []byte("value")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.View(func(rt *storage.ReadTxn) error {
		keys := [][]byte{seekKey(10), seekKey(1500), seekKey(11), seekKey(4000)}
		var sk Seeker
		sk.Reset(tree, rt)
		i := 0
		if a := testing.AllocsPerRun(200, func() {
			sk.Get(keys[i%len(keys)])
			i++
		}); a != 0 {
			t.Errorf("Seeker.Get: %.1f allocations per lookup, want 0", a)
		}
		if a := testing.AllocsPerRun(200, func() {
			tree.Get(rt, keys[i%len(keys)])
			i++
		}); a != 0 {
			t.Errorf("Tree.Get: %.1f allocations per lookup, want 0", a)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
