package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"micronn/internal/storage"
)

// leafChain walks the leaf level left to right through the sibling
// pointers and returns each leaf's page number. It checks that every prev
// pointer names the leaf before it, that the chain visits exactly the
// leaves the interior levels route to (LeafPages), in the same order, and
// that keys ascend strictly across the whole chain.
func leafChain(rt ReadTxn, tree *Tree) ([]uint32, error) {
	var routed []uint32
	if err := tree.LeafPages(rt, nil, nil, func(pg uint32) { routed = append(routed, pg) }); err != nil {
		return nil, err
	}
	if len(routed) == 0 {
		return nil, fmt.Errorf("no leaves")
	}
	var chain []uint32
	var prev uint32
	var lastKey []byte
	for pg := routed[0]; pg != 0; {
		buf, err := rt.Get(pg)
		if err != nil {
			return nil, err
		}
		p := page{buf: buf}
		if p.typ() != pageTypeLeaf {
			return nil, fmt.Errorf("page %d in the leaf chain has type %d", pg, p.typ())
		}
		if p.prev() != prev {
			return nil, fmt.Errorf("leaf %d: prev %d, but the leaf before it is %d", pg, p.prev(), prev)
		}
		for i := 0; i < p.nCells(); i++ {
			k, err := p.key(i)
			if err != nil {
				return nil, err
			}
			if lastKey != nil && bytes.Compare(k, lastKey) <= 0 {
				return nil, fmt.Errorf("leaf %d: key %x does not follow %x", pg, k, lastKey)
			}
			lastKey = append(lastKey[:0], k...)
		}
		chain = append(chain, pg)
		if len(chain) > len(routed) {
			return nil, fmt.Errorf("leaf chain is longer than the %d routed leaves", len(routed))
		}
		prev, pg = pg, p.right()
	}
	for i := range routed {
		if i >= len(chain) || chain[i] != routed[i] {
			return nil, fmt.Errorf("leaf chain %v differs from routed leaves %v", chain, routed)
		}
	}
	return chain, nil
}

// leafFill returns the share of a leaf's usable bytes (after the header)
// that its cells and their slots occupy.
func leafFill(rt ReadTxn, pg uint32) (float64, error) {
	buf, err := rt.Get(pg)
	if err != nil {
		return 0, err
	}
	p := page{buf: buf}
	used, err := p.usedBytes()
	if err != nil {
		return 0, err
	}
	return float64(used+p.nCells()*slotSize) / float64(len(buf)-hdrEnd), nil
}

// fillTree inserts keys 0..n-1 (8-byte big-endian, so byte order is
// numeric order) in the given order, with valLen-byte values, and returns
// the fill of each leaf in chain order.
func fillTree(t *testing.T, order []int, valLen int) []float64 {
	t.Helper()
	s := testStore(t)
	tree := newTree(t, s)
	val := bytes.Repeat([]byte{0xab}, valLen)
	err := s.Update(func(wt *storage.WriteTxn) error {
		for _, i := range order {
			if err := tree.Put(wt, binary.BigEndian.AppendUint64(nil, uint64(i)), val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var fills []float64
	err = s.View(func(rt *storage.ReadTxn) error {
		chain, err := leafChain(rt, tree)
		if err != nil {
			return err
		}
		for _, pg := range chain {
			f, err := leafFill(rt, pg)
			if err != nil {
				return err
			}
			fills = append(fills, f)
		}
		n, err := tree.Count(rt)
		if err == nil && n != len(order) {
			err = fmt.Errorf("tree holds %d keys, want %d", n, len(order))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fills
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// TestAscendingFillLeavesFull: keys inserted in ascending order take the
// append split, so every leaf but the last is at least 90% full by bytes.
// Two cell shapes: small cells (about 160 a page) and 540-byte rows, the
// size of a float32 128-dim vectors row (7 a page, 93% full). The same
// keys in random order keep the byte-midpoint split.
func TestAscendingFillLeavesFull(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n      int
		valLen int
	}{
		{"small", 20000, 8},
		{"vector-rows", 3000, 540 - 1 - 2 - 8 - 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asc := make([]int, tc.n)
			for i := range asc {
				asc[i] = i
			}
			fills := fillTree(t, asc, tc.valLen)
			if len(fills) < 10 {
				t.Fatalf("only %d leaves; the test needs many splits", len(fills))
			}
			for i, f := range fills[:len(fills)-1] {
				if f < 0.9 {
					t.Fatalf("ascending fill: leaf %d of %d is %.1f%% full, want >= 90%%", i, len(fills), 100*f)
				}
			}

			random := append([]int(nil), asc...)
			rand.New(rand.NewSource(7)).Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
			rfills := fillTree(t, random, tc.valLen)
			// Midpoint splits leave pages between half and fully used,
			// about 70% on average; an append-style split at every page
			// would leave most of them nearly empty or nearly full.
			t.Logf("ascending %d leaves; random %d leaves, mean fill %.1f%%", len(fills), len(rfills), 100*mean(rfills))
			if m := mean(rfills); m < 0.55 || m > 0.85 {
				t.Fatalf("random fill: mean leaf fill %.1f%%, want the midpoint split's 55-85%%", 100*m)
			}
			if len(rfills) <= len(fills) {
				t.Fatalf("random fill used %d leaves, ascending %d: ascending should need fewer", len(rfills), len(fills))
			}
		})
	}
}

// TestInterleavedRunsFillLeaves models Rebuild's insert order: rows reach
// many partitions in turn, and each partition's keys ascend. Every
// partition's insert point sits just before the next partition's first
// key, mid-page, so only the ascending-run split fills those pages.
func TestInterleavedRunsFillLeaves(t *testing.T) {
	s := testStore(t)
	tree := newTree(t, s)
	const parts, rows = 40, 4000
	val := bytes.Repeat([]byte{1}, 300)
	rng := rand.New(rand.NewSource(3))
	err := s.Update(func(wt *storage.WriteTxn) error {
		for vid := 0; vid < rows; vid++ {
			key := binary.BigEndian.AppendUint32(nil, uint32(rng.Intn(parts)))
			key = binary.BigEndian.AppendUint32(key, uint32(vid))
			if err := tree.Put(wt, key, val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.View(func(rt *storage.ReadTxn) error {
		chain, err := leafChain(rt, tree)
		if err != nil {
			return err
		}
		var fills []float64
		for _, pg := range chain {
			f, err := leafFill(rt, pg)
			if err != nil {
				return err
			}
			fills = append(fills, f)
		}
		// Each partition may end in a part-full page and start with one
		// (the cells left behind when its predecessor split off); all
		// pages between are full.
		t.Logf("mean leaf fill %.1f%% over %d leaves", 100*mean(fills), len(fills))
		if m := mean(fills); m < 0.8 {
			return fmt.Errorf("mean leaf fill %.1f%% over %d leaves, want >= 80%%", 100*m, len(fills))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzTreeOps interleaves appends, random inserts, replaces (some with
// overflow-sized values) and deletes on a small-page tree, then checks the
// tree against a reference map, key order across the leaf chain, and every
// leaf's prev/right links.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 9, 2, 3, 3, 1, 0, 0, 1, 200, 2, 17, 3, 40})
	f.Add(bytes.Repeat([]byte{0, 7}, 200))
	f.Add(bytes.Repeat([]byte{1, 13, 0, 0, 3, 5}, 80))
	f.Add(bytes.Repeat([]byte{0, 1, 0, 2, 1, 3, 0, 4, 2, 5, 1, 77}, 300)) // deep: interior splits
	f.Fuzz(func(t *testing.T, ops []byte) {
		s, err := storage.Open("", storage.Options{Backend: storage.BackendMemory, PageSize: 512, Sync: storage.SyncOff, CheckpointFrames: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		tree := newTree(t, s)
		ref := map[string][]byte{}
		var next uint32 // appended keys are 0x00ff<n>: after every random key
		keyOf := func(b byte) []byte { return []byte{0, b} }
		valOf := func(b byte, n int) []byte {
			if b%11 == 0 {
				return bytes.Repeat([]byte{b}, 700+int(b)) // overflow chain
			}
			return bytes.Repeat([]byte{b}, 1+int(b)%60+n%7)
		}
		err = s.Update(func(wt *storage.WriteTxn) error {
			for i := 0; i+1 < len(ops); i += 2 {
				op, arg := ops[i]%4, ops[i+1]
				var key []byte
				switch op {
				case 0: // append
					key = binary.BigEndian.AppendUint32([]byte{0, 0xff}, next)
					next++
				case 1, 2: // random insert or replace
					key = keyOf(arg)
					if op == 2 && len(ref) > 0 {
						keys := make([]string, 0, len(ref))
						for k := range ref {
							keys = append(keys, k)
						}
						sort.Strings(keys)
						key = []byte(keys[int(arg)%len(keys)])
					}
				case 3: // delete
					key = keyOf(arg)
					err := tree.Delete(wt, key)
					_, had := ref[string(key)]
					switch {
					case had && err != nil:
						return fmt.Errorf("delete %x: %w", key, err)
					case !had && !errors.Is(err, ErrNotFound):
						return fmt.Errorf("delete absent %x: %v", key, err)
					}
					delete(ref, string(key))
					continue
				}
				val := valOf(arg, i)
				if err := tree.Put(wt, key, val); err != nil {
					return fmt.Errorf("put %x: %w", key, err)
				}
				ref[string(key)] = val
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		err = s.View(func(rt *storage.ReadTxn) error {
			if _, err := leafChain(rt, tree); err != nil {
				return err
			}
			c, err := tree.First(rt)
			if err != nil {
				return err
			}
			seen := 0
			for ; c.Valid(); seen++ {
				k, err := c.Key()
				if err != nil {
					return err
				}
				v, err := c.Value()
				if err != nil {
					return err
				}
				want, ok := ref[string(k)]
				if !ok || !bytes.Equal(v, want) {
					return fmt.Errorf("key %x: value of %d bytes, reference has %v (%d bytes)", k, len(v), ok, len(want))
				}
				if err := c.Next(); err != nil {
					return err
				}
			}
			if seen != len(ref) {
				return fmt.Errorf("iterated %d keys, reference has %d", seen, len(ref))
			}
			for k, want := range ref {
				got, err := tree.Get(rt, []byte(k))
				if err != nil || !bytes.Equal(got, want) {
					return fmt.Errorf("get %x: %v", k, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
