package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolClockSecondChance pins the CLOCK policy: the hand clears a
// referenced entry's bit and passes it by, evicts the first unreferenced
// one, and takes the spared entry on its next turn unless it was used again.
func TestPoolClockSecondChance(t *testing.T) {
	p := newBufferPool(3*4096, 4096)
	img := make([]byte, 4096)
	p.put(poolKey{pageNo: 1}, img)
	p.put(poolKey{pageNo: 2}, img)
	p.put(poolKey{pageNo: 3}, img)
	if p.get(poolKey{pageNo: 1}) == nil {
		t.Fatal("page 1 missing")
	}
	cached := func(pageNo uint32) bool { return p.peek(poolKey{pageNo: pageNo}) != nil }

	p.put(poolKey{pageNo: 4}, img) // hand: spares 1, evicts 2
	if !cached(1) || cached(2) || !cached(3) || !cached(4) {
		t.Fatalf("after first sweep: 1=%v 2=%v 3=%v 4=%v, want only 2 evicted",
			cached(1), cached(2), cached(3), cached(4))
	}
	p.put(poolKey{pageNo: 5}, img) // evicts 3, the next unreferenced entry
	if cached(3) || !cached(1) {
		t.Fatalf("second insert: 3=%v 1=%v, want 3 evicted and 1 kept", cached(3), cached(1))
	}
	p.put(poolKey{pageNo: 6}, img) // 1's bit was spent: now it is the victim
	if cached(1) || !cached(4) || !cached(5) || !cached(6) {
		t.Fatalf("third insert: 1=%v 4=%v 5=%v 6=%v, want 1 evicted",
			cached(1), cached(4), cached(5), cached(6))
	}
	if _, _, ev := p.stats(); ev != 3 {
		t.Errorf("evictions = %d, want 3", ev)
	}
	if got := p.bytes(); got != 3*4096 {
		t.Errorf("bytes = %d, want the full budget %d", got, 3*4096)
	}
}

// TestPoolRekeyDropsStaleVersions: after a checkpoint re-key, the newest
// WAL image of each checkpointed page is its base image, whichever order
// the versions were cached in, and no other version of it stays cached: a
// WAL key outliving the WAL would serve the wrong image once the frame
// number is reused. The emptied slots are reused before anything is evicted.
func TestPoolRekeyDropsStaleVersions(t *testing.T) {
	p := newBufferPool(8*4096, 4096)
	img := func(tag byte) []byte { return []byte{tag} }
	p.put(poolKey{pageNo: 1, frame: 0}, img(10))
	p.put(poolKey{pageNo: 1, frame: 4}, img(13))
	p.put(poolKey{pageNo: 1, frame: 6}, img(15)) // newest: frame 5
	p.put(poolKey{pageNo: 2, frame: 6}, img(25)) // newest first this time
	p.put(poolKey{pageNo: 2, frame: 0}, img(20))
	p.put(poolKey{pageNo: 3, frame: 0}, img(30)) // its newest (frame 7) is not cached
	p.put(poolKey{pageNo: 4, frame: 0}, img(40)) // not checkpointed
	p.checkpointRekey(map[uint32]uint32{1: 5, 2: 5, 3: 7})
	for _, c := range []struct {
		key  poolKey
		want byte // 0: not cached
	}{
		{poolKey{1, 0}, 15}, {poolKey{1, 4}, 0}, {poolKey{1, 6}, 0},
		{poolKey{2, 0}, 25}, {poolKey{2, 6}, 0},
		{poolKey{3, 0}, 0},
		{poolKey{4, 0}, 40},
	} {
		got := p.peek(c.key)
		if c.want == 0 && got != nil || c.want != 0 && (got == nil || got[0] != c.want) {
			t.Errorf("%+v: cached %v, want tag %d (0: none)", c.key, got, c.want)
		}
	}
	if got := p.bytes(); got != 3*4096 {
		t.Errorf("bytes = %d, want 3 pages", got)
	}
	for pg := uint32(10); pg < 15; pg++ {
		p.put(poolKey{pageNo: pg}, img(byte(pg)))
	}
	if _, _, ev := p.stats(); ev != 0 {
		t.Errorf("%d evictions filling the budget, want 0", ev)
	}
}

// TestReadPageHitAllocs: a page read served by the pool allocates nothing,
// for a base-file image and for a WAL image alike.
func TestReadPageHitAllocs(t *testing.T) {
	s, _ := openTemp(t, fileOpts())
	write := func() {
		t.Helper()
		if err := s.Update(func(wt *WriteTxn) error {
			_, buf, err := wt.Allocate()
			buf[0] = 1
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	write()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	write() // page 2 stays in the WAL
	err := s.View(func(rt *ReadTxn) error {
		for _, pg := range []uint32{1, 2} {
			if _, err := rt.Get(pg); err != nil {
				return err
			}
			var err error
			if allocs := testing.AllocsPerRun(100, func() { _, err = rt.Get(pg) }); allocs != 0 {
				t.Errorf("page %d: %.1f allocations per pool hit, want 0", pg, allocs)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLeavesPoolStats: a checkpoint's own lookups of the WAL
// images it folds, cached or not, count as neither pool hits nor misses.
func TestCheckpointLeavesPoolStats(t *testing.T) {
	s, _ := openTemp(t, fileOpts())
	if err := s.Update(func(wt *WriteTxn) error {
		for i := 0; i < 8; i++ {
			if _, _, err := wt.Allocate(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s.DropCaches()
	if err := s.View(func(rt *ReadTxn) error { // cache half the images
		for pg := uint32(1); pg <= 4; pg++ {
			if _, err := rt.Get(pg); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Checkpoints != before.Checkpoints+1 {
		t.Fatalf("checkpoints %d -> %d, want one more", before.Checkpoints, after.Checkpoints)
	}
	if after.PoolHits != before.PoolHits || after.PoolMisses != before.PoolMisses {
		t.Errorf("checkpoint moved pool stats: hits %d -> %d, misses %d -> %d",
			before.PoolHits, after.PoolHits, before.PoolMisses, after.PoolMisses)
	}
}

// hammerPage writes the image of pageNo at version v: the page number and
// version, then a fill byte derived from both.
func hammerPage(buf []byte, pageNo, v uint32) {
	binary.LittleEndian.PutUint32(buf, pageNo)
	binary.LittleEndian.PutUint32(buf[4:], v)
	f := hammerFill(pageNo, v)
	for i := 8; i < len(buf); i++ {
		buf[i] = f
	}
}

func hammerFill(pageNo, v uint32) byte { return byte(pageNo*31 + v*7 + 1) }

// TestPoolHammer runs readers against a pool much smaller than their
// working set while a writer commits and checkpoints (re-keying the pool)
// and another goroutine keeps dropping it. Every slice a reader got is
// held across further reads and must still be the image of the (page,
// version) it was read as, and every read must match the reader's
// snapshot. Run it under -race.
func TestPoolHammer(t *testing.T) {
	const (
		hot     = 8  // pages 1..hot: rewritten by every commit
		pages   = 96 // pages hot+1..pages: a cold sweep, 88 pages
		budget  = 16 // pool pages
		window  = 8  // cold pages each commit rewrites
		commits = 60
		readers = 4
		held    = 64 // slices each reader keeps
	)
	opts := fileOpts()
	opts.PoolBytes = budget * DefaultPageSize
	opts.MaxDirtyPages = 4 * pages
	s, _ := openTemp(t, opts)
	fills := make(map[byte][]byte)
	for pg := uint32(1); pg <= pages; pg++ {
		for v := uint32(0); v <= commits; v++ {
			if f := hammerFill(pg, v); fills[f] == nil {
				fills[f] = bytes.Repeat([]byte{f}, DefaultPageSize-8)
			}
		}
	}
	if err := s.Update(func(wt *WriteTxn) error {
		for pg := uint32(1); pg <= pages; pg++ {
			n, buf, err := wt.Allocate()
			if err != nil {
				return err
			}
			if n != pg {
				t.Fatalf("allocated page %d, want %d", n, pg)
			}
			hammerPage(buf, pg, 0)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// valid reports whether b is the image of pageNo at version v.
	valid := func(b []byte, pageNo, v uint32) bool {
		return len(b) == DefaultPageSize &&
			binary.LittleEndian.Uint32(b) == pageNo &&
			binary.LittleEndian.Uint32(b[4:]) == v &&
			bytes.Equal(b[8:], fills[hammerFill(pageNo, v)])
	}
	overBudget := func() bool { return s.pool.bytes() > opts.PoolBytes }

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+2)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		done.Store(true)
	}

	var checkpoints int
	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		defer done.Store(true)
		for v := uint32(1); v <= commits && !done.Load(); v++ {
			lo := hot + 1 + (v*window)%(pages-hot)
			err := s.Update(func(wt *WriteTxn) error {
				for pg := uint32(1); pg <= pages; pg++ {
					if pg > hot && (pg < lo || pg >= lo+window) {
						continue
					}
					buf, err := wt.GetMut(pg)
					if err != nil {
						return err
					}
					hammerPage(buf, pg, v)
				}
				return nil
			})
			if err != nil {
				fail(err)
				return
			}
			if v%5 != 0 {
				continue
			}
			// Readers pin older snapshots only briefly: retry until the
			// checkpoint (and with it the pool re-key) goes through.
			for deadline := time.Now().Add(5 * time.Second); ; {
				err := s.Checkpoint()
				if err == nil {
					checkpoints++
					break
				}
				if !errors.Is(err, ErrBusy) || time.Now().After(deadline) {
					fail(err)
					return
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	wg.Add(1)
	go func() { // cache dropper
		defer wg.Done()
		for !done.Load() {
			s.DropCaches()
			if overBudget() {
				fail(errors.New("pool over budget after drop"))
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			type view struct {
				b      []byte
				pageNo uint32
				v      uint32
			}
			var keep []view
			next := 0
			hold := func(b []byte, pageNo, v uint32) {
				if len(keep) < held {
					keep = append(keep, view{b, pageNo, v})
					return
				}
				keep[next] = view{b, pageNo, v}
				next = (next + 1) % held
			}
			// The cold sweep, which each reader starts at a different
			// page, with the hot set read again after every 8 cold pages.
			var order []uint32
			for i := uint32(0); i < pages-hot; i++ {
				if i%8 == 0 {
					for pg := uint32(1); pg <= hot; pg++ {
						order = append(order, pg)
					}
				}
				order = append(order, hot+1+(i+uint32(r)*(pages-hot)/readers)%(pages-hot))
			}
			for !done.Load() {
				err := s.View(func(rt *ReadTxn) error {
					b, err := rt.Get(1)
					if err != nil {
						return err
					}
					v := binary.LittleEndian.Uint32(b[4:])
					for _, pg := range order {
						b, err := rt.Get(pg)
						if err != nil {
							return err
						}
						// Hot pages carry the snapshot's version; a cold
						// page was last written at or before it.
						got := binary.LittleEndian.Uint32(b[4:])
						if pg <= hot && got != v || got > v || !valid(b, pg, got) {
							return fmt.Errorf("page %d read as version %d at snapshot version %d (valid image: %v)",
								pg, got, v, valid(b, pg, got))
						}
						hold(b, pg, got)
					}
					if overBudget() {
						return errors.New("pool over budget")
					}
					for _, h := range keep {
						if !valid(h.b, h.pageNo, h.v) {
							return errors.New("a held page image changed")
						}
					}
					return nil
				})
				if err != nil {
					fail(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint went through")
	}
	hits, misses, evictions := s.pool.stats()
	t.Logf("%d checkpoints; pool hits %d, misses %d, evictions %d", checkpoints, hits, misses, evictions)
	if evictions == 0 {
		t.Error("no evictions: the sweep did not exceed the pool")
	}
}

// BenchmarkReadPageHit times a page read served by the pool: a 128-page
// working set held in full, read by one goroutine and by GOMAXPROCS.
func BenchmarkReadPageHit(b *testing.B) {
	const pages = 128
	opts := fileOpts()
	opts.PoolBytes = 2 * pages * DefaultPageSize
	s, err := Open(filepath.Join(b.TempDir(), "bench.db"), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Update(func(wt *WriteTxn) error {
		for i := 0; i < pages; i++ {
			if _, _, err := wt.Allocate(); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	read := func(rt *ReadTxn, i int) error {
		_, err := rt.Get(uint32(1 + i%pages))
		return err
	}
	rt, err := s.BeginRead()
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	for i := 0; i < pages; i++ {
		if err := read(rt, i); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := read(rt, i); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		var seed atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			rt, err := s.BeginRead()
			if err != nil {
				b.Error(err)
				return
			}
			defer rt.Close()
			for i := int(seed.Add(37)); pb.Next(); i++ {
				if err := read(rt, i); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
