package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testOpts() Options {
	return Options{Sync: SyncOff, PoolBytes: 1 << 20, MaxDirtyPages: 16, CheckpointFrames: -1}
}

// fileOpts pins the file backend for tests that assert file-format or
// cross-reopen behavior regardless of the MICRONN_TEST_BACKEND matrix;
// the backend conformance battery covers mmap and memory explicitly.
func fileOpts() Options {
	o := testOpts()
	o.Backend = BackendFile
	return o
}

func openTemp(t *testing.T, opts Options) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("Close: %v", err)
		}
	})
	return s, path
}

func fillPage(s *Store, tag byte) []byte {
	p := make([]byte, s.PageSize())
	for i := range p {
		p[i] = tag
	}
	return p
}

func TestOpenCreatesHeader(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	err := s.View(func(rt *ReadTxn) error {
		h, err := rt.Header()
		if err != nil {
			return err
		}
		if h.pageCount != 1 {
			t.Errorf("pageCount = %d, want 1", h.pageCount)
		}
		if h.pageSize != DefaultPageSize {
			t.Errorf("pageSize = %d", h.pageSize)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllocateWriteReadBack(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	var pg uint32
	err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		if err != nil {
			return err
		}
		pg = n
		copy(buf, []byte("hello page"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(p, []byte("hello page")) {
			t.Errorf("page content = %q", p[:16])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRollbackDiscardsChanges(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		copy(buf, []byte("committed"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wt, err := s.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	buf, err := wt.GetMut(pg)
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("uncommitted"))
	wt.Rollback()

	err = s.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(p, []byte("committed")) {
			t.Errorf("page = %q, rollback leaked", p[:16])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		buf[0] = 1
		return err
	}); err != nil {
		t.Fatal(err)
	}

	rt, err := s.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Commit a new version while the reader is open.
	if err := s.Update(func(wt *WriteTxn) error {
		buf, err := wt.GetMut(pg)
		if err != nil {
			return err
		}
		buf[0] = 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	p, err := rt.Get(pg)
	if err != nil {
		t.Fatal(err)
	}
	if p[0] != 1 {
		t.Errorf("old reader sees %d, want 1", p[0])
	}

	rt2, err := s.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Close()
	p2, err := rt2.Get(pg)
	if err != nil {
		t.Fatal(err)
	}
	if p2[0] != 2 {
		t.Errorf("new reader sees %d, want 2", p2[0])
	}
}

func TestWriteTxnSeesOwnWrites(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		if err != nil {
			return err
		}
		buf[0] = 42
		got, err := wt.Get(n)
		if err != nil {
			return err
		}
		if got[0] != 42 {
			t.Errorf("own write invisible: %d", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFreelistReuse(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, _, err := wt.Allocate()
		pg = n
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(wt *WriteTxn) error {
		return wt.Free(pg)
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(wt *WriteTxn) error {
		n, _, err := wt.Allocate()
		if err != nil {
			return err
		}
		if n != pg {
			t.Errorf("allocated %d, want reused %d", n, pg)
		}
		if wt.FreePages() != 0 {
			t.Errorf("freelist len = %d, want 0", wt.FreePages())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeInvalidPage(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	err := s.Update(func(wt *WriteTxn) error {
		if err := wt.Free(0); !errors.Is(err, ErrBadPage) {
			t.Errorf("Free(0) = %v, want ErrBadPage", err)
		}
		if err := wt.Free(9999); !errors.Is(err, ErrBadPage) {
			t.Errorf("Free(9999) = %v, want ErrBadPage", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpillLargeTransaction(t *testing.T) {
	opts := testOpts()
	opts.MaxDirtyPages = 4
	s, _ := openTemp(t, opts)
	const n = 64
	pages := make([]uint32, n)
	err := s.Update(func(wt *WriteTxn) error {
		for i := 0; i < n; i++ {
			pg, buf, err := wt.Allocate()
			if err != nil {
				return err
			}
			pages[i] = pg
			buf[0] = byte(i)
			buf[1] = 0xAA
			if err := wt.SpillIfNeeded(); err != nil {
				return err
			}
			if wt.DirtyPages() > 5 {
				t.Errorf("dirty pages %d exceeds spill threshold", wt.DirtyPages())
			}
		}
		// Re-read every page inside the txn: most were spilled to the WAL.
		for i, pg := range pages {
			p, err := wt.Get(pg)
			if err != nil {
				return err
			}
			if p[0] != byte(i) || p[1] != 0xAA {
				t.Errorf("page %d content %d,%x", pg, p[0], p[1])
			}
		}
		// Modify a spilled page again.
		buf, err := wt.GetMut(pages[0])
		if err != nil {
			return err
		}
		buf[1] = 0xBB
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.View(func(rt *ReadTxn) error {
		for i, pg := range pages {
			p, err := rt.Get(pg)
			if err != nil {
				return err
			}
			want := byte(0xAA)
			if i == 0 {
				want = 0xBB
			}
			if p[0] != byte(i) || p[1] != want {
				t.Errorf("page %d after commit: %d,%x want %d,%x", pg, p[0], p[1], i, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSpilledRollbackInvisible(t *testing.T) {
	opts := testOpts()
	opts.MaxDirtyPages = 2
	s, _ := openTemp(t, opts)
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		buf[0] = 7
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wt, err := s.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	// Force spills by touching many pages.
	for i := 0; i < 16; i++ {
		if _, _, err := wt.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := wt.SpillIfNeeded(); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := wt.GetMut(pg)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	wt.Rollback()

	// After rollback followed by a fresh commit, the rolled-back frames
	// must stay invisible (also across recovery, tested elsewhere).
	if err := s.Update(func(wt *WriteTxn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	err = s.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if p[0] != 7 {
			t.Errorf("page = %d, want 7", p[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStatsFreePages: Stats reports the committed freelist length, ignores
// a rolled-back free, and reads it back from the header after a reopen.
func TestStatsFreePages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.db")
	opts := fileOpts()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pages []uint32
	if err := s.Update(func(wt *WriteTxn) error {
		for i := 0; i < 6; i++ {
			n, _, err := wt.Allocate()
			if err != nil {
				return err
			}
			pages = append(pages, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(wt *WriteTxn) error {
		for _, pg := range pages[:4] {
			if err := wt.Free(pg); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	errRollback := errors.New("roll back")
	if err := s.Update(func(wt *WriteTxn) error {
		if err := wt.Free(pages[4]); err != nil {
			return err
		}
		return errRollback
	}); !errors.Is(err, errRollback) {
		t.Fatal(err)
	}
	if got := s.Stats().FreePages; got != 4 {
		t.Fatalf("FreePages = %d, want 4", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().FreePages; got != 4 {
		t.Fatalf("after reopen: FreePages = %d, want 4", got)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	opts := fileOpts()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		copy(buf, []byte("persist me"))
		wt.SetCatalogRoot(n)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	err = s2.View(func(rt *ReadTxn) error {
		root, err := rt.CatalogRoot()
		if err != nil {
			return err
		}
		if root != pg {
			t.Errorf("catalog root = %d, want %d", root, pg)
		}
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(p, []byte("persist me")) {
			t.Errorf("content = %q", p[:16])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	opts := fileOpts()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pg uint32
	for i := 0; i < 5; i++ {
		if err := s.Update(func(wt *WriteTxn) error {
			n, buf, err := wt.Allocate()
			if err != nil {
				return err
			}
			pg = n
			buf[0] = byte(i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: no checkpoint, WAL left behind.
	if err := s.CloseWithoutCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path + "-wal"); err != nil || st.Size() == 0 {
		t.Fatalf("expected non-empty WAL, err=%v", err)
	}

	s2, err := Open(path, opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	err = s2.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if p[0] != 4 {
			t.Errorf("recovered page = %d, want 4", p[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryDiscardsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	opts := fileOpts()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		buf[0] = 1
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(wt *WriteTxn) error {
		buf, err := wt.GetMut(pg)
		if err != nil {
			return err
		}
		buf[0] = 2
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.CloseWithoutCheckpoint(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the tail of the WAL: flip a byte in the last frame.
	walPath := path + "-wal"
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, opts)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	err = s2.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		// Second commit's frames are torn; first commit must survive.
		if p[0] != 1 {
			t.Errorf("page after torn-tail recovery = %d, want 1", p[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointFoldsWAL(t *testing.T) {
	s, path := openTemp(t, fileOpts())
	var pg uint32
	if err := s.Update(func(wt *WriteTxn) error {
		n, buf, err := wt.Allocate()
		pg = n
		copy(buf, []byte("checkpointed"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALFrames != 0 {
		t.Errorf("WAL frames after checkpoint = %d, want 0", st.WALFrames)
	}
	if st.Checkpoints != 1 {
		t.Errorf("checkpoints = %d, want 1", st.Checkpoints)
	}
	// Base file must now contain the page.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int(pg) * int(s.PageSize())
	if !bytes.HasPrefix(raw[off:], []byte("checkpointed")) {
		t.Error("base file missing checkpointed page")
	}
	// And reads still work (through re-keyed cache or base file).
	err = s.View(func(rt *ReadTxn) error {
		p, err := rt.Get(pg)
		if err != nil {
			return err
		}
		if !bytes.HasPrefix(p, []byte("checkpointed")) {
			t.Errorf("post-checkpoint read = %q", p[:16])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointBlockedByOldReader(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	if err := s.Update(func(wt *WriteTxn) error {
		_, _, err := wt.Allocate()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rt, err := s.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	// Another commit moves the horizon past the reader.
	if err := s.Update(func(wt *WriteTxn) error {
		_, _, err := wt.Allocate()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrBusy) {
		t.Errorf("Checkpoint with old reader = %v, want ErrBusy", err)
	}
	rt.Close()
	if err := s.Checkpoint(); err != nil {
		t.Errorf("Checkpoint after reader closed: %v", err)
	}
}

func TestCurrentReaderDoesNotBlockCheckpoint(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	if err := s.Update(func(wt *WriteTxn) error {
		_, _, err := wt.Allocate()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rt, err := s.BeginRead()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := s.Checkpoint(); err != nil {
		t.Errorf("Checkpoint with current-horizon reader: %v", err)
	}
	// Reader still works after the WAL vanished beneath it.
	if _, err := rt.Get(1); err != nil {
		t.Errorf("read after checkpoint: %v", err)
	}
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	opts := testOpts()
	opts.MaxDirtyPages = 8
	s, _ := openTemp(t, opts)
	const pages = 32
	ids := make([]uint32, pages)
	if err := s.Update(func(wt *WriteTxn) error {
		for i := range ids {
			n, buf, err := wt.Allocate()
			if err != nil {
				return err
			}
			ids[i] = n
			putLEU32(buf, 0) // version counter
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// Writer: bumps every page's version in each txn (all-or-nothing).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint32(1); v <= 50; v++ {
			err := s.Update(func(wt *WriteTxn) error {
				for _, pg := range ids {
					buf, err := wt.GetMut(pg)
					if err != nil {
						return err
					}
					putLEU32(buf, v)
				}
				return nil
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()

	// Readers: every snapshot must observe a single consistent version.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := s.View(func(rt *ReadTxn) error {
					first, err := rt.Get(ids[0])
					if err != nil {
						return err
					}
					want := leU32(first)
					for _, pg := range ids[1:] {
						p, err := rt.Get(pg)
						if err != nil {
							return err
						}
						if got := leU32(p); got != want {
							return fmt.Errorf("torn snapshot: page %d version %d, want %d", pg, got, want)
						}
					}
					_ = rng.Int()
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}

	// Wait for the writer to finish, then stop readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Close stop after writer goroutine finished all commits: detect via
	// polling the stats.
	for {
		st := s.Stats()
		if st.Commits >= 51 { // 1 setup + 50 writer commits
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		default:
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestPoolEviction(t *testing.T) {
	opts := testOpts()
	opts.PoolBytes = 8 * DefaultPageSize
	s, _ := openTemp(t, opts)
	if err := s.Update(func(wt *WriteTxn) error {
		for i := 0; i < 64; i++ {
			_, buf, err := wt.Allocate()
			if err != nil {
				return err
			}
			buf[0] = byte(i)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	err := s.View(func(rt *ReadTxn) error {
		for pg := uint32(1); pg <= 64; pg++ {
			if _, err := rt.Get(pg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.pool.bytes(); got > opts.PoolBytes {
		t.Errorf("pool bytes %d exceeds budget %d", got, opts.PoolBytes)
	}
}

func TestDropCaches(t *testing.T) {
	s, _ := openTemp(t, testOpts())
	if err := s.Update(func(wt *WriteTxn) error {
		_, _, err := wt.Allocate()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	s.DropCaches()
	if got := s.pool.bytes(); got != 0 {
		t.Errorf("pool bytes after drop = %d", got)
	}
	// Reads must still work (from WAL/base file).
	if err := s.View(func(rt *ReadTxn) error {
		_, err := rt.Get(1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func TestLockingExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.db")
	opts := fileOpts()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := Open(path, opts); !errors.Is(err, ErrLocked) {
		t.Errorf("second Open = %v, want ErrLocked", err)
	}
}

func TestClosedStoreErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	s, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BeginRead(); !errors.Is(err, ErrClosed) {
		t.Errorf("BeginRead on closed = %v", err)
	}
	if _, err := s.BeginWrite(); !errors.Is(err, ErrClosed) {
		t.Errorf("BeginWrite on closed = %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("double Close = %v", err)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	opts := testOpts()
	opts.CheckpointFrames = 8
	s, _ := openTemp(t, opts)
	for i := 0; i < 10; i++ {
		if err := s.Update(func(wt *WriteTxn) error {
			_, _, err := wt.Allocate()
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Checkpoints == 0 {
		t.Error("expected at least one auto checkpoint")
	}
}

func TestPageSizeMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	s, err := Open(path, fileOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	opts := fileOpts()
	opts.PageSize = 8192
	if _, err := Open(path, opts); err == nil {
		t.Error("expected page size mismatch error")
	}
}
