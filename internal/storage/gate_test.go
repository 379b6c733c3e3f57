package storage

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWriterGateFIFO(t *testing.T) {
	var g writerGate
	g.acquire()
	const n = 8
	order := make([]int, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.acquire()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.release()
		}(i)
		// Serialize arrival order so FIFO hand-off is observable.
		time.Sleep(10 * time.Millisecond)
	}
	g.release()
	wg.Wait()
	for i := 1; i < n; i++ {
		if order[i] < order[i-1] {
			t.Fatalf("gate hand-off out of arrival order: %v", order)
		}
	}
}

func TestReadaheadSafeAcrossBackends(t *testing.T) {
	for _, kind := range []BackendKind{BackendFile, BackendMmap, BackendMemory} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := testOpts()
			opts.Backend = kind
			s, _ := openTemp(t, opts)
			var pages []uint32
			if err := s.Update(func(wt *WriteTxn) error {
				for i := 0; i < 8; i++ {
					n, buf, err := wt.Allocate()
					if err != nil {
						return err
					}
					buf[0] = byte(i)
					pages = append(pages, n)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil && !errors.Is(err, ErrBusy) {
				t.Fatal(err)
			}
			rt, err := s.BeginRead()
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			// Only the mmap backend advertises readahead; the call must be
			// a safe no-op (and WantReadahead false) everywhere else.
			want := kind == BackendMmap
			if got := rt.WantReadahead(); got != want {
				t.Errorf("WantReadahead = %v, want %v", got, want)
			}
			rt.Readahead(pages)
			rt.Readahead(nil)
			rt.Readahead([]uint32{pages[3], pages[3], pages[0]}) // dups, unsorted
			for i, pg := range pages {
				b, err := rt.Get(pg)
				if err != nil {
					t.Fatal(err)
				}
				if b[0] != byte(i) {
					t.Errorf("page %d content %d after readahead", pg, b[0])
				}
			}
		})
	}
}

func TestCloseWaitsForWriter(t *testing.T) {
	opts := testOpts()
	s, _ := openTemp(t, opts)
	wt, err := s.BeginWrite()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := wt.Allocate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
		t.Fatal("Close returned while a write transaction was open")
	case <-time.After(50 * time.Millisecond):
	}
	if err := wt.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Close after commit: %v", err)
	}
}
