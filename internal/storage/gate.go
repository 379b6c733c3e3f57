package storage

import (
	"sync"
	"sync/atomic"
	"time"
)

// writerGate serializes write transactions, checkpoints and close in
// strict FIFO arrival order. Unlike a bare sync.Mutex — whose waiters race
// on wakeup — the gate hands ownership to the longest-waiting acquirer, so
// commit order equals arrival order and no writer can be starved by a
// stream of later arrivals.
type writerGate struct {
	mu      sync.Mutex
	busy    bool
	waiters []chan struct{}

	// Contention telemetry: how many acquisitions had to queue behind a
	// holder, and the total time spent queued. Group-commit batching exists
	// to amortize exactly this wait, so it is surfaced through Store.Stats.
	waits  atomic.Uint64
	waitNs atomic.Int64
}

func (g *writerGate) acquire() {
	g.mu.Lock()
	if !g.busy {
		g.busy = true
		g.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	g.waiters = append(g.waiters, ch)
	g.mu.Unlock()
	start := time.Now()
	<-ch
	g.waits.Add(1)
	g.waitNs.Add(int64(time.Since(start)))
}

func (g *writerGate) release() {
	g.mu.Lock()
	if len(g.waiters) == 0 {
		g.busy = false
		g.mu.Unlock()
		return
	}
	ch := g.waiters[0]
	g.waiters = g.waiters[1:]
	g.mu.Unlock()
	// Ownership transfers directly to the woken waiter: busy stays true.
	close(ch)
}

// readLock is the store's page-read lock: a reader-writer lock split into
// pageStripes stripes. A page read read-locks only its page's stripe, so
// concurrent reads of different pages share no lock word; an exclusive
// holder locks every stripe in order, excluding all readers.
type readLock struct {
	stripes [pageStripes]struct {
		sync.RWMutex
		_ [64]byte // keeps neighbouring stripes off one cache line
	}
}

// RLock read-locks pageNo's stripe and returns it for the RUnlock.
func (l *readLock) RLock(pageNo uint32) *sync.RWMutex {
	m := &l.stripes[pageStripe(pageNo)].RWMutex
	m.RLock()
	return m
}

func (l *readLock) Lock() {
	for i := range l.stripes {
		l.stripes[i].Lock()
	}
}

func (l *readLock) Unlock() {
	for i := range l.stripes {
		l.stripes[i].Unlock()
	}
}
