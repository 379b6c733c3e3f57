package storage

import (
	"sync"
	"sync/atomic"
)

// pageStripes is the number of stripes the per-page locks are split into:
// the buffer pool's tables and the store's page-read lock. A page's stripe
// is the top pageStripeBits bits of a multiplicative hash of its number.
const (
	pageStripeBits = 4
	pageStripes    = 1 << pageStripeBits
)

func pageStripe(pageNo uint32) int { return int((pageNo * 0x9e3779b1) >> (32 - pageStripeBits)) }

// bufferPool is a byte-budgeted cache of page images shared by all readers.
// Entries are keyed by (page number, WAL frame): frame 0 means the image
// came from the base database file, any other value is the WAL frame that
// produced it. Because a given (page, frame) pair is immutable, cached
// images never need invalidation while the WAL grows — only checkpoints
// re-key entries (the newest WAL image becomes the new base image).
//
// The pool's byte budget is MicroNN's main memory knob: the "Small DUT" and
// "Large DUT" device profiles in the paper's evaluation are reproduced by
// configuring this budget.
//
// Lookups go to one of pageStripes tables, chosen by page number so every
// version of a page shares a table. A hit takes only that table's read
// lock and marks the entry used by setting its CLOCK reference bit, an
// atomic store skipped when the bit is already set; hits and misses are
// counted per table. Only insertion, eviction, checkpoint re-keying and
// drop take the pool mutex. Replacement is CLOCK (second chance): a hand
// sweeps a ring holding every entry, clears each set reference bit it
// passes and evicts the first entry whose bit is already clear. New
// entries start unreferenced, so a page read once by a sweep is the first
// to go.
//
// Hits need no pins. An evicted or dropped image is only unlinked from its
// table, never reused or written: a reader still holding the slice keeps
// it alive through the garbage collector, and its bytes stay the image of
// its (page, frame).
type bufferPool struct {
	capacity int // entries the budget holds, at least one
	pageSize int64
	shards   [pageStripes]poolShard

	// mu serializes put, checkpointRekey and drop, the only writers of
	// the shard tables, so a holder reads a table without its lock. mu
	// also guards the fields below. Lock order: mu, then a shard's mu.
	mu        sync.Mutex
	ring      []*poolEntry // CLOCK ring; nil slots are listed in free
	free      []int        // empty ring slots
	hand      int
	live      int // entries in the ring
	evictions uint64
}

// poolShard is one lookup table. The padding keeps the counters of
// neighbouring shards off each other's cache lines.
type poolShard struct {
	mu      sync.RWMutex
	entries map[poolKey]*poolEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
	_       [64]byte
}

type poolKey struct {
	pageNo uint32
	frame  uint32 // 0 = base file; else WAL frame number + 1
}

type poolEntry struct {
	key  poolKey // written under the pool and shard mutexes
	data []byte  // never written after insertion
	ref  atomic.Bool
	slot int // position in the ring
}

func newBufferPool(budget int64, pageSize uint32) *bufferPool {
	p := &bufferPool{
		capacity: max(1, int(budget/int64(pageSize))),
		pageSize: int64(pageSize),
	}
	for i := range p.shards {
		p.shards[i].entries = make(map[poolKey]*poolEntry)
	}
	return p
}

func (p *bufferPool) shard(pageNo uint32) *poolShard { return &p.shards[pageStripe(pageNo)] }

// get returns the cached image for key, or nil, and counts a hit or miss.
// The returned slice must be treated as read-only; writers copy pages
// before mutating them.
func (p *bufferPool) get(key poolKey) []byte {
	sh := p.shard(key.pageNo)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e == nil {
		sh.misses.Add(1)
		return nil
	}
	if !e.ref.Load() {
		e.ref.Store(true)
	}
	sh.hits.Add(1)
	return e.data
}

// peek is get without the side effects: it neither counts the lookup nor
// marks the entry used.
func (p *bufferPool) peek(key poolKey) []byte {
	sh := p.shard(key.pageNo)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if e := sh.entries[key]; e != nil {
		return e.data
	}
	return nil
}

// put caches a page image, evicting by CLOCK to stay within budget. data is
// retained; callers must not mutate it afterwards. An image already cached
// under key is kept (both are the same bytes) and marked used.
func (p *bufferPool) put(key poolKey, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sh := p.shard(key.pageNo)
	if old := sh.entries[key]; old != nil {
		old.ref.Store(true)
		return
	}
	var slot int
	switch {
	case len(p.free) > 0:
		slot = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	case len(p.ring) < p.capacity:
		slot = len(p.ring)
		p.ring = append(p.ring, nil)
	default:
		slot = p.evict()
	}
	e := &poolEntry{key: key, data: data, slot: slot}
	p.ring[slot] = e
	p.live++
	sh.mu.Lock()
	sh.entries[key] = e
	sh.mu.Unlock()
}

// evict advances the CLOCK hand to the first unreferenced entry, clearing
// the reference bits it passes, removes that entry and returns its now
// empty slot. Called with mu held on a full ring (no nil slots), so it
// stops within two turns.
func (p *bufferPool) evict() int {
	for {
		e := p.ring[p.hand]
		p.hand = (p.hand + 1) % len(p.ring)
		if e.ref.Load() {
			e.ref.Store(false)
			continue
		}
		p.unlink(e)
		p.evictions++
		return e.slot
	}
}

// unlink removes e from its shard and empties its ring slot, without
// listing the slot as free. Called with mu held.
func (p *bufferPool) unlink(e *poolEntry) {
	sh := p.shard(e.key.pageNo)
	sh.mu.Lock()
	delete(sh.entries, e.key)
	sh.mu.Unlock()
	p.ring[e.slot] = nil
	p.live--
}

// checkpointRekey is called after a checkpoint copied the newest WAL image
// of each page into the base file. For every checkpointed page, the entry
// holding its newest frame is re-keyed to the base key (keeping the cache
// warm across checkpoints) and all other versions are dropped.
func (p *bufferPool) checkpointRekey(latest map[uint32]uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, e := range p.ring {
		if e == nil {
			continue // free, or emptied earlier in this pass
		}
		newest, involved := latest[e.key.pageNo]
		if !involved {
			continue
		}
		if e.key.frame != newest+1 {
			p.unlink(e)
			p.free = append(p.free, e.slot)
			continue
		}
		// Promote to the base image. A cached base entry is stale:
		// remove it first (a later visit then finds its slot empty).
		sh := p.shard(e.key.pageNo)
		baseKey := poolKey{pageNo: e.key.pageNo}
		if stale := sh.entries[baseKey]; stale != nil {
			p.unlink(stale)
			p.free = append(p.free, stale.slot)
		}
		sh.mu.Lock()
		delete(sh.entries, e.key)
		e.key = baseKey
		sh.entries[baseKey] = e
		sh.mu.Unlock()
	}
}

// drop removes every cached entry. Used to simulate a cold start.
func (p *bufferPool) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[poolKey]*poolEntry)
		sh.mu.Unlock()
	}
	p.ring, p.free, p.hand, p.live = nil, nil, 0, 0
}

// bytes returns the memory currently held by the pool.
func (p *bufferPool) bytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return int64(p.live) * p.pageSize
}

// stats returns cumulative hit/miss/eviction counters.
func (p *bufferPool) stats() (hits, misses, evictions uint64) {
	for i := range p.shards {
		hits += p.shards[i].hits.Load()
		misses += p.shards[i].misses.Load()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return hits, misses, p.evictions
}
