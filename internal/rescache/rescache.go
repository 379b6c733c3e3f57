// Package rescache implements MicroNN's generation-versioned query result
// cache: a bounded LRU of search responses keyed by a canonicalized query
// fingerprint (see KeyOf) and validated against monotonically increasing
// data-generation counters.
//
// The contract is exact, not heuristic: every committed write transaction
// that can change query-visible data bumps its store's generation (see
// ivf.Index.DataGeneration), an entry records the generations of the
// store(s) it was computed against, and a lookup serves the entry only when
// every recorded generation still matches the generation visible at the
// caller's read snapshot. Matching generations mean the visible data is
// identical, so the cached response is byte-identical to re-running the
// query — the staleness oracle in micronn_cache_test.go holds the cache to
// exactly that standard.
//
// Entries carry one generation per backing store: a single-store database
// uses a one-element slice, a sharded database one generation per shard. A
// lookup whose generations differ only on some positions returns the stale
// entry (Outcome Stale) so the sharded router can reuse the candidate sets
// of unchanged shards and re-scan only the shards whose generation moved.
//
// The cache is process-local and never persisted. That makes crash
// semantics trivially safe: a post-crash reopen may reuse generation
// numbers rolled back with the WAL, but no cache survives the process that
// recorded them.
//
// Memory is bounded by both an entry count and an approximate byte budget;
// the least-recently-used entry is evicted first. Do provides singleflight
// deduplication so concurrent identical misses compute the response once.
package rescache

import (
	"container/list"
	"sync"
	"time"
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts lookups served entirely from the cache (every recorded
	// generation matched).
	Hits uint64
	// Misses counts lookups that found no entry.
	Misses uint64
	// Invalidations counts lookups that found an entry whose generations
	// no longer matched — the data moved underneath it.
	Invalidations uint64
	// Evictions counts entries displaced by the LRU bounds.
	Evictions uint64
	// SkippedScans counts per-shard scans avoided by partial reuse of a
	// stale entry (sharded databases only: shards whose generation had not
	// moved contributed their cached candidates without being re-scanned).
	SkippedScans uint64
	// NegativePuts counts cached negative responses (zero results) — they
	// bypass the admission doorkeeper because they are tiny and the scans
	// they avoid tend to be the expensive, filter-heavy kind.
	NegativePuts uint64
	// AdmissionDeferred counts filter-heavy responses NOT cached because
	// the doorkeeper had not seen their key recently: a filter-heavy key
	// is admitted only on its second occurrence within the admission TTL,
	// so one-off analytic queries cannot churn the LRU.
	AdmissionDeferred uint64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// Outcome classifies a lookup.
type Outcome uint8

const (
	// Miss: no entry under the key.
	Miss Outcome = iota
	// Stale: an entry exists but at least one recorded generation differs
	// from the caller's. The entry is returned for partial reuse.
	Stale
	// Hit: the entry's generations all match; the value may be served.
	Hit
)

// entry is one cached response.
type entry struct {
	key  Key
	gens []int64
	val  any
	size int64
}

// entryOverhead is the accounting floor per entry (key, gens, list and map
// bookkeeping), so even tiny values cannot make the entry count outrun the
// byte budget's intent.
const entryOverhead = 128

// Cache is a bounded, generation-validated LRU result cache. All methods
// are safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	lru        *list.List // front = most recently used; values are *entry
	index      map[Key]*list.Element
	bytes      int64

	hits, misses, invalidations, evictions, skipped uint64
	negPuts, admDeferred                            uint64

	// Filter-heavy admission doorkeeper: first-sighting timestamps (unix
	// nanos) keyed by fingerprint, consulted by PutWithPolicy. nowFn is
	// injectable so tests can drive TTL expiry deterministically.
	seen  map[Key]int64
	nowFn func() int64

	fmu     sync.Mutex
	flights map[Key]*flight
}

// admissionTTL is the doorkeeper window: a filter-heavy key is
// admitted only when re-seen within this long of its first sighting.
const admissionTTL = time.Minute

// admissionMaxTracked bounds the doorkeeper's memory: past it, expired
// sightings are pruned and, if still full, the tracker resets (losing
// pending first-sightings is safe — it only defers admission again).
const admissionMaxTracked = 4096

// PutPolicy carries one response's admission inputs (see PutWithPolicy).
type PutPolicy struct {
	// FilterHeavy marks a response to a query with a large filter set —
	// subject to the second-occurrence doorkeeper.
	FilterHeavy bool
	// Negative marks an empty response (zero results). Negative responses
	// bypass the doorkeeper: caching them is nearly free and the queries
	// they answer are often repeated verbatim (UI polling an empty state).
	Negative bool
}

// flight is one in-progress singleflight computation.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New returns a cache bounded by maxEntries and maxBytes (non-positive
// values pick the defaults of 1024 entries and 8 MiB).
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 8 << 20
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		lru:        list.New(),
		index:      make(map[Key]*list.Element),
		seen:       make(map[Key]int64),
		nowFn:      func() int64 { return time.Now().UnixNano() },
		flights:    make(map[Key]*flight),
	}
}

// SetClock injects the doorkeeper's time source (tests only; nil restores
// the wall clock).
func (c *Cache) SetClock(now func() int64) {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	c.mu.Lock()
	c.nowFn = now
	c.mu.Unlock()
}

// GensEqual reports whether two generation vectors are element-wise equal
// (also exposed for the caller-side singleflight revalidation protocol).
func GensEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Get looks up key and validates the stored entry against gens, recording
// the outcome in the stats. On Hit the cached value is returned; on Stale
// the (outdated) value and its recorded generations are returned so the
// caller may reuse the positions that still match. Callers must not mutate
// the returned value or generation slice.
func (c *Cache) Get(key Key, gens []int64) (any, []int64, Outcome) {
	return c.lookup(key, gens, true)
}

// Lookup is Get without the stats accounting — used to re-validate inside
// a singleflight computation whose caller already recorded the first
// outcome.
func (c *Cache) Lookup(key Key, gens []int64) (any, []int64, Outcome) {
	return c.lookup(key, gens, false)
}

func (c *Cache) lookup(key Key, gens []int64, count bool) (any, []int64, Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		if count {
			c.misses++
		}
		return nil, nil, Miss
	}
	e := el.Value.(*entry)
	c.lru.MoveToFront(el)
	if GensEqual(e.gens, gens) {
		if count {
			c.hits++
		}
		return e.val, e.gens, Hit
	}
	if count {
		c.invalidations++
	}
	return e.val, e.gens, Stale
}

// Put stores val under key, recording the generations it was computed
// against. size is the caller's estimate of the value's memory footprint;
// the cache adds a fixed bookkeeping overhead. An existing entry under the
// same key is replaced. Values too large for the whole byte budget are not
// cached (and evict any previous entry under the key, which they supersede).
func (c *Cache) Put(key Key, gens []int64, val any, size int64) {
	if size < 0 {
		size = 0
	}
	size += entryOverhead
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.maxBytes {
		if el, ok := c.index[key]; ok {
			c.remove(el, false)
		}
		return
	}
	gcopy := append([]int64(nil), gens...)
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry)
		c.bytes += size - e.size
		e.gens, e.val, e.size = gcopy, val, size
		c.lru.MoveToFront(el)
	} else {
		c.index[key] = c.lru.PushFront(&entry{key: key, gens: gcopy, val: val, size: size})
		c.bytes += size
	}
	for (c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.lru.Len() > 1 {
		c.remove(c.lru.Back(), true)
	}
}

// PutWithPolicy is Put gated by the admission policy: a filter-heavy,
// non-negative response is cached only when its key was already seen within
// the admission TTL (the doorkeeper's second-occurrence rule) or is
// refreshing an existing entry. Negative responses always store — including
// filter-heavy ones — and are validated on lookup exactly like any entry,
// so a data-generation bump invalidates a cached empty result the same as
// a populated one.
func (c *Cache) PutWithPolicy(key Key, gens []int64, val any, size int64, pol PutPolicy) {
	if pol.FilterHeavy && !pol.Negative && !c.admit(key) {
		return
	}
	if pol.Negative {
		c.mu.Lock()
		c.negPuts++
		c.mu.Unlock()
	}
	c.Put(key, gens, val, size)
}

// admit runs the doorkeeper: true when key may enter the cache now.
func (c *Cache) admit(key Key) bool {
	now := c.nowFn()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.index[key]; ok {
		// Refreshing (or re-stamping) an entry that paid admission once.
		return true
	}
	const ttl = int64(admissionTTL)
	if t, ok := c.seen[key]; ok && now-t <= ttl {
		delete(c.seen, key)
		return true
	}
	if len(c.seen) >= admissionMaxTracked {
		for k, t := range c.seen {
			if now-t > ttl {
				delete(c.seen, k)
			}
		}
		if len(c.seen) >= admissionMaxTracked {
			c.seen = make(map[Key]int64)
		}
	}
	c.seen[key] = now
	c.admDeferred++
	return false
}

// remove unlinks el; evicted=true counts it against the eviction stat.
func (c *Cache) remove(el *list.Element, evicted bool) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.index, e.key)
	c.bytes -= e.size
	if evicted {
		c.evictions++
	}
}

// Clear drops every entry (cumulative counters are kept) — the result-cache
// half of DropCaches, so cold-start benchmarks measure true cold paths.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.index = make(map[Key]*list.Element)
	c.bytes = 0
}

// NoteSkipped records n per-shard scans avoided by partial reuse.
func (c *Cache) NoteSkipped(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.skipped += uint64(n)
	c.mu.Unlock()
}

// Stats returns a snapshot of the counters and current contents.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:              c.hits,
		Misses:            c.misses,
		Invalidations:     c.invalidations,
		Evictions:         c.evictions,
		SkippedScans:      c.skipped,
		NegativePuts:      c.negPuts,
		AdmissionDeferred: c.admDeferred,
		Entries:           c.lru.Len(),
		Bytes:             c.bytes,
	}
}

// Do coalesces concurrent computations of the same key: the first caller
// runs compute while later callers block and receive the first caller's
// value and error, with shared=true. compute is responsible for any Put;
// Do itself never touches the entry table. The shared value must be
// treated as immutable by every caller (clone before handing it out).
//
// Correctness note: a shared value was computed at the FLIGHT's snapshot,
// which may predate a joiner's call — a joiner that already observed a
// newer generation (e.g. its own committed write) must not serve it
// blindly. Callers receiving shared=true therefore re-validate the
// value's recorded generations against their own and recompute on
// mismatch; the micronn layer encodes that protocol in query. For
// the same reason, snapshot reads pinned to an older horizon never join a
// flight at all and rely on generation validation alone.
func (c *Cache) Do(key Key, compute func() (any, error)) (val any, shared bool, err error) {
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()
	defer func() {
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()
	f.val, f.err = compute()
	return f.val, false, f.err
}
