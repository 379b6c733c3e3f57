package rescache

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micronn/internal/reldb"
	"micronn/internal/stats"
)

func keyN(n int) Key {
	return KeyOf(Request{Kind: KindSearch, K: n, Vectors: [][]float32{{float32(n)}}})
}

func TestGetPutOutcomes(t *testing.T) {
	c := New(8, 1<<20)
	k := keyN(1)
	if v, _, out := c.Get(k, []uint64{3}); out != Miss || v != nil {
		t.Fatalf("empty cache: got %v, %v; want Miss", v, out)
	}
	c.Put(k, []uint64{3}, "resp-a", 100)
	if v, _, out := c.Get(k, []uint64{3}); out != Hit || v != "resp-a" {
		t.Fatalf("after Put: got %v, %v; want Hit resp-a", v, out)
	}
	// The data moved: same entry must come back Stale with its recorded
	// generations, and count as an invalidation.
	if v, gens, out := c.Get(k, []uint64{4}); out != Stale || v != "resp-a" || gens[0] != 3 {
		t.Fatalf("stale lookup: got %v, %v, %v; want Stale resp-a [3]", v, gens, out)
	}
	// Mismatched generation-vector length (different shard count) is stale,
	// never a false hit.
	if _, _, out := c.Get(k, []uint64{3, 3}); out != Stale {
		t.Fatalf("length-mismatched gens: got %v; want Stale", out)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Invalidations != 2 {
		t.Fatalf("stats = %+v; want 1 hit, 1 miss, 2 invalidations", st)
	}
	// Replacing under the same key updates generations and value.
	c.Put(k, []uint64{4}, "resp-b", 100)
	if v, _, out := c.Get(k, []uint64{4}); out != Hit || v != "resp-b" {
		t.Fatalf("after replace: got %v, %v; want Hit resp-b", v, out)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("replace must not grow the cache: %d entries", st.Entries)
	}
}

func TestLRUEntryBound(t *testing.T) {
	c := New(3, 1<<20)
	for i := 0; i < 4; i++ {
		c.Put(keyN(i), []uint64{1}, i, 10)
	}
	// 0 is the least recently used: evicted.
	if _, _, out := c.Get(keyN(0), []uint64{1}); out != Miss {
		t.Fatalf("oldest entry should be evicted, got %v", out)
	}
	for i := 1; i < 4; i++ {
		if _, _, out := c.Get(keyN(i), []uint64{1}); out != Hit {
			t.Fatalf("entry %d should survive, got %v", i, out)
		}
	}
	// Touching 1 makes 2 the eviction victim.
	c.Get(keyN(1), []uint64{1})
	c.Put(keyN(9), []uint64{1}, 9, 10)
	if _, _, out := c.Get(keyN(1), []uint64{1}); out != Hit {
		t.Fatal("recently used entry evicted")
	}
	if _, _, out := c.Get(keyN(2), []uint64{1}); out != Miss {
		t.Fatal("LRU victim survived")
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 3 {
		t.Fatalf("stats = %+v; want 2 evictions, 3 entries", st)
	}
}

func TestByteBound(t *testing.T) {
	c := New(1024, 4*(1000+entryOverhead))
	for i := 0; i < 6; i++ {
		c.Put(keyN(i), []uint64{1}, i, 1000)
	}
	st := c.Stats()
	if st.Entries != 4 {
		t.Fatalf("byte budget admits 4 entries, have %d", st.Entries)
	}
	if st.Bytes > 4*(1000+entryOverhead) {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	// An entry bigger than the whole budget is refused and drops any
	// previous entry under its key (which it supersedes).
	k := keyN(0)
	c.Put(k, []uint64{1}, "small", 10)
	c.Put(k, []uint64{1}, "huge", 1<<30)
	if _, _, out := c.Get(k, []uint64{1}); out != Miss {
		t.Fatalf("oversized Put must leave no entry, got %v", out)
	}
}

func TestClearKeepsCounters(t *testing.T) {
	c := New(8, 1<<20)
	c.Put(keyN(1), []uint64{1}, "v", 10)
	c.Get(keyN(1), []uint64{1})
	c.Clear()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("Clear left %d entries, %d bytes", st.Entries, st.Bytes)
	}
	if st.Hits != 1 {
		t.Fatalf("Clear must keep cumulative counters, hits = %d", st.Hits)
	}
	if _, _, out := c.Get(keyN(1), []uint64{1}); out != Miss {
		t.Fatal("entry survived Clear")
	}
}

func TestSingleflight(t *testing.T) {
	c := New(8, 1<<20)
	k := keyN(7)
	started := make(chan struct{})
	gate := make(chan struct{})
	var leaderVal any
	var leaderShared bool
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		leaderVal, leaderShared, _ = c.Do(k, func() (any, error) {
			close(started) // leader is inside compute, flight registered
			<-gate
			return "shared", nil
		})
	}()
	<-started

	// Followers arrive while the leader's flight is in progress: none of
	// their computes may run; all must receive the leader's value.
	var followerComputes atomic.Int64
	const followers = 15
	var wg sync.WaitGroup
	results := make([]any, followers)
	sharedFlags := make([]bool, followers)
	for g := 0; g < followers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, shared, err := c.Do(k, func() (any, error) {
				followerComputes.Add(1)
				return "follower", nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
			sharedFlags[g] = shared
		}(g)
	}
	// Release the leader only after every follower has had ample time to
	// reach Do and block on the flight.
	time.Sleep(250 * time.Millisecond)
	close(gate)
	wg.Wait()
	<-leaderDone
	if leaderVal != "shared" {
		t.Fatalf("leader got %v", leaderVal)
	}
	if leaderShared {
		t.Fatal("leader reported shared=true; it computed itself")
	}
	if n := followerComputes.Load(); n != 0 {
		t.Fatalf("%d follower computes ran; want full coalescing", n)
	}
	for g, v := range results {
		if v != "shared" {
			t.Fatalf("follower %d got %v", g, v)
		}
		// The shared flag is what tells a joiner to revalidate the value
		// against its own generations (read-your-writes under coalescing).
		if !sharedFlags[g] {
			t.Fatalf("follower %d reported shared=false", g)
		}
	}
	// Different keys must not coalesce.
	var independent atomic.Int64
	var wg2 sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg2.Add(1)
		go func(g int) {
			defer wg2.Done()
			_, _, _ = c.Do(keyN(100+g), func() (any, error) {
				independent.Add(1)
				return nil, nil
			})
		}(g)
	}
	wg2.Wait()
	if independent.Load() != 4 {
		t.Fatalf("independent keys coalesced: %d computes", independent.Load())
	}
}

func TestDoErrorShared(t *testing.T) {
	c := New(8, 1<<20)
	wantErr := fmt.Errorf("boom")
	_, _, err := c.Do(keyN(1), func() (any, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v; want boom", err)
	}
	// The flight is gone afterwards; the next Do computes afresh.
	v, shared, err := c.Do(keyN(1), func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" || shared {
		t.Fatalf("post-error Do = %v, shared=%v, %v", v, shared, err)
	}
}

// --- key canonicalization ---

func pred(col string, op reldb.Op, v reldb.Value) reldb.Predicate {
	return reldb.Predicate{Column: col, Op: op, Value: v}
}

func TestKeyFilterCanonicalization(t *testing.T) {
	base := Request{
		Kind: KindSearch, K: 10, NProbe: 8,
		Vectors: [][]float32{{1, 2, 3}},
		Filters: []stats.Filter{
			{AnyOf: []reldb.Predicate{pred("a", reldb.OpEq, reldb.I(1)), pred("b", reldb.OpGt, reldb.F(2))}},
			{AnyOf: []reldb.Predicate{pred("c", reldb.OpMatch, reldb.S("dog park"))}},
		},
	}
	want := KeyOf(base)

	// Permuted conjunction.
	perm := base
	perm.Filters = []stats.Filter{base.Filters[1], base.Filters[0]}
	if KeyOf(perm) != want {
		t.Fatal("filter order changed the key")
	}
	// Permuted disjunction.
	perm2 := base
	perm2.Filters = []stats.Filter{
		{AnyOf: []reldb.Predicate{pred("b", reldb.OpGt, reldb.F(2)), pred("a", reldb.OpEq, reldb.I(1))}},
		base.Filters[1],
	}
	if KeyOf(perm2) != want {
		t.Fatal("predicate order changed the key")
	}
	// Duplicated filter and duplicated predicate (conjunction and
	// disjunction are both idempotent).
	dup := base
	dup.Filters = append(append([]stats.Filter{}, base.Filters...), base.Filters[0])
	dup.Filters[0] = stats.Filter{AnyOf: append(append([]reldb.Predicate{}, base.Filters[0].AnyOf...), base.Filters[0].AnyOf[0])}
	if KeyOf(dup) != want {
		t.Fatal("duplication changed the key")
	}
	// A genuinely different filter must not collide.
	diff := base
	diff.Filters = []stats.Filter{base.Filters[0]}
	if KeyOf(diff) == want {
		t.Fatal("dropping a filter kept the key")
	}
}

func TestKeyFloatCanonicalization(t *testing.T) {
	nan1 := math.Float32frombits(0x7fc00001)
	nan2 := math.Float32frombits(0xffc12345)
	a := KeyOf(Request{Kind: KindSearch, K: 10, Vectors: [][]float32{{nan1, float32(math.Copysign(0, -1)), 5}}})
	b := KeyOf(Request{Kind: KindSearch, K: 10, Vectors: [][]float32{{nan2, 0, 5}}})
	if a != b {
		t.Fatal("NaN payload or zero sign changed the key")
	}
	// Predicate operands too.
	pa := KeyOf(Request{Kind: KindSearch, K: 10, Filters: []stats.Filter{{AnyOf: []reldb.Predicate{pred("x", reldb.OpLt, reldb.F(math.NaN()))}}}})
	pb := KeyOf(Request{Kind: KindSearch, K: 10, Filters: []stats.Filter{{AnyOf: []reldb.Predicate{pred("x", reldb.OpLt, reldb.F(math.Float64frombits(0xfff8000000000001)))}}}})
	if pa != pb {
		t.Fatal("predicate NaN payload changed the key")
	}
	if KeyOf(Request{Kind: KindSearch, K: 10, Vectors: [][]float32{{1}}}) ==
		KeyOf(Request{Kind: KindSearch, K: 10, Vectors: [][]float32{{2}}}) {
		t.Fatal("different vectors collided")
	}
}

func TestKeyParameterSensitivity(t *testing.T) {
	base := Request{Kind: KindSearch, K: 10, NProbe: 8, Vectors: [][]float32{{1, 2}}}
	want := KeyOf(base)
	for name, alter := range map[string]func(*Request){
		"K":      func(r *Request) { r.K = 20 },
		"NProbe": func(r *Request) { r.NProbe = 16 },
		"Rerank": func(r *Request) { r.RerankFactor = 8 },
		"Plan":   func(r *Request) { r.Plan = 2 },
		"Exact":  func(r *Request) { r.Exact = true },
		"Kind":   func(r *Request) { r.Kind = KindBatch },
	} {
		r := base
		r.Vectors = [][]float32{{1, 2}}
		alter(&r)
		if KeyOf(r) == want {
			t.Fatalf("changing %s kept the key", name)
		}
	}
	// Batch vector order is significant (results are positional).
	b1 := KeyOf(Request{Kind: KindBatch, K: 10, Vectors: [][]float32{{1}, {2}}})
	b2 := KeyOf(Request{Kind: KindBatch, K: 10, Vectors: [][]float32{{2}, {1}}})
	if b1 == b2 {
		t.Fatal("batch vector order did not change the key")
	}
}

func TestKeyInjectiveFraming(t *testing.T) {
	// Length prefixes keep adjacent fields from bleeding into each other:
	// two filters ("ab"), ("c") vs ("a"), ("bc").
	f := func(cols ...string) []stats.Filter {
		fs := make([]stats.Filter, len(cols))
		for i, c := range cols {
			fs[i] = stats.Filter{AnyOf: []reldb.Predicate{pred(c, reldb.OpEq, reldb.I(1))}}
		}
		return fs
	}
	a := KeyOf(Request{Kind: KindSearch, K: 1, Filters: f("ab", "c")})
	b := KeyOf(Request{Kind: KindSearch, K: 1, Filters: f("a", "bc")})
	if a == b {
		t.Fatal("filter framing is ambiguous")
	}
	// Vector framing: [1,2],[3] vs [1],[2,3].
	v1 := KeyOf(Request{Kind: KindBatch, K: 1, Vectors: [][]float32{{1, 2}, {3}}})
	v2 := KeyOf(Request{Kind: KindBatch, K: 1, Vectors: [][]float32{{1}, {2, 3}}})
	if v1 == v2 {
		t.Fatal("vector framing is ambiguous")
	}
}
