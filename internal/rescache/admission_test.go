package rescache

import (
	"testing"
	"time"
)

// TestAdmissionDoorkeeper covers the filter-heavy TTL doorkeeper: a
// filter-heavy entry is stored only on its second sighting inside the
// admission TTL, a sighting past the TTL starts the count over, and
// negative entries bypass the doorkeeper entirely.
func TestAdmissionDoorkeeper(t *testing.T) {
	c := New(8, 1<<20)
	var now int64
	c.SetClock(func() int64 { return now })

	k := keyN(1)
	heavy := PutPolicy{FilterHeavy: true}

	c.PutWithPolicy(k, []int64{1}, "a", 100, heavy)
	if _, _, out := c.Get(k, []int64{1}); out != Miss {
		t.Fatalf("first filter-heavy put must be deferred, got %v", out)
	}
	if st := c.Stats(); st.AdmissionDeferred != 1 || st.Entries != 0 {
		t.Fatalf("after first put: %+v; want 1 deferred, 0 entries", st)
	}

	// Second sighting within the TTL: admitted.
	now += int64(30 * time.Second)
	c.PutWithPolicy(k, []int64{1}, "a", 100, heavy)
	if v, _, out := c.Get(k, []int64{1}); out != Hit || v != "a" {
		t.Fatalf("second sighting not admitted: %v, %v", v, out)
	}

	// Once resident, refreshes skip the doorkeeper — a generation bump
	// must not evict-and-defer.
	c.PutWithPolicy(k, []int64{2}, "a2", 100, heavy)
	if v, _, out := c.Get(k, []int64{2}); out != Hit || v != "a2" {
		t.Fatalf("refresh of resident entry deferred: %v, %v", v, out)
	}

	// A sighting whose predecessor fell outside the TTL starts over.
	k2 := keyN(2)
	c.PutWithPolicy(k2, []int64{1}, "b", 100, heavy)
	now += int64(2 * time.Minute)
	c.PutWithPolicy(k2, []int64{1}, "b", 100, heavy)
	if _, _, out := c.Get(k2, []int64{1}); out != Miss {
		t.Fatalf("expired sighting must not admit, got %v", out)
	}
	if st := c.Stats(); st.AdmissionDeferred != 3 {
		t.Fatalf("AdmissionDeferred = %d, want 3", st.AdmissionDeferred)
	}
	// ...and the re-registered sighting admits the next one.
	now += int64(time.Second)
	c.PutWithPolicy(k2, []int64{1}, "b", 100, heavy)
	if v, _, out := c.Get(k2, []int64{1}); out != Hit || v != "b" {
		t.Fatalf("post-expiry second sighting not admitted: %v, %v", v, out)
	}

	// Negative responses bypass the doorkeeper even when filter-heavy.
	k3 := keyN(3)
	c.PutWithPolicy(k3, []int64{1}, "empty", 50, PutPolicy{FilterHeavy: true, Negative: true})
	if v, _, out := c.Get(k3, []int64{1}); out != Hit || v != "empty" {
		t.Fatalf("negative entry not cached immediately: %v, %v", v, out)
	}
	if st := c.Stats(); st.NegativePuts != 1 {
		t.Fatalf("NegativePuts = %d, want 1", st.NegativePuts)
	}

	// Plain puts are untouched by the doorkeeper.
	k4 := keyN(4)
	c.PutWithPolicy(k4, []int64{1}, "plain", 50, PutPolicy{})
	if _, _, out := c.Get(k4, []int64{1}); out != Hit {
		t.Fatalf("plain policy put not cached, got %v", out)
	}
}

// TestAdmissionTrackerBound checks the doorkeeper's sighting map cannot
// grow without bound: expired sightings are pruned at the cap, and a
// pathological burst inside one TTL resets the map rather than leaking.
func TestAdmissionTrackerBound(t *testing.T) {
	c := New(8, 1<<20)
	var now int64
	c.SetClock(func() int64 { return now })

	heavy := PutPolicy{FilterHeavy: true}
	for i := 0; i < admissionMaxTracked+64; i++ {
		c.PutWithPolicy(keyN(i), []int64{1}, i, 10, heavy)
	}
	c.mu.Lock()
	n := len(c.seen)
	c.mu.Unlock()
	if n > admissionMaxTracked {
		t.Fatalf("tracker grew to %d, cap is %d", n, admissionMaxTracked)
	}

	// After the TTL passes, a new wave prunes the stale sightings instead
	// of resetting live ones.
	now += int64(2 * time.Minute)
	c.PutWithPolicy(keyN(0), []int64{1}, 0, 10, heavy)
	c.mu.Lock()
	n = len(c.seen)
	c.mu.Unlock()
	if n > admissionMaxTracked {
		t.Fatalf("tracker holds %d after prune, cap is %d", n, admissionMaxTracked)
	}
}
