package main

import (
	"fmt"

	"micronn"
)

// checkResults returns "" when a search response is well formed: it holds
// min(k, matches) results, distances never decrease, every id is live, and
// every id satisfies the query's filters when keep is non-nil.
func checkResults(rs []micronn.Result, k, matches int, live, keep func(id string) bool) string {
	if want := min(k, matches); len(rs) != want {
		return fmt.Sprintf("got %d results, want %d", len(rs), want)
	}
	for i, r := range rs {
		if i > 0 && r.Distance < rs[i-1].Distance {
			return fmt.Sprintf("distance decreases at rank %d", i)
		}
		if !live(r.ID) {
			return fmt.Sprintf("result %q is not a live id", r.ID)
		}
		if keep != nil && !keep(r.ID) {
			return fmt.Sprintf("result %q fails the query's filters", r.ID)
		}
	}
	return ""
}

// sameResults returns "" when a and b list the same ids at the same
// distances in the same order.
func sameResults(a []micronn.Result, b []micronn.HybridResult) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d results against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Distance != b[i].Distance {
			return fmt.Sprintf("rank %d differs: %s/%v against %s/%v", i, a[i].ID, a[i].Distance, b[i].ID, b[i].Distance)
		}
	}
	return ""
}

func ids(rs []micronn.Result) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}
