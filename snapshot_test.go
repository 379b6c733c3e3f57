package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestSnapshotPinsState(t *testing.T) {
	db := openTest(t, Options{Dim: 4, TargetPartitionSize: 10, Seed: 9})
	if err := db.Upsert(Item{ID: "v0", Vector: []float32{1, 0, 0, 0}}); err != nil {
		t.Fatal(err)
	}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	// Mutate heavily after the snapshot: insert, delete, rebuild.
	for i := 1; i <= 50; i++ {
		if err := db.Upsert(Item{ID: fmt.Sprintf("v%d", i), Vector: []float32{float32(i), 0, 0, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete("v0"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	// The snapshot still sees exactly one vector: the deleted v0.
	resp, err := snap.Search(SearchRequest{Vector: []float32{1, 0, 0, 0}, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != "v0" {
		t.Errorf("snapshot search = %+v, want only v0", resp.Results)
	}
	item, err := snap.Get("v0")
	if err != nil {
		t.Fatalf("snapshot Get(v0): %v", err)
	}
	if item.Vector[0] != 1 {
		t.Errorf("snapshot vector = %v", item.Vector)
	}
	st, err := snap.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumVectors != 1 {
		t.Errorf("snapshot NumVectors = %d, want 1", st.NumVectors)
	}

	// Batch search through the snapshot agrees.
	bresp, err := snap.BatchSearch(BatchSearchRequest{Vectors: [][]float32{{1, 0, 0, 0}}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results[0]) != 1 || bresp.Results[0][0].ID != "v0" {
		t.Errorf("snapshot batch = %+v", bresp.Results)
	}

	// Live view sees the new world.
	live, err := db.Search(SearchRequest{Vector: []float32{1, 0, 0, 0}, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Results) != 50 {
		t.Errorf("live search = %d results, want 50", len(live.Results))
	}
	for _, r := range live.Results {
		if r.ID == "v0" {
			t.Error("deleted v0 visible in live search")
		}
	}
}

func TestSnapshotAfterCloseIsUnusable(t *testing.T) {
	db := openTest(t, Options{Dim: 4})
	if err := db.Upsert(Item{ID: "a", Vector: []float32{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	snap.Close() // idempotent
	if _, err := snap.Search(SearchRequest{Vector: []float32{1, 2, 3, 4}, K: 1}); err == nil {
		t.Error("search on closed snapshot should fail")
	}
}

func TestSnapshotGetMissing(t *testing.T) {
	db := openTest(t, Options{Dim: 4})
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if _, err := snap.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v", err)
	}
}

// TestSnapshotStatsAvgPartitionSize: delta rows are not partition rows, so
// with a non-empty delta a snapshot reports the same AvgPartitionSize as
// the live Stats, on a single store and a sharded one.
func TestSnapshotStatsAvgPartitionSize(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			opts := Options{Dim: 8, TargetPartitionSize: 10, Seed: 5}
			var db Store
			if shards == 1 {
				db = openTest(t, opts)
			} else {
				opts.Shards = shards
				db = openShardedTest(t, filepath.Join(t.TempDir(), "avg.d"), opts)
			}
			rng := rand.New(rand.NewSource(3))
			items := make([]Item, 200)
			for i := range items {
				items[i] = Item{ID: fmt.Sprintf("b%03d", i), Vector: lsmVec(rng, 8)}
			}
			if err := db.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Rebuild(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 60; i++ {
				if err := db.Upsert(Item{ID: fmt.Sprintf("r%03d", i), Vector: lsmVec(rng, 8)}); err != nil {
					t.Fatal(err)
				}
			}

			live, err := db.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if live.NumPartitions == 0 || live.DeltaCount != 60 {
				t.Fatalf("want partitions and 60 delta rows: %d partitions, %d delta", live.NumPartitions, live.DeltaCount)
			}
			snap, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			st, err := snap.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.DeltaCount != live.DeltaCount {
				t.Fatalf("snapshot DeltaCount = %d, live %d", st.DeltaCount, live.DeltaCount)
			}
			if st.AvgPartitionSize != live.AvgPartitionSize {
				t.Fatalf("snapshot AvgPartitionSize = %v, live %v", st.AvgPartitionSize, live.AvgPartitionSize)
			}
		})
	}
}
