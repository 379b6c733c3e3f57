package micronn

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"micronn/internal/storage"
	"micronn/internal/workload"
)

// vectorStore is the method surface shared by *DB and *ShardedDB that the
// concurrency battery exercises.
type vectorStore interface {
	Upsert(Item) error
	UpsertBatch([]Item) error
	Search(SearchRequest) (*SearchResponse, error)
	BatchSearch(BatchSearchRequest) (*BatchSearchResponse, error)
	Rebuild() (*MaintenanceReport, error)
	Maintain() (*MaintenanceReport, error)
}

// TestConcurrentSearchDuringMaintenance is the mixed-workload hammer for
// maintenance beside live traffic: Search and BatchSearch run continuously
// while upserts stream into the delta and foreground Maintain passes flush
// and split partitions underneath them. Splits run their k-means on a read
// snapshot and validate the plan when they apply; the test's job (under
// `-race`) is to prove that path sound across the quantization x sharding
// matrix, and that the index still answers accurately once the dust settles.
func TestConcurrentSearchDuringMaintenance(t *testing.T) {
	cases := []struct {
		name   string
		qt     Quantization
		shards int
	}{
		{"float32/single", QuantNone, 0},
		{"float32/sharded", QuantNone, 3},
		{"sq8/single", QuantSQ8, 0},
		{"sq8/sharded", QuantSQ8, 3},
		{"sq4/single", QuantSQ4, 0},
		{"sq4/sharded", QuantSQ4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{
				Dim: shardTestDim, TargetPartitionSize: 20, Seed: 5,
				FlushThreshold: 25, Quantization: tc.qt,
			}
			if tc.qt != QuantNone {
				opts.RerankFactor = 10
			}
			var db vectorStore
			var checkInv func() error
			if tc.shards > 0 {
				o := opts
				o.Shards = tc.shards
				sdb := openShardedTest(t, filepath.Join(t.TempDir(), "hammer.d"), o)
				db, checkInv = sdb, sdb.CheckInvariants
			} else {
				d := openTest(t, opts)
				db = d
				checkInv = func() error {
					return d.InternalStore().View(func(rt *storage.ReadTxn) error {
						return d.InternalIndex().CheckInvariants(rt)
					})
				}
			}

			vecs := clusteredVecs(5, 700, shardTestDim, 10)
			items := make([]Item, 400)
			for i := range items {
				items[i] = Item{ID: fmt.Sprintf("v%04d", i), Vector: vecs[i]}
			}
			if err := db.UpsertBatch(items); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Rebuild(); err != nil {
				t.Fatal(err)
			}

			queries := clusteredVecs(6, 20, shardTestDim, 10)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			writerDone := make(chan struct{})
			errCh := make(chan error, 4)
			fail := func(err error) {
				select {
				case errCh <- err:
				default:
				}
			}

			for s := 0; s < 2; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						req := SearchRequest{Vector: queries[(i+s)%len(queries)], K: 10, NProbe: 8}
						if _, err := db.Search(req); err != nil {
							fail(fmt.Errorf("searcher %d: %w", s, err))
							return
						}
					}
				}(s)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					breq := BatchSearchRequest{Vectors: queries[:8], K: 10, NProbe: 8}
					if _, err := db.BatchSearch(breq); err != nil {
						fail(fmt.Errorf("batch searcher: %w", err))
						return
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(writerDone)
				for i := 400; i < 700; i++ {
					if err := db.Upsert(Item{ID: fmt.Sprintf("v%04d", i), Vector: vecs[i]}); err != nil {
						fail(fmt.Errorf("upsert %d: %w", i, err))
						return
					}
				}
			}()

			// Foreground maintenance runs against the live read/write
			// traffic until the writer drains, then one last pass quiesces
			// the backlog.
			splits := 0
			maintain := func() {
				rep, err := db.Maintain()
				if err != nil {
					fail(fmt.Errorf("maintain: %w", err))
					return
				}
				splits += rep.Splits
			}
		loop:
			for {
				select {
				case <-writerDone:
					break loop
				default:
				}
				maintain()
			}
			maintain()
			close(stop)
			wg.Wait()
			select {
			case err := <-errCh:
				t.Fatal(err)
			default:
			}
			if splits == 0 {
				t.Error("no splits executed during the hammer; the test exercised nothing")
			}

			if err := checkInv(); err != nil {
				t.Fatal(err)
			}

			// Recall parity after quiesce: the concurrently-maintained index
			// must still find its neighbours.
			if recall := meanRecall(t, db, queries, 16); recall < 0.8 {
				t.Errorf("recall@10 = %.3f after concurrent maintenance, want >= 0.8", recall)
			}
		})
	}
}

// internalAVectors generates the InternalA-shaped workload (512-d cosine
// Gaussian mixture) at the given scale: corpus rows and query vectors.
func internalAVectors(t *testing.T, scale float64) (spec workload.Spec, rows, queries [][]float32) {
	t.Helper()
	spec, err := workload.ByName("InternalA")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(scale)
	ds := spec.Generate()
	for i := 0; i < ds.Train.Rows; i++ {
		rows = append(rows, ds.Train.Row(i))
	}
	for i := 0; i < ds.Queries.Rows; i++ {
		queries = append(queries, ds.Queries.Row(i))
	}
	return spec, rows, queries
}

// meanRecall is recall@10 at nprobe against exact search on the store's
// current state, averaged over queries.
func meanRecall(t *testing.T, db vectorStore, queries [][]float32, nprobe int) float64 {
	t.Helper()
	var recall float64
	for _, q := range queries {
		exact, err := db.Search(SearchRequest{Vector: q, K: 10, Exact: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Search(SearchRequest{Vector: q, K: 10, NProbe: nprobe})
		if err != nil {
			t.Fatal(err)
		}
		recall += recallAgainst(exact.Results, got.Results)
	}
	return recall / float64(len(queries))
}

// backgroundSearcher searches in a loop until the returned stop is called;
// stop returns how many searches completed and fails the test if one
// errored.
func backgroundSearcher(t *testing.T, db vectorStore, queries [][]float32) (stop func() int) {
	quit := make(chan struct{})
	done := make(chan error, 1)
	var searches int
	go func() {
		for i := 0; ; i++ {
			select {
			case <-quit:
				done <- nil
				return
			default:
			}
			if _, err := db.Search(SearchRequest{Vector: queries[i%len(queries)], K: 10, NProbe: 8}); err != nil {
				done <- err
				return
			}
			searches++
		}
	}()
	return func() int {
		t.Helper()
		close(quit)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return searches
	}
}

// TestSplitStormKeepsRecall builds an index over half an InternalA-shaped
// corpus, then streams the other half in chunks, each followed by a
// foreground Maintain that flushes the delta and splits oversized
// partitions, while a searcher queries throughout. The window must overlap
// real splits, and recall@10 on the quiesced index must stay within 2
// points of the idle index's.
func TestSplitStormKeepsRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("split storm over a 512-d corpus")
	}
	spec, rows, queries := internalAVectors(t, 0.002)
	db := openTest(t, Options{Dim: spec.Dim, Metric: spec.Metric, Seed: spec.Seed, TargetPartitionSize: 100})
	insert := func(lo, hi int) {
		t.Helper()
		items := make([]Item, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, Item{ID: fmt.Sprintf("a%05d", i), Vector: rows[i]})
		}
		if err := db.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	bootstrap := len(rows) / 2
	insert(0, bootstrap)
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	idleRecall := meanRecall(t, db, queries, 8)
	before, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}

	stop := backgroundSearcher(t, db, queries)
	for lo := bootstrap; lo < len(rows); lo += 100 {
		insert(lo, min(lo+100, len(rows)))
		if _, err := db.Maintain(); err != nil {
			t.Fatal(err)
		}
	}
	searches := stop()
	if _, err := db.Maintain(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	splits := after.Maintenance.Splits - before.Maintenance.Splits
	recall := meanRecall(t, db, queries, 8)
	t.Logf("%d searches during %d splits; recall@10 idle %.4f, after %.4f", searches, splits, idleRecall, recall)
	if splits == 0 {
		t.Error("the split storm executed no splits")
	}
	if math.Abs(recall-idleRecall) > 0.02 {
		t.Errorf("recall@10 %.4f after the split storm, more than 2 points from idle %.4f", recall, idleRecall)
	}
}

// TestCloseDuringActiveMaintenance closes the database while the background
// maintainer is mid-pass — with a delta backlog and oversized partitions it
// is flushing and splitting when Close lands. Close must wait for the
// in-flight step (the store never closes under a live transaction) and the
// next maintainer step must observe ErrClosed, not a storage-layer error.
func TestCloseDuringActiveMaintenance(t *testing.T) {
	for round := 0; round < 3; round++ {
		db, err := Open(filepath.Join(t.TempDir(), "close.mnn"), Options{
			Dim: 8, TargetPartitionSize: 20, Seed: int64(round + 1), FlushThreshold: 20,
			AutoMaintain: true, MaintainInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		seed := randomVecs(int64(round+1), 300, 8)
		items := make([]Item, len(seed))
		for i, v := range seed {
			items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
		}
		if err := db.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Rebuild(); err != nil {
			t.Fatal(err)
		}
		// Pile up delta backlog so the maintainer has flushes and splits in
		// flight, give it a beat to get started, then pull the rug.
		extra := randomVecs(int64(round+100), 150, 8)
		for i, v := range extra {
			if err := db.Upsert(Item{ID: fmt.Sprintf("e%d", i), Vector: v}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Maintain(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Maintain after Close = %v, want ErrClosed", err)
		}
		if _, err := db.Search(SearchRequest{Vector: make([]float32, 8), K: 1}); !errors.Is(err, ErrClosed) {
			t.Fatalf("Search after Close = %v, want ErrClosed", err)
		}
	}
}

// TestStatsRaceWithMaintainer reads telemetry (Stats, MaintenanceTotals)
// concurrently with a background maintainer and a writer. Under `-race`
// this pins down the maintMu audit: every counter access is lock-covered
// and MaintenanceTotals hands out a copy, never the live report.
func TestStatsRaceWithMaintainer(t *testing.T) {
	db := openTest(t, Options{
		Dim: 8, TargetPartitionSize: 20, Seed: 2, FlushThreshold: 20,
		AutoMaintain: true, MaintainInterval: time.Millisecond,
	})
	seed := randomVecs(2, 200, 8)
	items := make([]Item, len(seed))
	for i, v := range seed {
		items[i] = Item{ID: fmt.Sprintf("v%d", i), Vector: v}
	}
	if err := db.UpsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 3)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Stats(); err != nil {
					fail(err)
					return
				}
				// Mutating the returned report must never write through to
				// the maintainer's live state.
				if _, rep := db.MaintenanceTotals(); rep != nil {
					rep.Splits = -1
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		vecs := randomVecs(3, 200, 8)
		for i, v := range vecs {
			if err := db.Upsert(Item{ID: fmt.Sprintf("w%d", i), Vector: v}); err != nil {
				fail(err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if _, rep := db.MaintenanceTotals(); rep != nil && rep.Splits == -1 {
		t.Error("MaintenanceTotals leaked its internal report (reader mutation visible)")
	}
}
