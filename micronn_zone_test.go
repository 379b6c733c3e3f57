package micronn

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"micronn/internal/storage"
)

// zoneStore is the slice of the DB/ShardedDB surface the zone property
// test drives — both types satisfy it as-is.
type zoneStore interface {
	Upsert(Item) error
	UpsertBatch([]Item) error
	Delete(string) error
	Get(string) (*Item, error)
	Search(SearchRequest) (*SearchResponse, error)
	Rebuild() (*MaintenanceReport, error)
	Stats() (Stats, error)
	Close() error
}

// zoneSealAll drains every shard's delta into a sorted run synchronously,
// so the test controls run layout instead of racing the async sealer.
func zoneSealAll(t *testing.T, shards []*DB) {
	t.Helper()
	for _, sh := range shards {
		if err := sh.store.Update(func(wt *storage.WriteTxn) error {
			_, e := sh.ix.SealDelta(wt)
			return e
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestZonePruningEquivalence is the seeded property test for run-zone
// pruning: across quantization schemes and shard counts, every search
// (filtered and not), Get, and exact query must return byte-identical
// results whether zone pruning is enabled or disabled. Pruning is a pure
// optimization — Blooms have no false negatives, so a skipped run can
// never have held a result.
func TestZonePruningEquivalence(t *testing.T) {
	quants := []struct {
		name string
		q    Quantization
	}{
		{"float32", QuantNone},
		{"sq8", QuantSQ8},
		{"sq4", QuantSQ4},
	}
	for _, qc := range quants {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/shards%d", qc.name, shards), func(t *testing.T) {
				opts := Options{
					Dim: 8, Seed: 7,
					LSMIngest:        true,
					MemtableMaxItems: 1 << 20, // seal manually
					Quantization:     qc.q,
					Attributes: []AttributeDef{
						{Name: "color", Type: AttrText, Indexed: true},
						{Name: "cat", Type: AttrInt, Indexed: true},
						{Name: "note", Type: AttrText}, // unindexed: never prunable
					},
				}
				opts.Backend = BackendMemory
				var db zoneStore
				var perShard []*DB
				if shards == 1 {
					d, err := Open("", opts)
					if err != nil {
						t.Fatal(err)
					}
					db = d
					perShard = []*DB{d}
				} else {
					o := opts
					o.Shards = shards
					s, err := OpenSharded("", o)
					if err != nil {
						t.Fatal(err)
					}
					db = s
					for i := 0; i < s.Shards(); i++ {
						perShard = append(perShard, s.Shard(i))
					}
				}
				defer db.Close()

				rng := rand.New(rand.NewSource(42))
				item := func(id, color string, cat int) Item {
					return Item{
						ID: id, Vector: lsmVec(rng, 8),
						Attributes: map[string]any{
							"color": color, "cat": cat,
							"note": fmt.Sprintf("n%d", rng.Intn(4)),
						},
					}
				}

				// Base load into the partitions.
				base := make([]Item, 90)
				colors := []string{"red", "green", "blue"}
				for i := range base {
					base[i] = item(fmt.Sprintf("a%d", i), colors[i%3], i%5)
				}
				if err := db.UpsertBatch(base); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Rebuild(); err != nil {
					t.Fatal(err)
				}

				// Three sealed waves with disjoint color palettes, so an
				// equality filter from one wave can prune the others' runs.
				palettes := [][]string{
					{"red", "orange"},
					{"green", "teal"},
					{"blue", "violet"},
				}
				for w, pal := range palettes {
					wave := make([]Item, 30)
					for i := range wave {
						wave[i] = item(fmt.Sprintf("w%d_%d", w, i), pal[i%2], 10+w)
					}
					if err := db.UpsertBatch(wave); err != nil {
						t.Fatal(err)
					}
					zoneSealAll(t, perShard)
				}

				// Tombstones and shadows over run-resident rows: pruning
				// must not disturb newest-wins resolution.
				for _, id := range []string{"w0_2", "w1_11", "a7"} {
					if err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				if err := db.Upsert(item("w2_5", "violet", 99)); err != nil {
					t.Fatal(err)
				}

				// The query battery: seeded vectors across unfiltered,
				// single-equality, OR-of-equalities, unindexed-attr,
				// absent-value, and exact queries.
				type query struct {
					req SearchRequest
				}
				qrng := rand.New(rand.NewSource(99))
				var queries []query
				addQ := func(fs []Filter, exact bool, plan PlanType) {
					queries = append(queries, query{SearchRequest{
						Vector: lsmVec(qrng, 8), K: 12, Filters: fs,
						Exact: exact, Plan: plan, NoCache: true,
					}})
				}
				for i := 0; i < 6; i++ {
					addQ(nil, false, PlanAuto)
					addQ([]Filter{Eq("color", "red")}, false, PlanAuto)
					addQ([]Filter{Eq("color", "teal")}, false, PlanAuto)
					addQ([]Filter{Eq("color", "magenta")}, false, PlanAuto) // absent everywhere
					addQ([]Filter{Eq("cat", 10+i%3)}, false, PlanAuto)
					addQ([]Filter{Any(Eq("color", "orange"), Eq("color", "violet"))}, false, PlanAuto)
					addQ([]Filter{Eq("color", "blue"), Eq("cat", 2)}, false, PlanAuto)
					addQ([]Filter{Eq("note", "n1")}, false, PlanAuto) // unindexed: no pruning
					addQ([]Filter{Eq("color", "red")}, true, PlanAuto)
					// Post-filter pins the partition-scan path so run-zone
					// pruning is exercised even where the optimizer would
					// pick pre-filter (e.g. quantized stores).
					addQ([]Filter{Eq("color", "red")}, false, PlanPostFilter)
					addQ([]Filter{Eq("color", "violet")}, false, PlanPostFilter)
					addQ([]Filter{Eq("cat", 11)}, false, PlanPostFilter)
				}
				gets := []string{"a0", "a7", "w0_2", "w1_3", "w2_5", "absent"}

				run := func() ([]*SearchResponse, []*Item, []error) {
					resps := make([]*SearchResponse, len(queries))
					for i, q := range queries {
						r, err := db.Search(q.req)
						if err != nil {
							t.Fatalf("query %d: %v", i, err)
						}
						resps[i] = r
					}
					items := make([]*Item, len(gets))
					errs := make([]error, len(gets))
					for i, id := range gets {
						items[i], errs[i] = db.Get(id)
					}
					return resps, items, errs
				}

				// Pruning is switched per shard at the ivf level.
				setPruning := func(on bool) {
					for _, sh := range perShard {
						sh.InternalIndex().SetZonePruning(on)
					}
				}
				setPruning(true)
				onResps, onItems, onErrs := run()
				stOn, err := db.Stats()
				if err != nil {
					t.Fatal(err)
				}
				setPruning(false)
				offResps, offItems, offErrs := run()

				for i := range queries {
					if !reflect.DeepEqual(onResps[i].Results, offResps[i].Results) {
						t.Fatalf("query %d (filters=%+v exact=%v): pruned results differ\n  on:  %+v\n  off: %+v",
							i, queries[i].req.Filters, queries[i].req.Exact,
							onResps[i].Results, offResps[i].Results)
					}
					if on, off := onResps[i].Plan.VectorsScanned, offResps[i].Plan.VectorsScanned; on > off {
						t.Fatalf("query %d: pruning scanned MORE vectors (%d > %d)", i, on, off)
					}
				}
				for i, id := range gets {
					if (onErrs[i] == nil) != (offErrs[i] == nil) {
						t.Fatalf("get %s: err mismatch on=%v off=%v", id, onErrs[i], offErrs[i])
					}
					if onErrs[i] != nil {
						if !errors.Is(onErrs[i], ErrNotFound) || !errors.Is(offErrs[i], ErrNotFound) {
							t.Fatalf("get %s: unexpected errors on=%v off=%v", id, onErrs[i], offErrs[i])
						}
						continue
					}
					if !reflect.DeepEqual(onItems[i], offItems[i]) {
						t.Fatalf("get %s: items differ\n  on:  %+v\n  off: %+v", id, onItems[i], offItems[i])
					}
				}

				// The disjoint palettes guarantee genuine skips: a "red"
				// equality can never hit the green/teal or blue/violet
				// runs' attribute Blooms (false positives aside, three
				// runs x dozens of queries make all-misses vanishing).
				if stOn.Ingest.ZonePruneChecks == 0 {
					t.Fatal("ZonePruneChecks = 0 after filtered searches over sealed runs")
				}
				if stOn.Ingest.ZonePrunedRuns == 0 {
					t.Fatal("ZonePrunedRuns = 0, want pruned run scans with disjoint palettes")
				}
			})
		}
	}
}
