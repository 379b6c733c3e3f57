package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"micronn"
	"micronn/internal/workload"
)

// Shards measures scatter-gather search under a sustained upsert stream at
// 1/2/4/8 shards against the single-store baseline. Every variant streams
// the same inserts with auto-maintain running (per shard, for the sharded
// variants) while a searcher goroutine times every query and sums its
// scanned bytes; afterwards recall@10 is measured against exact search on
// the final state. The table reports p50/p99 latency, scanned KiB per
// query and recall; the verdicts check recall parity within 1 point at
// every shard count, and a NOTE reports the 4-shard p99 against the single
// store under the write storm.
func Shards(cfg Config) error {
	cfg.fill()
	cfg.header("Sharding: scatter-gather search during sustained upserts")

	spec, err := workload.ByName("InternalA")
	if err != nil {
		return err
	}
	spec = spec.Scaled(cfg.Scale)
	ds := spec.Generate()
	n := ds.Train.Rows
	bootstrap := n / 2

	type outcome struct {
		name      string
		streamDur time.Duration
		lat       latencyStats
		bytesPerQ float64
		recall    float64
		parts     int64
	}
	var outcomes []outcome

	variants := []int{0, 1, 2, 4, 8} // 0 = single-store baseline
	for _, shards := range variants {
		name := "single-store"
		if shards > 0 {
			name = fmt.Sprintf("%d-shard", shards)
		}
		opts := micronn.Options{
			Dim:                 spec.Dim,
			Metric:              spec.Metric,
			TargetPartitionSize: 100,
			Seed:                spec.Seed,
			AutoMaintain:        true,
			MaintainInterval:    10 * time.Millisecond,
			Shards:              shards,
		}
		// micronn.Store lets the single-store baseline and every shard
		// count run the identical loop.
		var db micronn.Store
		if shards == 0 {
			path := filepath.Join(cfg.Dir, "shards-single.mnn")
			os.Remove(path)
			os.Remove(path + "-wal")
			os.Remove(path + ".lock")
			db, err = micronn.Open(path, opts)
		} else {
			dir := filepath.Join(cfg.Dir, name+".d")
			os.RemoveAll(dir)
			db, err = micronn.OpenSharded(dir, opts)
		}
		if err != nil {
			return err
		}

		insert := func(lo, hi int) error {
			items := make([]micronn.Item, 0, hi-lo)
			for i := lo; i < hi; i++ {
				items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
			}
			return db.UpsertBatch(items)
		}
		if err := insert(0, bootstrap); err != nil {
			db.Close()
			return err
		}
		if _, err := db.Rebuild(); err != nil {
			db.Close()
			return err
		}

		// Searcher: times every query and sums scanned bytes for the whole
		// insert stream.
		var searches atomic.Int64
		stop := make(chan struct{})
		type searchTotals struct {
			durs  []time.Duration
			bytes int64
		}
		totCh := make(chan searchTotals, 1)
		errCh := make(chan error, 1)
		go func() {
			var tot searchTotals
			for i := 0; ; i++ {
				select {
				case <-stop:
					totCh <- tot
					return
				default:
				}
				q := ds.Queries.Row(i % ds.Queries.Rows)
				start := time.Now()
				resp, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
				if err != nil {
					errCh <- err
					totCh <- tot
					return
				}
				tot.durs = append(tot.durs, time.Since(start))
				tot.bytes += resp.Plan.BytesScanned
				searches.Add(1)
			}
		}()

		streamStart := time.Now()
		const chunk = 200
		for lo := bootstrap; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := insert(lo, hi); err != nil {
				db.Close()
				return err
			}
		}
		streamDur := time.Since(streamStart)
		for deadline := time.Now().Add(2 * time.Second); searches.Load() < 100 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		close(stop)
		tot := <-totCh
		select {
		case serr := <-errCh:
			db.Close()
			return serr
		default:
		}

		// Drain the maintenance backlog, then measure recall@10 against
		// exact search on the final state.
		if _, err := db.Maintain(); err != nil {
			db.Close()
			return err
		}
		sample := cfg.QuerySample
		if sample > ds.Queries.Rows {
			sample = ds.Queries.Rows
		}
		var recall float64
		for qi := 0; qi < sample; qi++ {
			q := ds.Queries.Row(qi)
			exact, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, Exact: true})
			if err != nil {
				db.Close()
				return err
			}
			approx, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
			if err != nil {
				db.Close()
				return err
			}
			want := make(map[string]bool, len(exact.Results))
			for _, r := range exact.Results {
				want[r.ID] = true
			}
			hits := 0
			for _, r := range approx.Results {
				if want[r.ID] {
					hits++
				}
			}
			if len(exact.Results) > 0 {
				recall += float64(hits) / float64(len(exact.Results))
			}
		}
		recall /= float64(sample)

		st, err := db.Stats()
		if err != nil {
			db.Close()
			return err
		}
		if err := db.Close(); err != nil {
			return err
		}
		o := outcome{
			name:      name,
			streamDur: streamDur,
			lat:       summarize(tot.durs),
			recall:    recall,
			parts:     st.NumPartitions,
		}
		if len(tot.durs) > 0 {
			o.bytesPerQ = float64(tot.bytes) / float64(len(tot.durs))
		}
		outcomes = append(outcomes, o)
	}

	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "Variant\tStream s\tSearches\tp50 ms\tp99 ms\tKiB/query\tRecall@10\tParts")
	for _, o := range outcomes {
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%s\t%s\t%.1f\t%.3f\t%d\n",
			o.name, o.streamDur.Seconds(), o.lat.n, ms(o.lat.p50), ms(o.lat.p99),
			o.bytesPerQ/1024, o.recall, o.parts)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	verdict := func(ok bool, msg string) {
		tag := "OK"
		if !ok {
			tag = "VIOLATION"
		}
		fmt.Fprintf(cfg.Out, "%-9s %s\n", tag+":", msg)
	}
	fmt.Fprintln(cfg.Out)
	base := outcomes[0]
	for _, o := range outcomes[1:] {
		verdict(o.recall >= base.recall-0.01,
			fmt.Sprintf("%s recall@10 %.3f within 1pt of single-store %.3f", o.name, o.recall, base.recall))
	}
	var shard4 outcome
	for _, o := range outcomes {
		if o.name == "4-shard" {
			shard4 = o
		}
	}
	// How much the scatter phase overlaps depends on the host's spare
	// cores, so the tail latency ratio is reported, not judged.
	fmt.Fprintf(cfg.Out, "%-9s 4-shard search p99 %s ms vs single-store %s ms under sustained upserts: %.2fx (GOMAXPROCS=%d)\n",
		"NOTE:", ms(shard4.lat.p99), ms(base.lat.p99), float64(shard4.lat.p99)/float64(base.lat.p99), runtime.GOMAXPROCS(0))
	return nil
}
