package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"micronn"
	"micronn/internal/workload"
)

// WriteStorm is the acceptance scenario for the write path: group commit
// into the WAL'd delta store. It measures two things.
//
// First, insert throughput: an 8-writer upsert storm, whose writers the
// committer batches into shared transactions, against a sequential
// single-writer baseline. The 8-writer-to-single-writer throughput ratio is
// reported as a NOTE; it is a timing that depends on the host's spare
// cores. That the committer batched at all is a verdict.
//
// Second, search availability under sustained ingest: a paced searcher
// measures p50/p99 and recall@10 idle, then during insert storms at 10x and
// 100x a base trickle rate. The criterion is recall within 1 point of idle;
// the storm-window p99 against idle is reported as a NOTE, because a tail
// latency measures the host's scheduler as much as the ingest path.
func WriteStorm(cfg Config) error {
	cfg.fill()
	cfg.header("Updates: write-storm search tail and group-commit throughput")

	spec, err := workload.ByName("InternalA")
	if err != nil {
		return err
	}
	spec = spec.Scaled(cfg.Scale)
	ds := spec.Generate()
	n := ds.Train.Rows
	bootstrap := n / 2

	mkDB := func(name string) (*micronn.DB, error) {
		path := filepath.Join(cfg.Dir, "storm-"+name+".mnn")
		os.Remove(path)
		os.Remove(path + "-wal")
		os.Remove(path + ".lock")
		db, err := micronn.Open(path, micronn.Options{
			Dim:                 spec.Dim,
			Metric:              spec.Metric,
			TargetPartitionSize: 100,
			Seed:                spec.Seed,
		})
		if err != nil {
			return nil, err
		}
		items := make([]micronn.Item, 0, bootstrap)
		for i := 0; i < bootstrap; i++ {
			items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
		}
		if err := db.UpsertBatch(items); err != nil {
			db.Close()
			return nil, err
		}
		if _, err := db.Rebuild(); err != nil {
			db.Close()
			return nil, err
		}
		return db, nil
	}
	row := func(i int) []float32 { return ds.Train.Row(i % n) }

	// --- Phase 1: insert throughput, 8 concurrent writers ---
	stormN := n - bootstrap
	if stormN > 4000 {
		stormN = 4000
	}
	if stormN < 400 {
		stormN = 400
	}
	const writers = 8
	concurrent := func(db *micronn.DB, tag string) (float64, error) {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		per := stormN / writers
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					id := fmt.Sprintf("tp-%s-%d-%d", tag, w, i)
					if err := db.Upsert(micronn.Item{ID: id, Vector: row(w*per + i)}); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return float64(per*writers) / elapsed.Seconds(), nil
	}

	singleDB, err := mkDB("single")
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < stormN; i++ {
		if err := singleDB.Upsert(micronn.Item{ID: fmt.Sprintf("tp-seq-%d", i), Vector: row(i)}); err != nil {
			singleDB.Close()
			return err
		}
	}
	singleRate := float64(stormN) / time.Since(start).Seconds()
	singleDB.Close()

	db, err := mkDB("grouped")
	if err != nil {
		return err
	}
	defer db.Close()
	groupedRate, err := concurrent(db, "g")
	if err != nil {
		return err
	}
	gst, err := db.Stats()
	if err != nil {
		return err
	}
	avgGroup := 0.0
	if gst.Ingest.GroupCommits > 0 {
		avgGroup = float64(gst.Ingest.GroupedOps) / float64(gst.Ingest.GroupCommits)
	}

	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "Writer path\tWriters\tInserts/s\tvs single\tGroup commits\tAvg group\tMax group")
	fmt.Fprintf(tw, "single-writer\t1\t%.0f\t1.00x\t-\t-\t-\n", singleRate)
	fmt.Fprintf(tw, "grouped\t%d\t%.0f\t%.2fx\t%d\t%.1f\t%d\n", writers, groupedRate, groupedRate/singleRate,
		gst.Ingest.GroupCommits, avgGroup, gst.Ingest.MaxGroupSize)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)

	// --- Phase 2: search tail during paced insert storms ---
	searchOnce := func(db *micronn.DB, i int) (time.Duration, error) {
		time.Sleep(500 * time.Microsecond)
		q := ds.Queries.Row(i % ds.Queries.Rows)
		s := time.Now()
		_, serr := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
		return time.Since(s), serr
	}
	recallNow := func(db *micronn.DB) (float64, error) {
		sample := ds.Queries.Rows
		if sample > 15 {
			sample = 15
		}
		var recall float64
		for i := 0; i < sample; i++ {
			q := ds.Queries.Row(i)
			exact, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, Exact: true})
			if err != nil {
				return 0, err
			}
			got, err := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
			if err != nil {
				return 0, err
			}
			want := make(map[string]bool, len(exact.Results))
			for _, r := range exact.Results {
				want[r.ID] = true
			}
			hits := 0
			for _, r := range got.Results {
				if want[r.ID] {
					hits++
				}
			}
			if len(exact.Results) > 0 {
				recall += float64(hits) / float64(len(exact.Results))
			} else {
				recall++
			}
		}
		return recall / float64(sample), nil
	}
	// window measures queries while a paced writer inserts at `rate`
	// items/s (0 = idle window). Pacing catches up when behind schedule, so
	// a rate the store cannot sustain becomes a saturating burst — which is
	// exactly what a 100x storm should look like. Both sides are bounded:
	// the writer by an insert cap, the searcher by a wall-clock deadline,
	// so a degrading tail cannot stretch the window into ever more inserts.
	const baseRate = 50
	window := func(db *micronn.DB, tag string, rate, queries, maxInserts int) (latencyStats, error) {
		stop := make(chan struct{})
		werr := make(chan error, 1)
		if rate > 0 {
			go func() {
				interval := time.Second / time.Duration(rate)
				next := time.Now()
				for i := 0; i < maxInserts; i++ {
					select {
					case <-stop:
						werr <- nil
						return
					default:
					}
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					id := fmt.Sprintf("storm-%s-%d-%d", tag, rate, i)
					if err := db.Upsert(micronn.Item{ID: id, Vector: row(i)}); err != nil {
						werr <- err
						return
					}
					next = next.Add(interval)
				}
				werr <- nil
			}()
		}
		deadline := time.Now().Add(3 * time.Second)
		durs := make([]time.Duration, 0, queries)
		var err error
		for i := 0; i < queries && err == nil && time.Now().Before(deadline); i++ {
			var d time.Duration
			d, err = searchOnce(db, i)
			durs = append(durs, d)
		}
		if rate > 0 {
			close(stop)
			if werr := <-werr; werr != nil && err == nil {
				err = werr
			}
		}
		if err != nil {
			return latencyStats{}, err
		}
		return summarize(durs), nil
	}

	type windowRow struct {
		label  string
		stats  latencyStats
		recall float64
	}
	idle, err := window(db, "grouped", 0, 300, 0)
	if err != nil {
		return err
	}
	idleRecall, err := recallNow(db)
	if err != nil {
		return err
	}
	rows := []windowRow{{"idle", idle, idleRecall}}
	for _, mult := range []int{10, 100} {
		st, err := window(db, "grouped", baseRate*mult, 300, 2000)
		if err != nil {
			return err
		}
		rec, err := recallNow(db)
		if err != nil {
			return err
		}
		rows = append(rows, windowRow{fmt.Sprintf("%dx storm", mult), st, rec})
		// Quiesce before the next window: fold the absorbed backlog into
		// the partitions so each window starts from a maintained index
		// rather than compounding the previous storm's debt.
		if _, err := db.Maintain(); err != nil {
			return err
		}
	}

	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "Window\tQueries\tp50 ms\tp99 ms\tRecall@10")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%.4f\n",
			r.label, r.stats.n, ms(r.stats.p50), ms(r.stats.p99), r.recall)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)

	verdict := func(ok bool, msg string) {
		tag := "OK"
		if !ok {
			tag = "VIOLATION"
		}
		fmt.Fprintf(cfg.Out, "%-9s %s\n", tag+":", msg)
	}
	// 8-writer-versus-single throughput is a timing, and how far group
	// commit lifts it depends on the host's spare cores; it is reported,
	// not judged.
	fmt.Fprintf(cfg.Out, "%-9s %d-writer insert throughput %.0f/s vs single-writer %.0f/s: %.2fx (avg group %.1f, GOMAXPROCS=%d)\n",
		"NOTE:", writers, groupedRate, singleRate, groupedRate/singleRate, avgGroup, runtime.GOMAXPROCS(0))
	// Batches only form when writers overlap in the enqueue window, which
	// needs a second core: on one CPU the committer drains each op before
	// the next writer is scheduled.
	if runtime.GOMAXPROCS(0) >= 2 {
		verdict(avgGroup > 1,
			fmt.Sprintf("the committer actually batched: %.1f ops per group commit (max %d)", avgGroup, gst.Ingest.MaxGroupSize))
	} else {
		fmt.Fprintf(cfg.Out, "%-9s %.1f ops per group commit, max %d (GOMAXPROCS=1: batching criterion not assessable)\n",
			"NOTE:", avgGroup, gst.Ingest.MaxGroupSize)
	}
	worstRecall := idleRecall
	for _, r := range rows[1:] {
		if r.recall < worstRecall {
			worstRecall = r.recall
		}
	}
	verdict(idleRecall-worstRecall <= 0.01+1e-9,
		fmt.Sprintf("recall@10 under storm %.4f within 1 point of idle %.4f", worstRecall, idleRecall))
	// The storm-window tail is a timing: on a starved host it measures the
	// scheduler, not the ingest path, so it is reported, never judged.
	for _, r := range rows[1:] {
		if r.stats.n == 0 || idle.p99 <= 0 {
			continue
		}
		fmt.Fprintf(cfg.Out, "%-9s search p99 during %s %s ms vs idle %s ms: %.2fx (target at most 1.5x, GOMAXPROCS=%d)\n",
			"NOTE:", r.label, ms(r.stats.p99), ms(idle.p99), float64(r.stats.p99)/float64(idle.p99), runtime.GOMAXPROCS(0))
	}
	return nil
}
