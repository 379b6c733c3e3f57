package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"micronn"
	"micronn/internal/workload"
)

// WriteStorm is the acceptance scenario for LSM-shaped ingest: memtable
// group commit in front of the WAL'd delta store. It measures two things.
//
// First, insert throughput: the same 8-writer upsert storm is driven
// through the grouped path (LSMIngest: writers batched into shared
// transactions by the committer) and the ungrouped path (every Upsert its
// own transaction through the writer gate), plus a sequential single-writer
// baseline. The grouped-to-single-writer throughput ratio is reported as a
// NOTE; it is a timing that depends on the host's spare cores.
//
// Second, search availability under sustained ingest: a paced searcher
// measures p50/p99 and recall@10 idle, then during insert storms at 10x and
// 100x a base trickle rate, on both variants. The criterion is grouped
// search p99 within 1.5x idle at recall within 1 point — searches keep
// their latency while the memtable absorbs the storm.
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

	mkDB := func(name string, lsm bool) (*micronn.DB, error) {
		path := filepath.Join(cfg.Dir, "storm-"+name+".mnn")
		os.Remove(path)
		os.Remove(path + "-wal")
		os.Remove(path + ".lock")
		db, err := micronn.Open(path, micronn.Options{
			Dim:                 spec.Dim,
			Metric:              spec.Metric,
			TargetPartitionSize: 100,
			Seed:                spec.Seed,
			LSMIngest:           lsm,
			// A small memtable makes the storm exercise the whole LSM
			// machinery — seals, sorted runs, compaction — not just the
			// group commit at its front.
			MemtableMaxItems: 512,
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

	singleDB, err := mkDB("single", false)
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

	ungroupedDB, err := mkDB("ungrouped", false)
	if err != nil {
		return err
	}
	ungroupedRate, err := concurrent(ungroupedDB, "u")
	if err != nil {
		ungroupedDB.Close()
		return err
	}
	groupedDB, err := mkDB("grouped", true)
	if err != nil {
		ungroupedDB.Close()
		return err
	}
	groupedRate, err := concurrent(groupedDB, "g")
	if err != nil {
		ungroupedDB.Close()
		groupedDB.Close()
		return err
	}
	gst, err := groupedDB.Stats()
	if err != nil {
		ungroupedDB.Close()
		groupedDB.Close()
		return err
	}
	avgGroup := 0.0
	if gst.Ingest.GroupCommits > 0 {
		avgGroup = float64(gst.Ingest.GroupedOps) / float64(gst.Ingest.GroupCommits)
	}

	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "Writer path\tWriters\tInserts/s\tvs single\tGroup commits\tAvg group\tMax group")
	fmt.Fprintf(tw, "single-writer\t1\t%.0f\t1.00x\t-\t-\t-\n", singleRate)
	fmt.Fprintf(tw, "ungrouped\t%d\t%.0f\t%.2fx\t-\t-\t-\n", writers, ungroupedRate, ungroupedRate/singleRate)
	fmt.Fprintf(tw, "grouped\t%d\t%.0f\t%.2fx\t%d\t%.1f\t%d\n", writers, groupedRate, groupedRate/singleRate,
		gst.Ingest.GroupCommits, avgGroup, gst.Ingest.MaxGroupSize)
	if err := tw.Flush(); err != nil {
		ungroupedDB.Close()
		groupedDB.Close()
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
		variant string
		label   string
		stats   latencyStats
		recall  float64
	}
	var rows []windowRow
	var idleP99 = map[string]time.Duration{}
	for _, v := range []struct {
		name string
		db   *micronn.DB
	}{{"ungrouped", ungroupedDB}, {"grouped", groupedDB}} {
		idle, err := window(v.db, v.name, 0, 300, 0)
		if err != nil {
			ungroupedDB.Close()
			groupedDB.Close()
			return err
		}
		idleRecall, err := recallNow(v.db)
		if err != nil {
			ungroupedDB.Close()
			groupedDB.Close()
			return err
		}
		idleP99[v.name] = idle.p99
		rows = append(rows, windowRow{v.name, "idle", idle, idleRecall})
		for _, mult := range []int{10, 100} {
			st, err := window(v.db, v.name, baseRate*mult, 300, 2000)
			if err != nil {
				ungroupedDB.Close()
				groupedDB.Close()
				return err
			}
			rec, err := recallNow(v.db)
			if err != nil {
				ungroupedDB.Close()
				groupedDB.Close()
				return err
			}
			rows = append(rows, windowRow{v.name, fmt.Sprintf("%dx storm", mult), st, rec})
			// Quiesce before the next window: fold the absorbed backlog
			// into the partitions so each window starts from a maintained
			// index rather than compounding the previous storm's debt.
			if _, err := v.db.Maintain(); err != nil {
				ungroupedDB.Close()
				groupedDB.Close()
				return err
			}
		}
	}
	ungroupedDB.Close()
	defer groupedDB.Close()

	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "Variant\tWindow\tQueries\tp50 ms\tp99 ms\tRecall@10")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%.4f\n",
			r.variant, r.label, r.stats.n, ms(r.stats.p50), ms(r.stats.p99), r.recall)
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
	// Grouped-versus-single throughput is a timing, and how far group
	// commit lifts it depends on the host's spare cores; it is reported,
	// not judged.
	fmt.Fprintf(cfg.Out, "%-9s grouped insert throughput %.0f/s vs single-writer %.0f/s: %.2fx (avg group %.1f, GOMAXPROCS=%d)\n",
		"NOTE:", groupedRate, singleRate, groupedRate/singleRate, avgGroup, runtime.GOMAXPROCS(0))
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
	var idleRecall, worstRecall float64 = 1, 1
	for _, r := range rows {
		if r.variant != "grouped" {
			continue
		}
		if r.label == "idle" {
			idleRecall = r.recall
		} else if r.recall < worstRecall {
			worstRecall = r.recall
		}
	}
	verdict(math.Abs(idleRecall-worstRecall) <= 0.01+1e-9 || worstRecall >= idleRecall,
		fmt.Sprintf("grouped recall@10 under storm %.4f within 1 point of idle %.4f", worstRecall, idleRecall))
	// The p99 criterion needs spare cores for the same reason as the
	// concurrency scenario: on a starved host the tail measures the
	// scheduler, not the ingest path. A small absolute allowance absorbs
	// noise at tiny scales where idle p99 is tens of microseconds.
	for _, r := range rows {
		if r.variant != "grouped" || r.stats.n == 0 || r.label == "idle" {
			continue
		}
		bound := idleP99["grouped"] + idleP99["grouped"]/2
		if slack := idleP99["grouped"] + 2*time.Millisecond; bound < slack {
			bound = slack
		}
		if runtime.GOMAXPROCS(0) >= 4 {
			verdict(r.stats.p99 <= bound,
				fmt.Sprintf("grouped search p99 during %s %s ms within 1.5x idle %s ms (bound %s ms)",
					r.label, ms(r.stats.p99), ms(idleP99["grouped"]), ms(bound)))
		} else {
			fmt.Fprintf(cfg.Out, "%-9s grouped p99 during %s %s ms vs idle %s ms (GOMAXPROCS=%d: criterion not assessable)\n",
				"NOTE:", r.label, ms(r.stats.p99), ms(idleP99["grouped"]), runtime.GOMAXPROCS(0))
		}
	}
	st, err := groupedDB.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\ningest state after storms: %d runs (%d rows), %d unmerged, %d seals, %d backpressure triggers\n",
		st.Ingest.RunCount, st.Ingest.RunRows, st.Ingest.UnmergedItems, st.Ingest.Seals, st.Ingest.BackpressureTriggers)

	// --- Phase 3: compaction write amplification, tiered vs oldest-run ---
	//
	// The same saturating (100x-shaped, unpaced) ingest is replayed against
	// two fresh stores that differ only in compaction policy: the tiered
	// default (MaxCompactRuns=8, whole tiers merged in one pass) and the PR 8
	// oldest-run-only policy (MaxCompactRuns=1). Both get the identical
	// maintenance cadence and a full drain, then write amplification is
	// compared two ways: logically (maintenance row writes per row ingested,
	// Stats.Maintenance.RowChanges) and physically (WAL page images per row,
	// Stats.PagesWritten). Merging a tier writes each destination partition
	// once per merge instead of once per run, so both amplifications should
	// come out at or below the single-run policy's.
	const ampN = 4096
	ampRun := func(name string, maxCompact int) (logAmp, pageAmp float64, merges int64, err error) {
		path := filepath.Join(cfg.Dir, "storm-amp-"+name+".mnn")
		os.Remove(path)
		os.Remove(path + "-wal")
		os.Remove(path + ".lock")
		db, err := micronn.Open(path, micronn.Options{
			Dim:                 spec.Dim,
			Metric:              spec.Metric,
			TargetPartitionSize: 100,
			Seed:                spec.Seed,
			LSMIngest:           true,
			MemtableMaxItems:    512,
			MaxCompactRuns:      maxCompact,
			// Disable flush backpressure: the fixed Maintain cadence below
			// is the only maintenance, so runs actually accumulate and the
			// policies pick differently-sized merges. Splits are disabled
			// too — partition rebalancing noise would swamp the
			// compaction-policy difference this phase isolates.
			MaxUnmergedItems: 1 << 20,
			MaxPartitionSize: 1 << 20,
		})
		if err != nil {
			return 0, 0, 0, err
		}
		defer db.Close()
		items := make([]micronn.Item, 0, bootstrap)
		for i := 0; i < bootstrap; i++ {
			items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
		}
		if err := db.UpsertBatch(items); err != nil {
			return 0, 0, 0, err
		}
		if _, err := db.Rebuild(); err != nil {
			return 0, 0, 0, err
		}
		base, err := db.Stats()
		if err != nil {
			return 0, 0, 0, err
		}
		// Memtable-sized waves, each awaited until the async sealer turns
		// it into a run, so every ingested row reaches the partitions
		// through compaction and both variants drain the identical run set
		// — the comparison isolates the compaction policy, not seal
		// timing.
		const waveSize = 512
		for wave := 0; wave < ampN/waveSize; wave++ {
			items := make([]micronn.Item, 0, waveSize)
			for i := 0; i < waveSize; i++ {
				id := fmt.Sprintf("amp-%s-%d", name, wave*waveSize+i)
				items = append(items, micronn.Item{ID: id, Vector: row(wave*waveSize + i)})
			}
			if err := db.UpsertBatch(items); err != nil {
				return 0, 0, 0, err
			}
			for deadline := time.Now().Add(5 * time.Second); ; {
				stt, err := db.Stats()
				if err != nil {
					return 0, 0, 0, err
				}
				if stt.Ingest.RunCount >= int64(wave+1) || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		// Drain: the tiered policy folds the whole same-size tier in one
		// merge, the oldest-run policy folds one run per pass.
		for i := 0; i < 100; i++ {
			stt, err := db.Stats()
			if err != nil {
				return 0, 0, 0, err
			}
			if stt.Ingest.RunCount == 0 {
				break
			}
			if _, err := db.Maintain(); err != nil {
				return 0, 0, 0, err
			}
		}
		if _, err := db.FlushDelta(); err != nil {
			return 0, 0, 0, err
		}
		end, err := db.Stats()
		if err != nil {
			return 0, 0, 0, err
		}
		logAmp = float64(end.Maintenance.RowChanges-base.Maintenance.RowChanges) / float64(ampN)
		pageAmp = float64(end.PagesWritten-base.PagesWritten) / float64(ampN)
		return logAmp, pageAmp, end.Maintenance.Compactions - base.Maintenance.Compactions, nil
	}
	tieredLog, tieredPage, tieredMerges, err := ampRun("tiered", 0)
	if err != nil {
		return err
	}
	oldestLog, oldestPage, oldestMerges, err := ampRun("oldest", 1)
	if err != nil {
		return err
	}

	tw = newTable(cfg.Out)
	fmt.Fprintln(tw, "Compaction policy\tRows\tMerges\tRow writes/row\tWAL pages/row")
	fmt.Fprintf(tw, "tiered (MaxCompactRuns=8)\t%d\t%d\t%.2f\t%.2f\n", ampN, tieredMerges, tieredLog, tieredPage)
	fmt.Fprintf(tw, "oldest-run (MaxCompactRuns=1)\t%d\t%d\t%.2f\t%.2f\n", ampN, oldestMerges, oldestLog, oldestPage)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out)
	verdict(tieredLog <= oldestLog+1e-9,
		fmt.Sprintf("tiered logical write amp %.2f row writes/row at or below oldest-run %.2f", tieredLog, oldestLog))
	verdict(tieredPage <= oldestPage*1.05+1e-9,
		fmt.Sprintf("tiered physical write amp %.2f WAL pages/row at or below oldest-run %.2f (5%% noise allowance)", tieredPage, oldestPage))

	// --- Phase 4: run-zone pruning under filtered search ---
	//
	// Three sealed waves carry disjoint values of an indexed attribute, so
	// an equality filter from one wave can never match the others' runs —
	// their attribute Blooms prune those scans entirely. The criterion is
	// byte-identical results with pruning on and off, with a non-zero
	// pruned-run count.
	prunePath := filepath.Join(cfg.Dir, "storm-prune.mnn")
	os.Remove(prunePath)
	os.Remove(prunePath + "-wal")
	os.Remove(prunePath + ".lock")
	pruneDB, err := micronn.Open(prunePath, micronn.Options{
		Dim:                 spec.Dim,
		Metric:              spec.Metric,
		TargetPartitionSize: 100,
		Seed:                spec.Seed,
		LSMIngest:           true,
		MemtableMaxItems:    512,
		Attributes:          []micronn.AttributeDef{{Name: "wave", Type: micronn.AttrText, Indexed: true}},
	})
	if err != nil {
		return err
	}
	defer pruneDB.Close()
	items := make([]micronn.Item, 0, 400)
	for i := 0; i < 400; i++ {
		items = append(items, micronn.Item{
			ID: workload.AssetID(i), Vector: ds.Train.Row(i),
			Attributes: map[string]any{"wave": "base"},
		})
	}
	if err := pruneDB.UpsertBatch(items); err != nil {
		return err
	}
	if _, err := pruneDB.Rebuild(); err != nil {
		return err
	}
	for w, tag := range []string{"alpha", "beta", "gamma"} {
		wave := make([]micronn.Item, 0, 512)
		for i := 0; i < 512; i++ {
			wave = append(wave, micronn.Item{
				ID: fmt.Sprintf("prune-%s-%d", tag, i), Vector: row(400 + w*512 + i),
				Attributes: map[string]any{"wave": tag},
			})
		}
		if err := pruneDB.UpsertBatch(wave); err != nil {
			return err
		}
	}
	// Seals are asynchronous: wait until at least two waves have become runs.
	for deadline := time.Now().Add(5 * time.Second); ; {
		stt, err := pruneDB.Stats()
		if err != nil {
			return err
		}
		if stt.Ingest.RunCount >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	pruneQueries := func() ([][]string, error) {
		var out [][]string
		for i := 0; i < 40; i++ {
			resp, err := pruneDB.Search(micronn.SearchRequest{
				Vector: ds.Queries.Row(i % ds.Queries.Rows), K: 10,
				Filters: []micronn.Filter{micronn.Eq("wave", "alpha")},
				Plan:    micronn.PlanPostFilter, NoCache: true,
			})
			if err != nil {
				return nil, err
			}
			ids := make([]string, len(resp.Results))
			for j, r := range resp.Results {
				ids[j] = r.ID
			}
			out = append(out, ids)
		}
		return out, nil
	}
	onIDs, err := pruneQueries()
	if err != nil {
		return err
	}
	pst, err := pruneDB.Stats()
	if err != nil {
		return err
	}
	pruneDB.InternalIndex().SetZonePruning(false)
	offIDs, err := pruneQueries()
	if err != nil {
		return err
	}
	identical := len(onIDs) == len(offIDs)
	for i := 0; identical && i < len(onIDs); i++ {
		if len(onIDs[i]) != len(offIDs[i]) {
			identical = false
			break
		}
		for j := range onIDs[i] {
			if onIDs[i][j] != offIDs[i][j] {
				identical = false
				break
			}
		}
	}
	fmt.Fprintf(cfg.Out, "zone pruning: %d of %d run scans skipped over %d filtered searches (%d runs live)\n",
		pst.Ingest.ZonePrunedRuns, pst.Ingest.ZonePruneChecks, len(onIDs), pst.Ingest.RunCount)
	verdict(pst.Ingest.ZonePrunedRuns > 0,
		fmt.Sprintf("attribute Blooms pruned %d run scans across %d checks", pst.Ingest.ZonePrunedRuns, pst.Ingest.ZonePruneChecks))
	verdict(identical,
		"filtered search results byte-identical with zone pruning on and off")
	return nil
}
