package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"micronn"
	"micronn/internal/workload"
)

// Concurrency measures search availability during partition maintenance,
// the acceptance experiment for partition-granular write locking: with
// splits holding only their own partitions' locks (the store-wide writer
// gate is retained just for the short commit step), a concurrent searcher's
// tail latency during a storm of flushes and splits should look like its
// idle tail latency. The scenario measures the same searcher in two
// windows — idle (no writer at all) and during-splits (a maintenance loop
// flushing the delta and splitting oversized partitions underneath it) —
// judges recall@10 unchanged; p99(splits) against p99(idle) is reported as
// a NOTE with the measured ratio (the design target is at most 1.5x).
func Concurrency(cfg Config) error {
	cfg.fill()
	cfg.header("Concurrency: search p99 during partition splits vs idle")

	spec, err := workload.ByName("InternalA")
	if err != nil {
		return err
	}
	spec = spec.Scaled(cfg.Scale)
	ds := spec.Generate()
	n := ds.Train.Rows
	bootstrap := n / 2
	const target = 100

	path := filepath.Join(cfg.Dir, "concurrency.mnn")
	os.Remove(path)
	os.Remove(path + "-wal")
	os.Remove(path + ".lock")
	db, err := micronn.Open(path, micronn.Options{
		Dim:                 spec.Dim,
		Metric:              spec.Metric,
		TargetPartitionSize: target,
		Seed:                spec.Seed,
	})
	if err != nil {
		return err
	}
	defer db.Close()

	insert := func(lo, hi int) error {
		items := make([]micronn.Item, 0, hi-lo)
		for i := lo; i < hi; i++ {
			items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: ds.Train.Row(i)})
		}
		return db.UpsertBatch(items)
	}
	if err := insert(0, bootstrap); err != nil {
		return err
	}
	if _, err := db.Rebuild(); err != nil {
		return err
	}

	// The searcher is paced like an interactive client (closed loop, short
	// think time): an unpaced tight loop saturates the CPU and measures
	// scheduler starvation between the searcher and the maintenance
	// stream, not per-query latency under concurrent splits.
	searchOnce := func(i int) (time.Duration, error) {
		time.Sleep(500 * time.Microsecond)
		q := ds.Queries.Row(i % ds.Queries.Rows)
		start := time.Now()
		_, serr := db.Search(micronn.SearchRequest{Vector: q, K: 10, NProbe: 8})
		return time.Since(start), serr
	}
	recallNow := func() (float64, error) {
		sample := ds.Queries.Rows
		if sample > 30 {
			sample = 30
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
				recall += 1
			}
		}
		return recall / float64(sample), nil
	}

	// Idle window: the searcher alone against the built index.
	const idleQueries = 400
	idleDurs := make([]time.Duration, 0, idleQueries)
	for i := 0; i < idleQueries; i++ {
		d, err := searchOnce(i)
		if err != nil {
			return err
		}
		idleDurs = append(idleDurs, d)
	}
	idleRecall, err := recallNow()
	if err != nil {
		return err
	}
	base, err := db.Stats()
	if err != nil {
		return err
	}

	// Split window: a maintenance loop streams the second half of the
	// corpus in chunks, flushing and splitting after each, while the same
	// searcher keeps measuring. With partition-granular locks the k-means
	// heavy split transactions only exclude the searcher from the
	// partitions they rewrite — never from the whole store.
	done := make(chan error, 1)
	go func() {
		const chunk = 100
		for lo := bootstrap; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if err := insert(lo, hi); err != nil {
				done <- err
				return
			}
			if _, err := db.Maintain(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var splitDurs []time.Duration
	var maintErr error
	deadline := time.Now().Add(2 * time.Second)
windowLoop:
	for i := 0; ; i++ {
		select {
		case maintErr = <-done:
			if maintErr != nil {
				break windowLoop
			}
			// Keep sampling briefly after the stream drains so tiny scales
			// still produce meaningful percentiles.
			if len(splitDurs) >= 100 || time.Now().After(deadline) {
				break windowLoop
			}
			done = nil // drained; fall through to plain sampling
		default:
		}
		d, err := searchOnce(i)
		if err != nil {
			return err
		}
		splitDurs = append(splitDurs, d)
		if done == nil && (len(splitDurs) >= 100 || time.Now().After(deadline)) {
			break
		}
	}
	if maintErr != nil {
		return maintErr
	}

	// Quiesce and take the closing measurements.
	if _, err := db.Maintain(); err != nil {
		return err
	}
	finalRecall, err := recallNow()
	if err != nil {
		return err
	}
	st, err := db.Stats()
	if err != nil {
		return err
	}
	splits := st.Maintenance.Splits - base.Maintenance.Splits
	flushes := st.Maintenance.Flushes - base.Maintenance.Flushes

	idle := summarize(idleDurs)
	storm := summarize(splitDurs)
	tw := newTable(cfg.Out)
	fmt.Fprintln(tw, "Window\tQueries\tp50 ms\tp99 ms\tRecall@10")
	fmt.Fprintf(tw, "idle\t%d\t%s\t%s\t%.4f\n", idle.n, ms(idle.p50), ms(idle.p99), idleRecall)
	fmt.Fprintf(tw, "during-splits\t%d\t%s\t%s\t%.4f\n", storm.n, ms(storm.p50), ms(storm.p99), finalRecall)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "\nmaintenance during window: %d flushes, %d splits (%d partitions, %d vectors)\n\n",
		flushes, splits, st.NumPartitions, st.NumVectors)

	verdict := func(ok bool, msg string) {
		tag := "OK"
		if !ok {
			tag = "VIOLATION"
		}
		fmt.Fprintf(cfg.Out, "%-9s %s\n", tag+":", msg)
	}
	verdict(splits > 0,
		fmt.Sprintf("the measured window overlapped real maintenance: %d splits, %d flushes", splits, flushes))
	verdict(math.Abs(finalRecall-idleRecall) <= 0.02,
		fmt.Sprintf("recall@10 %.4f after the split storm within 2 points of idle %.4f", finalRecall, idleRecall))
	// The latency ratio is a timing, reported and never judged: on one or
	// two CPUs the k-means split computation starves the searcher of CPU
	// time, which is scheduler contention, not lock contention.
	ratio := 0.0
	if idle.p99 > 0 {
		ratio = float64(storm.p99) / float64(idle.p99)
	}
	fmt.Fprintf(cfg.Out, "%-9s search p99 during splits %s ms vs idle %s ms: %.2fx (target at most 1.5x, GOMAXPROCS=%d)\n",
		"NOTE:", ms(storm.p99), ms(idle.p99), ratio, runtime.GOMAXPROCS(0))
	return nil
}
