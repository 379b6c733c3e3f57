// Package bench implements the experiment harness that regenerates every
// table and figure of the paper's evaluation (§4). Each experiment is a
// named runner producing aligned text tables, listed in the Experiments
// registry (`micronn-bench -list`); cmd/micronn-bench runs them from the
// command line. Datasets are synthetic (see internal/workload) and scaled
// by Config.Scale.
package bench

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"micronn"
	"micronn/internal/topk"
	"micronn/internal/vec"
	"micronn/internal/workload"
)

// Config parameterizes experiment runs.
type Config struct {
	// Out receives the result tables.
	Out io.Writer
	// Dir is the scratch directory for database files (a temp dir is
	// created when empty).
	Dir string
	// Scale shrinks dataset cardinalities (1.0 = paper scale). The
	// default 0.01 keeps the full suite runnable on a laptop in minutes.
	Scale float64
	// Datasets restricts the Table-2 datasets used by multi-dataset
	// experiments; nil means a representative default subset.
	Datasets []string
	// K is the result-list size (the paper reports top-100).
	K int
	// TargetRecall is the recall@K the nprobe search targets (0.9).
	TargetRecall float64
	// QuerySample bounds how many queries are timed per configuration.
	QuerySample int
}

func (c *Config) fill() {
	if c.Out == nil {
		c.Out = os.Stdout
	}
	if c.Scale == 0 {
		c.Scale = 0.01
	}
	if len(c.Datasets) == 0 {
		c.Datasets = []string{"SIFT", "MNIST", "NYTIMES", "InternalA"}
	}
	if c.K == 0 {
		c.K = 100
	}
	if c.TargetRecall == 0 {
		c.TargetRecall = 0.9
	}
	if c.QuerySample == 0 {
		c.QuerySample = 50
	}
	if c.Dir == "" {
		dir, err := os.MkdirTemp("", "micronn-bench-*")
		if err == nil {
			c.Dir = dir
		} else {
			c.Dir = "."
		}
	}
}

// prepared bundles a generated dataset with its ground truth.
type prepared struct {
	ds *workload.Dataset
	gt [][]topk.Result
	// queryIdx are the sampled query indices used for timing.
	queryIdx []int
}

// prepare generates the scaled dataset and ground truth for the sampled
// queries only (ground truth at full query count would dominate runtime).
func (c *Config) prepare(spec workload.Spec) *prepared {
	spec = spec.Scaled(c.Scale)
	ds := spec.Generate()
	n := c.QuerySample
	if n > ds.Queries.Rows {
		n = ds.Queries.Rows
	}
	queryIdx := make([]int, n)
	step := ds.Queries.Rows / n
	if step == 0 {
		step = 1
	}
	for i := range queryIdx {
		queryIdx[i] = (i * step) % ds.Queries.Rows
	}
	sampled := vec.NewMatrix(n, spec.Dim)
	for i, qi := range queryIdx {
		sampled.SetRow(i, ds.Queries.Row(qi))
	}
	gt := workload.GroundTruth(spec.Metric, ds.Train, sampled, c.K)
	return &prepared{ds: ds, gt: gt, queryIdx: queryIdx}
}

// buildDB loads the dataset into a fresh MicroNN database and builds the
// IVF index.
func (c *Config) buildDB(p *prepared, device micronn.DeviceProfile, name string) (*micronn.DB, error) {
	path := filepath.Join(c.Dir, name+".mnn")
	os.Remove(path)
	os.Remove(path + "-wal")
	os.Remove(path + ".lock")
	db, err := micronn.Open(path, micronn.Options{
		Dim:    p.ds.Spec.Dim,
		Metric: p.ds.Spec.Metric,
		Device: device,
		Seed:   p.ds.Spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	const chunk = 2000
	items := make([]micronn.Item, 0, chunk)
	for i := 0; i < p.ds.Train.Rows; i++ {
		items = append(items, micronn.Item{ID: workload.AssetID(i), Vector: p.ds.Train.Row(i)})
		if len(items) == chunk || i == p.ds.Train.Rows-1 {
			if err := db.UpsertBatch(items); err != nil {
				db.Close()
				return nil, err
			}
			items = items[:0]
		}
	}
	if _, err := db.Rebuild(); err != nil {
		db.Close()
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// meanRecallAt measures mean recall@K at the given nprobe over the sampled
// queries.
func (c *Config) meanRecallAt(db *micronn.DB, p *prepared, nprobe int) (float64, error) {
	var total float64
	for i, qi := range p.queryIdx {
		resp, err := db.Search(micronn.SearchRequest{
			Vector: p.ds.Queries.Row(qi), K: c.K, NProbe: nprobe,
		})
		if err != nil {
			return 0, err
		}
		ids := make([]string, len(resp.Results))
		for j, r := range resp.Results {
			ids[j] = r.ID
		}
		total += workload.RecallByID(ids, p.gt[i])
	}
	return total / float64(len(p.queryIdx)), nil
}

// findNProbe searches for the smallest probe count reaching TargetRecall,
// mirroring the paper's methodology ("we identify n, the number of IVF
// index partitions to scan to reach a recall of 90% or higher").
func (c *Config) findNProbe(db *micronn.DB, p *prepared) (nprobe int, recall float64, err error) {
	st, err := db.Stats()
	if err != nil {
		return 0, 0, err
	}
	maxProbe := int(st.NumPartitions)
	if maxProbe < 1 {
		maxProbe = 1
	}
	probe := 1
	for {
		r, err := c.meanRecallAt(db, p, probe)
		if err != nil {
			return 0, 0, err
		}
		if r >= c.TargetRecall || probe >= maxProbe {
			// Refine downward: halve-step back to the smallest passing
			// probe between probe/2 and probe.
			lo, hi := probe/2+1, probe
			best, bestRecall := probe, r
			for lo < hi {
				mid := (lo + hi) / 2
				rm, err := c.meanRecallAt(db, p, mid)
				if err != nil {
					return 0, 0, err
				}
				if rm >= c.TargetRecall {
					best, bestRecall = mid, rm
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			return best, bestRecall, nil
		}
		probe *= 2
		if probe > maxProbe {
			probe = maxProbe
		}
	}
}

// latencyStats is a small aggregate of per-query timings.
type latencyStats struct {
	mean, stddev, p50 time.Duration
}

func summarize(durs []time.Duration) latencyStats {
	if len(durs) == 0 {
		return latencyStats{}
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	mean := sum / time.Duration(len(sorted))
	var varSum float64
	for _, d := range sorted {
		diff := float64(d - mean)
		varSum += diff * diff
	}
	std := time.Duration(math.Sqrt(varSum / float64(len(sorted))))
	return latencyStats{mean: mean, stddev: std, p50: sorted[len(sorted)/2]}
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// mib renders bytes in MiB with one decimal.
func mib(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}

// newTable returns a tabwriter for aligned output.
func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func (c *Config) header(title string) {
	fmt.Fprintf(c.Out, "\n=== %s ===\n", title)
	fmt.Fprintf(c.Out, "(scale=%.4g, K=%d, target recall=%.0f%%)\n\n", c.Scale, c.K, c.TargetRecall*100)
}
