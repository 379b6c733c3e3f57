// Package clustering implements the quantizer training behind MicroNN's IVF
// index: mini-batch k-means (Sculley '10) with the flexible balance
// constraint of Liu et al. '18 (paper Algorithm 1), and the full-batch
// Lloyd k-means used by the InMemory baseline in the evaluation.
//
// The mini-batch trainer never materializes the training set: it pulls
// fixed-size random batches through a Source, so training memory is
// O(batch + k·dim) regardless of collection size — the property Figure 8
// measures.
//
// Assignment is batched. Algorithm 1 freezes the per-center counts for the
// whole assignment phase (lines 7-8), so a batch's distances to every
// centroid can be computed before any row is assigned: assignRows rows at a
// time through one vec.DistancesManyToMany call, with the batch's and the
// centroids' squared norms computed once per iteration. The distance
// scratch is assignRows×K floats, never batch×K. The full-batch baseline
// scores its rows the same way. The k-means++ seeding scores one picked
// centroid at a time, a single query the tile cannot share, so it keeps
// exact per-pair distances.
package clustering

import (
	"fmt"
	"math/rand"

	"micronn/internal/vec"
)

// Source supplies training vectors by position. Implementations back it
// with an in-memory matrix (baseline) or a disk-resident table (MicroNN).
type Source interface {
	// Len returns the number of available training vectors.
	Len() int
	// Dim returns the vector dimensionality.
	Dim() int
	// Read copies the vectors at the given positions into consecutive
	// rows of dst (which has len(indices) rows).
	Read(indices []int, dst *vec.Matrix) error
}

// MatrixSource adapts an in-memory matrix to the Source interface.
type MatrixSource struct{ M *vec.Matrix }

// Len returns the row count.
func (s MatrixSource) Len() int { return s.M.Rows }

// Dim returns the column count.
func (s MatrixSource) Dim() int { return s.M.Dim }

// Read copies the selected rows into dst.
func (s MatrixSource) Read(indices []int, dst *vec.Matrix) error {
	for i, idx := range indices {
		dst.SetRow(i, s.M.Row(idx))
	}
	return nil
}

// Config parameterizes training.
type Config struct {
	// K is the number of clusters. If zero it is derived as
	// Len/TargetClusterSize (Algorithm 1 line 1).
	K int
	// TargetClusterSize is the desired vectors-per-cluster (default 100,
	// the paper's default).
	TargetClusterSize int
	// BatchSize is the mini-batch size s (default 1024, capped at Len).
	BatchSize int
	// Iterations is the number of mini-batch rounds n. If zero a value
	// covering the dataset roughly three times is chosen, clamped to
	// [30, 600].
	Iterations int
	// BalancePenalty is the weight of the cluster-size penalty in the
	// NEAREST function. 0 disables balancing. The penalty for assigning
	// to cluster c is BalancePenalty * meanSquaredDist * v[c]/targetSize,
	// adapting its scale to the data. Default 0.12.
	BalancePenalty float32
	// Metric is the distance metric (default L2). Centroid updates are
	// always Euclidean means; for cosine the centroids are renormalized.
	Metric vec.Metric
	// Seed makes training deterministic.
	Seed int64
	// Init selects the seeding strategy. InitAuto (default) uses
	// k-means++ over a bounded sample when K is small enough for it to
	// be cheap, and random data points otherwise.
	Init InitStrategy
}

// InitStrategy selects centroid seeding.
type InitStrategy uint8

const (
	// InitAuto picks k-means++ for K <= 512, random otherwise.
	InitAuto InitStrategy = iota
	// InitRandom seeds each centroid with a random training vector
	// (Algorithm 1 line 2).
	InitRandom
	// InitKMeansPP seeds with k-means++ over a sample, which strongly
	// reduces cluster-collapse at small K.
	InitKMeansPP
)

// kppMaxAutoK bounds the K for which InitAuto picks k-means++ (the seeding
// pass is O(K * sample * dim)).
const kppMaxAutoK = 512

func (c *Config) fill(n int) {
	if c.TargetClusterSize == 0 {
		c.TargetClusterSize = 100
	}
	if c.K == 0 {
		c.K = n / c.TargetClusterSize
	}
	if c.K < 1 {
		c.K = 1
	}
	if c.K > n {
		c.K = n
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
	if c.BatchSize > n {
		c.BatchSize = n
	}
	if c.Iterations == 0 {
		c.Iterations = 3 * n / c.BatchSize
		if c.Iterations < 30 {
			c.Iterations = 30
		}
		if c.Iterations > 600 {
			c.Iterations = 600
		}
	}
	if c.BalancePenalty == 0 {
		c.BalancePenalty = 0.12
	}
}

// Result holds trained centroids.
type Result struct {
	Centroids *vec.Matrix
	// Counts is the per-centroid assignment count accumulated during
	// training (v in Algorithm 1) — a cheap balance diagnostic.
	Counts []int
}

// MiniBatchKMeans trains centroids per Algorithm 1.
func MiniBatchKMeans(cfg Config, src Source) (*Result, error) {
	n := src.Len()
	if n == 0 {
		return nil, fmt.Errorf("clustering: empty source")
	}
	cfg.fill(n)
	dim := src.Dim()
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids, err := initCentroids(cfg, src, rng)
	if err != nil {
		return nil, err
	}

	counts := make([]int, cfg.K) // v: per-center counts (line 3)
	batch := vec.NewMatrix(cfg.BatchSize, dim)
	assign := make([]int, cfg.BatchSize) // d: cached assignments (line 4)
	sc := scorer{metric: cfg.Metric}

	for iter := 0; iter < cfg.Iterations; iter++ {
		idx := samplePositions(rng, n, cfg.BatchSize)
		if err := src.Read(idx, batch); err != nil {
			return nil, err
		}

		// Assignment phase (lines 7-8): nearest centroid under the
		// balance penalty, with counts frozen for the whole batch.
		sc.setRows(batch)
		sc.score(centroids, func(i int, dists []float32) {
			assign[i] = nearestBalanced(dists, counts, cfg)
		})

		// Update phase (lines 9-13): per-center learning rate 1/v[c].
		for i := 0; i < cfg.BatchSize; i++ {
			c := assign[i]
			counts[c]++
			eta := float32(1) / float32(counts[c])
			vec.Lerp(centroids.Row(c), batch.Row(i), eta)
		}
	}
	if cfg.Metric == vec.Cosine {
		for c := 0; c < cfg.K; c++ {
			vec.Normalize(centroids.Row(c))
		}
	}
	return &Result{Centroids: centroids, Counts: counts}, nil
}

// assignRows is the row chunk of a scorer: the rows whose distances to
// every centroid one DistancesManyToMany call computes.
const assignRows = 96

// scorer computes the distances from the rows of a matrix to every
// centroid, assignRows rows per DistancesManyToMany call, reusing its
// scratch. setRows binds the rows (and, for L2, computes their squared
// norms once); score may then run against any number of centroid sets.
type scorer struct {
	metric                     vec.Metric
	x                          *vec.Matrix
	dists, rowNorms, centNorms []float32
}

// setRows binds the matrix whose rows score reads.
func (s *scorer) setRows(x *vec.Matrix) {
	s.x = x
	if s.metric == vec.L2 {
		s.rowNorms = x.Norms(s.rowNorms[:0])
	}
}

// score calls fn(i, dists) for every row i in order, where dists[c] is the
// metric distance from the row to centroid c of cents. dists is scratch,
// overwritten after fn returns.
func (s *scorer) score(cents *vec.Matrix, fn func(i int, dists []float32)) {
	x, k := s.x, cents.Rows
	var cn []float32
	if s.metric == vec.L2 {
		s.centNorms = cents.Norms(s.centNorms[:0])
		cn = s.centNorms
	}
	if need := min(assignRows, x.Rows) * k; cap(s.dists) < need {
		s.dists = make([]float32, need)
	}
	for base := 0; base < x.Rows; base += assignRows {
		end := min(base+assignRows, x.Rows)
		dists := s.dists[:(end-base)*k]
		var rn []float32
		if cn != nil {
			rn = s.rowNorms[base:end]
		}
		vec.DistancesManyToMany(s.metric, x.Slice(base, end), cents, rn, cn, dists)
		for i := base; i < end; i++ {
			fn(i, dists[(i-base)*k:(i-base+1)*k])
		}
	}
}

// nearestBalanced implements NEAREST(C, v, d, x): the centroid minimizing
// distance plus a penalty that grows with the centroid's assignment count,
// spreading vectors across nearby clusters instead of forming mega-clusters.
func nearestBalanced(dists []float32, counts []int, cfg Config) int {
	if cfg.BalancePenalty == 0 {
		return argmin(dists)
	}
	// Scale the penalty by the current mean distance so it tracks the
	// data's magnitude as centroids converge.
	var mean float32
	for _, d := range dists {
		mean += d
	}
	mean /= float32(len(dists))
	best, bestScore := 0, float32(0)
	target := float32(cfg.TargetClusterSize)
	for c, d := range dists {
		score := d + cfg.BalancePenalty*mean*float32(counts[c])/target
		if c == 0 || score < bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

func argmin(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// initCentroids seeds the centroid matrix per the configured strategy.
func initCentroids(cfg Config, src Source, rng *rand.Rand) (*vec.Matrix, error) {
	n, dim := src.Len(), src.Dim()
	useKPP := cfg.Init == InitKMeansPP || (cfg.Init == InitAuto && cfg.K <= kppMaxAutoK)
	if !useKPP || cfg.K <= 1 {
		centroids := vec.NewMatrix(cfg.K, dim)
		if err := src.Read(samplePositions(rng, n, cfg.K), centroids); err != nil {
			return nil, err
		}
		return centroids, nil
	}
	// k-means++ over a bounded sample: D^2-weighted sequential picks.
	sampleSize := 4 * cfg.K
	if sampleSize < 2048 {
		sampleSize = 2048
	}
	if sampleSize > n {
		sampleSize = n
	}
	sample := vec.NewMatrix(sampleSize, dim)
	if err := src.Read(samplePositions(rng, n, sampleSize), sample); err != nil {
		return nil, err
	}
	centroids := vec.NewMatrix(cfg.K, dim)
	centroids.SetRow(0, sample.Row(rng.Intn(sampleSize)))
	// Each pick is a single query against the whole sample, which the
	// many-to-many tile has nothing to share with: one DistancesOneToMany
	// call without norms scores it pair by pair, exactly as Distance does.
	dists := make([]float32, sampleSize)
	distsTo := func(c int) []float32 {
		vec.DistancesOneToMany(cfg.Metric, centroids.Row(c), sample, nil, dists)
		return dists
	}
	minDist := make([]float64, sampleSize)
	for i, d := range distsTo(0) {
		minDist[i] = float64(d)
	}
	for c := 1; c < cfg.K; c++ {
		var total float64
		for _, d := range minDist {
			total += d
		}
		pick := sampleSize - 1
		if total > 0 {
			r := rng.Float64() * total
			acc := 0.0
			for i, d := range minDist {
				acc += d
				if acc >= r {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(sampleSize)
		}
		centroids.SetRow(c, sample.Row(pick))
		for i, d := range distsTo(c) {
			if d := float64(d); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return centroids, nil
}

// samplePositions returns k distinct positions when k is small relative to
// n (initialization), otherwise k positions sampled with replacement
// (mini-batches, per Sculley).
func samplePositions(rng *rand.Rand, n, k int) []int {
	out := make([]int, k)
	if k <= n/2 {
		seen := make(map[int]struct{}, k)
		for i := 0; i < k; {
			p := rng.Intn(n)
			if _, dup := seen[p]; dup {
				continue
			}
			seen[p] = struct{}{}
			out[i] = p
			i++
		}
		return out
	}
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// Assign returns the index of the nearest centroid to x (the final
// assignment function g of Algorithm 1, without balance constraints).
func Assign(metric vec.Metric, centroids *vec.Matrix, x []float32, scratch []float32) int {
	vec.DistancesOneToMany(metric, x, centroids, nil, scratch)
	return argmin(scratch)
}

// FullKMeans is the conventional Lloyd's algorithm requiring the entire
// training set in memory — the InMemory baseline of Figures 6 and 8. It
// runs maxIters rounds or until assignments stabilize.
func FullKMeans(cfg Config, data *vec.Matrix, maxIters int) (*Result, error) {
	n := data.Rows
	if n == 0 {
		return nil, fmt.Errorf("clustering: empty data")
	}
	cfg.fill(n)
	if maxIters <= 0 {
		maxIters = 25
	}
	dim := data.Dim
	rng := rand.New(rand.NewSource(cfg.Seed))

	centroids, err := initCentroids(cfg, MatrixSource{M: data}, rng)
	if err != nil {
		return nil, err
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	sums := vec.NewMatrix(cfg.K, dim)
	counts := make([]int, cfg.K)
	sc := scorer{metric: cfg.Metric}
	sc.setRows(data)

	for iter := 0; iter < maxIters; iter++ {
		changed := 0
		sc.score(centroids, func(i int, dists []float32) {
			if c := argmin(dists); c != assign[i] {
				changed++
				assign[i] = c
			}
		})
		if changed == 0 {
			break
		}
		// Recompute means.
		for c := 0; c < cfg.K; c++ {
			counts[c] = 0
			row := sums.Row(c)
			for j := range row {
				row[j] = 0
			}
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			vec.Add(sums.Row(c), data.Row(i))
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster with a random vector.
				centroids.SetRow(c, data.Row(rng.Intn(n)))
				continue
			}
			row := sums.Row(c)
			inv := 1 / float32(counts[c])
			dst := centroids.Row(c)
			for j := range dst {
				dst[j] = row[j] * inv
			}
		}
	}
	if cfg.Metric == vec.Cosine {
		for c := 0; c < cfg.K; c++ {
			vec.Normalize(centroids.Row(c))
		}
	}
	return &Result{Centroids: centroids, Counts: counts}, nil
}
