package ivf

import (
	"fmt"
	"sync"

	"micronn/internal/clustering"
	"micronn/internal/topk"
	"micronn/internal/vec"
)

// MemIndex is the InMemory baseline of the paper's evaluation (§4.1.4): the
// same IVF search algorithm with every vector buffered in memory and the
// quantizer trained by conventional full-batch k-means. It lower-bounds
// query latency while exposing the memory cost the disk-resident index
// avoids (Figures 4-6).
type MemIndex struct {
	dim        int
	metric     vec.Metric
	targetSize int
	workers    int

	centroids *vec.Matrix
	centNorms []float32
	// partitions[i] holds the row indices (into data) of partition i.
	partitions [][]int32
	data       *vec.Matrix
	assets     []string
	vids       []int64
}

// MemIndexConfig parameterizes BuildMemIndex.
type MemIndexConfig struct {
	Metric              vec.Metric
	TargetPartitionSize int
	Workers             int
	Seed                int64
	// KMeansIters bounds Lloyd iterations (default 25).
	KMeansIters int
}

// BuildMemIndex trains full-batch k-means over data (which it retains) and
// assigns every vector to its nearest centroid.
func BuildMemIndex(cfg MemIndexConfig, data *vec.Matrix, assets []string) (*MemIndex, error) {
	if data.Rows == 0 {
		return nil, fmt.Errorf("ivf: empty data")
	}
	if len(assets) != data.Rows {
		return nil, fmt.Errorf("ivf: %d assets for %d vectors", len(assets), data.Rows)
	}
	if cfg.TargetPartitionSize == 0 {
		cfg.TargetPartitionSize = 100
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	res, err := clustering.FullKMeans(clustering.Config{
		TargetClusterSize: cfg.TargetPartitionSize,
		Metric:            cfg.Metric,
		Seed:              cfg.Seed,
	}, data, cfg.KMeansIters)
	if err != nil {
		return nil, err
	}
	k := res.Centroids.Rows
	m := &MemIndex{
		dim:        data.Dim,
		metric:     cfg.Metric,
		targetSize: cfg.TargetPartitionSize,
		workers:    cfg.Workers,
		centroids:  res.Centroids,
		centNorms:  res.Centroids.Norms(nil),
		partitions: make([][]int32, k),
		data:       data,
		assets:     assets,
		vids:       make([]int64, data.Rows),
	}
	dists := make([]float32, k)
	for i := 0; i < data.Rows; i++ {
		m.vids[i] = int64(i)
		c := clustering.Assign(cfg.Metric, res.Centroids, data.Row(i), dists)
		m.partitions[c] = append(m.partitions[c], int32(i))
	}
	return m, nil
}

// MemoryBytes estimates the index's resident memory: vectors, centroids and
// partition assignments.
func (m *MemIndex) MemoryBytes() int64 {
	vecs := int64(len(m.data.Data)) * 4
	cents := int64(len(m.centroids.Data)) * 4
	parts := int64(m.data.Rows) * 4
	return vecs + cents + parts
}

// Partitions returns the partition count.
func (m *MemIndex) Partitions() int { return len(m.partitions) }

// Search performs ANN search scanning the nprobe nearest partitions.
func (m *MemIndex) Search(q []float32, k, nprobe int) ([]topk.Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ivf: K must be positive")
	}
	if len(q) != m.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), m.dim)
	}
	if nprobe <= 0 {
		nprobe = 8
	}
	if nprobe > len(m.partitions) {
		nprobe = len(m.partitions)
	}
	cd := make([]float32, m.centroids.Rows)
	vec.DistancesOneToMany(m.metric, q, m.centroids, l2Only(m.metric, m.centNorms), cd)
	probe := nearest(cd, nprobe, nil)

	workers := m.workers
	if workers > len(probe) {
		workers = len(probe)
	}
	if workers < 1 {
		workers = 1
	}
	heaps := make([]*topk.Heap, workers)
	var wg sync.WaitGroup
	partCh := make(chan int, len(probe))
	for _, p := range probe {
		partCh <- p
	}
	close(partCh)
	for w := 0; w < workers; w++ {
		heaps[w] = topk.New(k)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := range partCh {
				for _, ri := range m.partitions[p] {
					d := vec.Distance(m.metric, q, m.data.Row(int(ri)))
					heaps[w].Push(topk.Result{AssetID: m.assets[ri], VectorID: m.vids[ri], Distance: d})
				}
			}
		}(w)
	}
	wg.Wait()
	return topk.Merge(k, heaps...), nil
}

// SearchExact brute-forces the whole collection (ground truth helper).
func (m *MemIndex) SearchExact(q []float32, k int) ([]topk.Result, error) {
	if len(q) != m.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), m.dim)
	}
	h := topk.New(k)
	dists := make([]float32, m.data.Rows)
	vec.DistancesOneToMany(m.metric, q, m.data, nil, dists)
	for i, d := range dists {
		h.Push(topk.Result{AssetID: m.assets[i], VectorID: m.vids[i], Distance: d})
	}
	return h.Results(), nil
}
