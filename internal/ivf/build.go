package ivf

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"micronn/internal/btree"
	"micronn/internal/clustering"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// ErrNotBuilt is returned by FlushDelta when the index has no partitions
// yet; callers should run Rebuild first.
var ErrNotBuilt = errors.New("ivf: index has no partitions; run Rebuild")

// MaintenanceStats reports the cost of a maintenance operation. RowChanges
// is the number of database row writes (inserts + deletes + updates) — the
// I/O-footprint metric of Figure 10d.
type MaintenanceStats struct {
	Duration        time.Duration
	RowChanges      int64
	VectorsAssigned int64
	Partitions      int
}

// partVid identifies a vector row by its clustered key.
type partVid struct {
	part int64
	vid  int64
}

// collectKeys scans the clustered key of every vector (optionally limited
// to one partition with havePrefix). Memory is 16 bytes per vector — the
// same order as the paper's sampling infrastructure, far below buffering
// the vectors themselves.
func (ix *Index) collectKeys(txn btree.ReadTxn, prefix []reldb.Value) ([]partVid, error) {
	var keys []partVid
	err := ix.vectors.ScanKeys(txn, prefix, func(key reldb.Row) error {
		keys = append(keys, partVid{part: key[0].Int, vid: key[1].Int})
		return nil
	})
	return keys, err
}

// diskSource adapts the on-disk vector table to the clustering trainer:
// batches are fetched by key through the buffer pool, so training memory
// stays bounded by the mini-batch (Figure 8's property). keys is in
// clustered-key order.
type diskSource struct {
	ix   *Index
	txn  btree.ReadTxn
	keys []partVid
	dim  int
	seek reldb.Seeker
}

func (s *diskSource) Len() int { return len(s.keys) }
func (s *diskSource) Dim() int { return s.dim }

// Read visits the requested rows in the key order of the table it reads,
// through one path-keeping seeker, and decodes each borrowed row into its
// requested slot of dst, so the rows the trainer sees are in request
// order. The exact vectors are in the raw store, keyed by vid, when
// quantization is on (partition rows then hold SQ8 codes), and in the
// clustered rows, where position order is key order, otherwise.
func (s *diskSource) Read(indices []int, dst *vec.Matrix) error {
	raw := s.ix.rawvecs != nil
	var order []int
	if raw {
		s.seek.Reset(s.ix.rawvecs, s.txn)
		order = keyOrder(len(indices), func(i int) int64 { return s.keys[indices[i]].vid })
	} else {
		s.seek.Reset(s.ix.vectors, s.txn)
		order = keyOrder(len(indices), func(i int) int64 { return int64(indices[i]) })
	}
	defer s.seek.Reset(nil, nil)
	for _, slot := range order {
		k := s.keys[indices[slot]]
		var blob []byte
		var err error
		if raw {
			blob, err = borrowedRawBlob(&s.seek, k.vid)
		} else {
			_, blob, _, err = borrowedVectorRow(&s.seek, k)
		}
		if err != nil {
			return fmt.Errorf("ivf: training read (%d,%d): %w", k.part, k.vid, err)
		}
		dst.AppendRowBlob(slot, blob)
	}
	return nil
}

// trainCodebook streams every vector once through a range trainer and
// persists the resulting codebook in the meta table (the paper's codebook
// refresh: retrained at every full rebuild, alongside the centroids). The
// trainer kind follows the configured quantization, and a configured clip
// percentile trims each dimension's range to reservoir-sampled quantiles
// so outliers cannot stretch the code grid. The raw store is keyed by
// vid, so this is one sequential scan, not a point lookup per vector.
func (ix *Index) trainCodebook(wt *storage.WriteTxn) (*quant.Codebook, error) {
	tr := quant.NewTrainerKind(ix.cfg.Quantization, ix.cfg.Dim, ix.cfg.ClipPercentile)
	x := make([]float32, ix.cfg.Dim)
	err := ix.rawvecs.Scan(wt, nil, func(row reldb.Row) error {
		tr.Add(vec.FromBlob(x, row[1].Bts))
		return nil
	})
	if err != nil {
		return nil, err
	}
	cb := tr.Codebook()
	if err := ix.meta.Put(wt, reldb.Row{reldb.S(metaCodebook), reldb.B(cb.Marshal())}); err != nil {
		return nil, err
	}
	return cb, nil
}

// assignChunk is the unit of the rewrite pass: enough rows to amortize the
// batched distance kernel without holding many vectors in memory.
const assignChunk = 256

// Rebuild retrains the quantizer with mini-batch k-means and rewrites every
// vector into its new partition (paper §3.1). It runs inside one write
// transaction: readers keep a consistent pre-rebuild snapshot throughout,
// and the writer's memory stays bounded by WAL spilling.
func (ix *Index) Rebuild(wt *storage.WriteTxn) (*MaintenanceStats, error) {
	start := time.Now()
	ms := &MaintenanceStats{}
	st, err := ix.getState(wt)
	if err != nil {
		return nil, err
	}

	keys, err := ix.collectKeys(wt, nil)
	if err != nil {
		return nil, err
	}
	if int64(len(keys)) != st.NumVectors {
		return nil, fmt.Errorf("ivf: state count %d != scanned %d", st.NumVectors, len(keys))
	}

	if len(keys) == 0 {
		if err := ix.centroids.Truncate(wt); err != nil {
			return nil, err
		}
		if ix.rawvecs != nil {
			if err := ix.meta.Delete(wt, reldb.S(metaCodebook)); err != nil && !errors.Is(err, reldb.ErrNotFound) {
				return nil, err
			}
		}
		st.DeltaCount, st.NumPartitions = 0, 0
		st.ResidualSum, st.ResidualRows = 0, 0
		st.NextPartID = 1
		st.Generation++
		if err := ix.putState(wt, st); err != nil {
			return nil, err
		}
		ms.Duration = time.Since(start)
		return ms, nil
	}

	// Refresh the SQ8 codebook before any rows are rewritten: the rewrite
	// pass encodes with it.
	var cb *quant.Codebook
	if ix.rawvecs != nil {
		if cb, err = ix.trainCodebook(wt); err != nil {
			return nil, err
		}
		ms.RowChanges++
	}

	// Train the quantizer on the disk-resident vectors.
	src := &diskSource{ix: ix, txn: wt, keys: keys, dim: ix.cfg.Dim}
	res, err := clustering.MiniBatchKMeans(clustering.Config{
		TargetClusterSize: ix.cfg.TargetPartitionSize,
		BatchSize:         ix.cfg.ClusterBatchSize,
		BalancePenalty:    ix.cfg.BalancePenalty,
		Metric:            ix.cfg.Metric,
		Seed:              ix.cfg.Seed,
	}, src)
	if err != nil {
		return nil, err
	}
	k := res.Centroids.Rows

	// Rewrite pass: assign every vector to its nearest centroid and move
	// the rows, in vid order. New partition ids start at NextPartID (ids
	// 1..k on the first build; 0 is the delta), past every key already in
	// the table, so each new partition receives its rows as an ascending
	// run in a key range of its own and its leaves fill.
	sort.Slice(keys, func(i, j int) bool { return keys[i].vid < keys[j].vid })
	firstPart := max(st.NextPartID, 1)
	counts := make([]int64, k)
	chunk := vec.NewMatrix(assignChunk, ix.cfg.Dim)
	dists := make([]float32, assignChunk*k)
	assetsInChunk := make([]string, assignChunk)
	copiesInChunk := make([][]reldb.Value, assignChunk)
	order := make([]int, 0, assignChunk)
	var blob []byte
	centNorms := res.Centroids.Norms(nil)
	var vecSeek, rawSeek reldb.Seeker
	defer vecSeek.Reset(nil, nil)
	defer rawSeek.Reset(nil, nil)

	for base := 0; base < len(keys); base += assignChunk {
		ck := keys[base:min(base+assignChunk, len(keys))]
		n := len(ck)
		sub := chunk.Slice(0, n)
		// Read the chunk in key order through seekers bound afresh, since
		// the previous chunk's moves invalidated their kept paths. Nothing
		// borrowed outlives the reads: asset ids are copied, attribute
		// copies decoded, and vectors decoded into sub, from which the
		// moved rows are encoded.
		order = order[:0]
		for i := range ck {
			order = append(order, i)
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(ck[a].part, ck[b].part) })
		vecSeek.Reset(ix.vectors, wt)
		for _, i := range order {
			asset, payload, copies, err := borrowedVectorRow(&vecSeek, ck[i])
			if err != nil {
				return nil, err
			}
			assetsInChunk[i] = string(asset)
			if len(ix.copies) > 0 {
				if copiesInChunk[i], err = reldb.DecodeRow(copies, len(ix.copies)); err != nil {
					return nil, err
				}
			}
			if cb == nil {
				sub.AppendRowBlob(i, payload)
			}
		}
		if cb != nil {
			// Partition rows hold stale codes (or delta float32);
			// assignment needs the exact vector from the raw store, which
			// is keyed by vid: the chunk's order.
			rawSeek.Reset(ix.rawvecs, wt)
			for i, key := range ck {
				raw, err := borrowedRawBlob(&rawSeek, key.vid)
				if err != nil {
					return nil, err
				}
				sub.AppendRowBlob(i, raw)
			}
		}
		vec.DistancesManyToMany(ix.cfg.Metric, sub, res.Centroids, nil, l2Only(ix.cfg.Metric, centNorms), dists[:n*k])
		for i, old := range ck {
			best := argminRange(dists[i*k : (i+1)*k])
			newPart := firstPart + int64(best)
			counts[best]++
			ms.VectorsAssigned++
			if cb != nil {
				// Re-encode under the refreshed codebook.
				blob, _ = cb.EncodeRow(blob[:0], sub.Row(i))
			} else {
				blob = vec.ToBlob(blob[:0], sub.Row(i))
			}
			if err := ix.moveRow(wt, old.part, newPart, partRow{vid: old.vid, asset: assetsInChunk[i], blob: blob, copies: copiesInChunk[i]}); err != nil {
				return nil, err
			}
			ms.RowChanges += 3
		}
		if err := wt.SpillIfNeeded(); err != nil {
			return nil, err
		}
	}

	// Rewrite the centroid table.
	if err := ix.centroids.Truncate(wt); err != nil {
		return nil, err
	}
	for c := 0; c < k; c++ {
		blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), res.Centroids.Row(c))
		if err := ix.centroids.Put(wt, reldb.Row{reldb.I(firstPart + int64(c)), reldb.B(blob), reldb.I(counts[c])}); err != nil {
			return nil, err
		}
		ms.RowChanges++
	}

	st.DeltaCount = 0
	st.NumPartitions = int64(k)
	st.NextPartID = firstPart + int64(k)
	// The codebook was just trained: the drift gauge starts over.
	st.ResidualSum, st.ResidualRows = 0, 0
	st.Generation++
	if err := ix.putState(wt, st); err != nil {
		return nil, err
	}

	// Refresh optimizer statistics (the ANALYZE pass: per-column
	// histograms rebuilt at index-build time, §4 highlights) under the
	// generation bump above.
	if err := ix.analyze(wt); err != nil {
		return nil, err
	}

	ms.Partitions = k
	ms.Duration = time.Since(start)
	return ms, nil
}

// FlushDelta incorporates the delta-store into the IVF index incrementally
// (paper §3.6): each delta vector joins the partition with the nearest
// centroid, and that centroid is updated to the running mean of its
// content. Disk I/O is proportional to the delta size, not the index size.
func (ix *Index) FlushDelta(wt *storage.WriteTxn) (*MaintenanceStats, error) {
	start := time.Now()
	ms := &MaintenanceStats{}
	st, d, err := ix.load(wt)
	if err != nil {
		return nil, err
	}
	if st.NumPartitions == 0 {
		return nil, ErrNotBuilt
	}
	deltaKeys, err := ix.collectKeys(wt, []reldb.Value{reldb.I(DeltaPartition)})
	if err != nil {
		return nil, err
	}
	if len(deltaKeys) == 0 {
		ms.Duration = time.Since(start)
		return ms, nil
	}
	// Quantized indexes encode flushed vectors with the codebook from the
	// last full rebuild: no retraining on the streaming path. Out-of-range
	// values clamp; the exact rerank absorbs the error until the next
	// rebuild refreshes the codebook, and each row's residual byte keeps its
	// bound valid meanwhile. The residuals feed the drift gauge.
	cb := d.cb
	if ix.rawvecs != nil && cb == nil {
		return nil, fmt.Errorf("ivf: quantized index has partitions but no codebook")
	}

	// Private copy of the centroids: the cached set is shared with
	// concurrent readers.
	cs := d.cents
	cents := vec.NewMatrix(cs.mat.Rows, cs.mat.Dim)
	copy(cents.Data, cs.mat.Data)
	// Counts come from the centroid table, not the cached set: deletes
	// decrement them without bumping the generation, so the cache holds no
	// counts.
	counts, err := ix.freshCounts(wt, cs.ids)
	if err != nil {
		return nil, err
	}
	touched := make(map[int]bool)

	dists := make([]float32, cents.Rows)
	x := make([]float32, ix.cfg.Dim)
	for _, key := range deltaKeys {
		row, err := ix.vectors.Get(wt, reldb.I(key.part), reldb.I(key.vid))
		if err != nil {
			return nil, err
		}
		vec.FromBlob(x, row[3].Bts)
		vec.DistancesOneToMany(ix.cfg.Metric, x, cents, nil, dists)
		best := argminRange(dists)
		newPart := cs.ids[best]
		asset := row[2].Str
		blob := row[3].Bts
		if cb != nil {
			var r float64
			blob, r = cb.EncodeRow(make([]byte, 0, cb.CodeSize()+1), x)
			if !math.IsInf(r, 0) && !math.IsNaN(r) {
				st.ResidualSum += r
				st.ResidualRows++
			}
		}
		if err := ix.moveRow(wt, key.part, newPart, partRow{vid: key.vid, asset: asset, blob: blob, copies: row[4:]}); err != nil {
			return nil, err
		}
		ms.RowChanges += 3
		ms.VectorsAssigned++

		// Running-mean centroid update (Arandjelovic & Zisserman '13).
		counts[best]++
		eta := float32(1) / float32(counts[best])
		vec.Lerp(cents.Row(best), x, eta)
		touched[best] = true

		if err := wt.SpillIfNeeded(); err != nil {
			return nil, err
		}
	}

	// Persist only the touched centroids: I/O stays proportional to the
	// update, which is the whole point of the incremental path.
	for c := range touched {
		blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), cents.Row(c))
		if err := ix.centroids.Put(wt, reldb.Row{reldb.I(cs.ids[c]), reldb.B(blob), reldb.I(counts[c])}); err != nil {
			return nil, err
		}
		ms.RowChanges++
	}

	st.DeltaCount = 0
	st.Generation++
	if err := ix.putState(wt, st); err != nil {
		return nil, err
	}
	ms.Partitions = cents.Rows
	ms.Duration = time.Since(start)
	return ms, nil
}

// freshCounts reads the per-partition row counts from the centroid table,
// aligned with ids. One sequential scan of a k-row table.
func (ix *Index) freshCounts(txn btree.ReadTxn, ids []int64) ([]int64, error) {
	pos := make(map[int64]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	counts := make([]int64, len(ids))
	err := ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		if i, ok := pos[row[0].Int]; ok {
			counts[i] = row[2].Int
		}
		return nil
	})
	return counts, err
}

// AnalyzeAttributes refreshes the optimizer's statistics for the attribute
// columns of the vids table. It bumps the generation, so searches load the
// fresh statistics. No rows change, but its commit still moves the store's
// commit horizon, and with it the result cache's generation: fresh
// statistics can flip the optimizer's pre/post-filter choice, and the two
// plans may rank borderline candidates differently — a cached response must
// not outlive the plan decision that produced it.
func (ix *Index) AnalyzeAttributes(wt *storage.WriteTxn) error {
	if len(ix.cfg.Attributes) == 0 {
		return nil
	}
	if err := ix.analyze(wt); err != nil {
		return err
	}
	st, err := ix.getState(wt)
	if err != nil {
		return err
	}
	st.Generation++
	return ix.putState(wt, st)
}

// analyze computes and saves the attribute statistics, leaving the state
// row to the caller.
func (ix *Index) analyze(wt *storage.WriteTxn) error {
	if len(ix.cfg.Attributes) == 0 {
		return nil
	}
	cols := make([]string, len(ix.cfg.Attributes))
	for i, a := range ix.cfg.Attributes {
		cols[i] = a.Name
	}
	ts, err := stats.Analyze(wt, ix.vids, cols)
	if err != nil {
		return err
	}
	return stats.Save(ix.db, wt, tblVIDs, ts)
}

func l2Only(m vec.Metric, norms []float32) []float32 {
	if m == vec.L2 {
		return norms
	}
	return nil
}

func argminRange(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
