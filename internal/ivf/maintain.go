package ivf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"time"

	"micronn/internal/btree"
	"micronn/internal/clustering"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// Incremental partition maintenance (paper §3.6): instead of answering every
// growth signal with a full rebuild — which holds the single writer for a
// whole-index rewrite — the index monitor produces a MaintenancePlan whose
// steps each touch one partition: oversized partitions are split by a local
// k-means over their own rows, undersized ones are folded into their nearest
// surviving centroids. Every step runs in its own short write transaction,
// so concurrent readers and writers wait at most one partition's worth of
// I/O. A full Rebuild remains only for the initial build of a never-built
// index.
//
// A split is two functions. PrepareSplit collects the partition and runs
// the local k-means; it only reads, so the caller may run it on a read
// snapshot, outside the store-wide writer gate, while upserts, deletes and
// searches proceed. ApplySplit then runs in a short write transaction: it
// re-reads the partition and compares its (vid, payload) rows with the
// plan's, returning ErrPlanStale if any commit in between changed them.
// Equal rows mean the plan is still valid, because vids are never reused
// and a vid's asset and exact vector never change; a Rebuild in between
// re-encodes the payloads and so fails the check. MaintainStep runs the
// same two functions inside one transaction, where the check always holds.

// MaintenanceAction names one step of a maintenance plan.
type MaintenanceAction string

// Maintenance actions, in the order the planner prefers them.
const (
	// ActionNone means the index is within all policy bounds.
	ActionNone MaintenanceAction = "none"
	// ActionRebuild is the initial full build of a never-built index.
	ActionRebuild MaintenanceAction = "rebuild"
	// ActionFlush folds the delta-store into the IVF partitions.
	ActionFlush MaintenanceAction = "flush"
	// ActionSplit re-clusters one oversized partition into 2+ partitions.
	ActionSplit MaintenanceAction = "split"
	// ActionMerge folds one undersized partition into its neighbors.
	ActionMerge MaintenanceAction = "merge"
)

// MaintenancePolicy bounds the delta backlog and the per-partition sizes
// the planner maintains. Zero values pick defaults derived from the
// configured TargetPartitionSize.
type MaintenancePolicy struct {
	// FlushThreshold flushes the delta-store once it holds at least this
	// many vectors (default: TargetPartitionSize).
	FlushThreshold int
	// MinPartitionSize merges partitions smaller than this
	// (default: TargetPartitionSize/4, at least 1; clamped to a third of
	// MaxPartitionSize so split results never bounce back into merges).
	MinPartitionSize int
	// MaxPartitionSize splits partitions larger than this
	// (default: 2*TargetPartitionSize).
	MaxPartitionSize int
}

func (ix *Index) fillPolicy(p MaintenancePolicy) MaintenancePolicy {
	target := ix.cfg.TargetPartitionSize
	if p.FlushThreshold <= 0 {
		p.FlushThreshold = target
	}
	if p.MaxPartitionSize <= 0 {
		p.MaxPartitionSize = 2 * target
	}
	if p.MinPartitionSize <= 0 {
		p.MinPartitionSize = target / 4
	}
	// Keep the merge bound well under the split bound: splitting an
	// oversized partition yields pieces of roughly MaxPartitionSize/2, and
	// a merge bound close to that would ping-pong split results straight
	// back into merges.
	if p.MinPartitionSize > p.MaxPartitionSize/3 {
		p.MinPartitionSize = p.MaxPartitionSize / 3
	}
	if p.MinPartitionSize < 1 {
		p.MinPartitionSize = 1
	}
	return p
}

// MaintenancePlan is the index monitor's decision: the single next step
// that moves the index toward the policy bounds, or ActionNone.
type MaintenancePlan struct {
	Action MaintenanceAction
	// Partition is the split/merge target.
	Partition int64
	// Size is the row count that triggered the step: the delta backlog for
	// a flush, the target partition's size for a split or merge.
	Size int64
}

// PlanMaintenance inspects the index at txn's snapshot and returns the next
// maintenance step. The per-partition sizes come from the centroid table's
// transactional counts, so the plan is exact, not an estimate. Priority:
// initial build, delta flush, split (largest offender first), merge
// (smallest partition first).
func (ix *Index) PlanMaintenance(txn btree.ReadTxn, pol MaintenancePolicy) (*MaintenancePlan, error) {
	pol = ix.fillPolicy(pol)
	st, err := ix.getState(txn)
	if err != nil {
		return nil, err
	}
	if st.NumPartitions == 0 {
		if st.NumVectors > 0 {
			return &MaintenancePlan{Action: ActionRebuild, Size: st.NumVectors}, nil
		}
		return &MaintenancePlan{Action: ActionNone}, nil
	}
	if st.DeltaCount >= int64(pol.FlushThreshold) {
		return &MaintenancePlan{Action: ActionFlush, Size: st.DeltaCount}, nil
	}
	splitPart, mergePart := int64(-1), int64(-1)
	var splitN, mergeN int64
	err = ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		id, cnt := row[0].Int, row[2].Int
		if cnt > int64(pol.MaxPartitionSize) && cnt > splitN {
			splitPart, splitN = id, cnt
		}
		if cnt < int64(pol.MinPartitionSize) && (mergePart < 0 || cnt < mergeN) {
			mergePart, mergeN = id, cnt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if splitPart >= 0 {
		return &MaintenancePlan{Action: ActionSplit, Partition: splitPart, Size: splitN}, nil
	}
	if mergePart >= 0 && st.NumPartitions >= 2 {
		return &MaintenancePlan{Action: ActionMerge, Partition: mergePart, Size: mergeN}, nil
	}
	return &MaintenancePlan{Action: ActionNone}, nil
}

// MaintainStep plans and executes at most one maintenance step inside wt.
// Decision and action share the transaction, so the state the planner read
// cannot change before the step runs (the decide-then-act race a
// two-transaction Maintain would have). Callers loop MaintainStep in fresh
// short transactions until it returns ActionNone.
func (ix *Index) MaintainStep(wt *storage.WriteTxn, pol MaintenancePolicy) (*MaintenancePlan, *MaintenanceStats, error) {
	plan, err := ix.PlanMaintenance(wt, pol)
	if err != nil {
		return nil, nil, err
	}
	var ms *MaintenanceStats
	switch plan.Action {
	case ActionRebuild:
		ms, err = ix.Rebuild(wt)
	case ActionFlush:
		ms, err = ix.FlushDelta(wt)
	case ActionSplit:
		var sp *SplitPlan
		if sp, err = ix.PrepareSplit(wt, plan.Partition); err == nil {
			ms, err = ix.ApplySplit(wt, sp)
		}
	case ActionMerge:
		ms, err = ix.MergePartitions(wt, plan.Partition)
	default:
		ms = &MaintenanceStats{}
	}
	if err != nil {
		return nil, nil, err
	}
	return plan, ms, nil
}

// partRow is one vector row buffered for a move. blob holds the partition
// row's payload (SQ8 code or float32 vector) copied out of
// transaction-owned memory, copies the row's attribute copies as read.
type partRow struct {
	vid    int64
	asset  string
	blob   []byte
	copies []reldb.Value
}

// collectPartition buffers the rows of one partition. Partitions are
// size-bounded by this very maintenance machinery, so the buffer stays a
// few hundred rows.
func (ix *Index) collectPartition(txn btree.ReadTxn, part int64) ([]partRow, error) {
	var rows []partRow
	err := ix.vectors.Scan(txn, []reldb.Value{reldb.I(part)}, func(row reldb.Row) error {
		rows = append(rows, partRow{
			vid:    row[1].Int,
			asset:  row[2].Str,
			blob:   append([]byte(nil), row[3].Bts...),
			copies: row[4:],
		})
		return nil
	})
	return rows, err
}

// exactVectors decodes the exact float32 vectors of rows into a matrix:
// from the raw store when the index is quantized (partition rows then hold
// lossy codes), from the row blobs otherwise.
func (ix *Index) exactVectors(txn btree.ReadTxn, rows []partRow) (*vec.Matrix, error) {
	m := vec.NewMatrix(len(rows), ix.cfg.Dim)
	for i, r := range rows {
		blob := r.blob
		if ix.rawvecs != nil {
			raw, err := ix.rawVector(txn, r.vid)
			if err != nil {
				return nil, fmt.Errorf("ivf: raw vector %d: %w", r.vid, err)
			}
			blob = raw
		}
		m.AppendRowBlob(i, blob)
	}
	return m, nil
}

// moveRow rewrites r's vector row from partition src to dst with payload
// r.blob and points the asset's mapping at dst: three row writes, the one
// row move of Rebuild, FlushDelta, splits and merges. Rebuild passes the
// code and residual byte re-encoded under its fresh codebook and FlushDelta
// the delta row's encoding under the current one; splits and merges move
// the payload byte-identical, which on a quantized index stays a valid
// code and residual byte because they never change the codebook. Every
// mover passes the attribute copies of the row it read, so they move with
// it unchanged and no move reads vids. Callers spill at their own cadence.
func (ix *Index) moveRow(wt *storage.WriteTxn, src, dst int64, r partRow) error {
	if err := ix.vectors.Delete(wt, reldb.I(src), reldb.I(r.vid)); err != nil {
		return err
	}
	row := reldb.Row{reldb.I(dst), reldb.I(r.vid), reldb.S(r.asset), reldb.B(r.blob)}
	if err := ix.vectors.Put(wt, append(row, r.copies...)); err != nil {
		return err
	}
	return ix.assets.Put(wt, reldb.Row{reldb.S(r.asset), reldb.I(dst), reldb.I(r.vid)})
}

// ErrPlanStale is returned by ApplySplit when the partition no longer
// holds the rows its plan was computed from: a commit after PrepareSplit's
// snapshot deleted, added, moved or re-encoded one of them (a merge of
// the partition moves them all). The plan is discarded; callers plan
// again.
var ErrPlanStale = errors.New("ivf: maintenance plan invalidated by concurrent writes")

// SplitPlan is a prepared split: the partition's rows as PrepareSplit read
// them and the local clustering computed from them. Row blobs are copies,
// so a plan outlives its snapshot and can be applied by a later write
// transaction.
type SplitPlan struct {
	part   int64
	rows   []partRow
	assign []int // cluster of each row
	cents  *vec.Matrix
	counts []int64
	prep   time.Duration
}

// PrepareSplit collects one partition at txn's snapshot and clusters it
// with a local k-means into ceil(n/TargetPartitionSize) partitions, at
// least two. It writes nothing. A partition of fewer than two rows cannot
// be split; the planner never picks one, because the partition counts it
// reads are exact.
func (ix *Index) PrepareSplit(txn btree.ReadTxn, part int64) (*SplitPlan, error) {
	start := time.Now()
	if part == DeltaPartition {
		return nil, fmt.Errorf("ivf: cannot split the delta partition")
	}
	st, err := ix.getState(txn)
	if err != nil {
		return nil, err
	}
	if _, err := ix.centroids.GetBorrowed(txn, reldb.I(part)); err != nil {
		if errors.Is(err, reldb.ErrNotFound) {
			return nil, fmt.Errorf("ivf: split unknown partition %d", part)
		}
		return nil, err
	}
	rows, err := ix.collectPartition(txn, part)
	if err != nil {
		return nil, err
	}
	plan := &SplitPlan{part: part, rows: rows}
	n := len(rows)
	if n < 2 {
		return nil, fmt.Errorf("ivf: cannot split partition %d of %d rows", part, n)
	}
	target := ix.cfg.TargetPartitionSize
	// The policy's split bound can sit below the clustering target (e.g.
	// `micronn maintain -max` under the create-time partition size); a
	// split was requested, so a split must happen — anything less
	// livelocks the planner on this partition.
	k := max((n+target-1)/target, 2)

	data, err := ix.exactVectors(txn, rows)
	if err != nil {
		return nil, err
	}
	res, err := clustering.FullKMeans(clustering.Config{
		K:                 k,
		TargetClusterSize: target,
		Metric:            ix.cfg.Metric,
		Seed:              ix.cfg.Seed + part + st.Generation,
	}, data, 25)
	if err != nil {
		return nil, err
	}
	k = res.Centroids.Rows

	assign := make([]int, n)
	counts := make([]int64, k)
	dists := make([]float32, k)
	nonEmptyClusters := 0
	for i := 0; i < n; i++ {
		assign[i] = clustering.Assign(ix.cfg.Metric, res.Centroids, data.Row(i), dists)
		if counts[assign[i]] == 0 {
			nonEmptyClusters++
		}
		counts[assign[i]]++
	}
	if nonEmptyClusters < 2 {
		// Degenerate data (e.g. one vector duplicated past the split
		// bound): k-means cannot separate it, and returning without
		// progress would livelock the planner on the same partition.
		// Fall back to a mechanical even split; the resulting centroids
		// are the per-chunk means (identical for true duplicates, which
		// is as good as any placement for them).
		for i := 0; i < n; i++ {
			assign[i] = i * k / n
		}
		for c := 0; c < k; c++ {
			counts[c] = 0
			row := res.Centroids.Row(c)
			for j := range row {
				row[j] = 0
			}
		}
		for i := 0; i < n; i++ {
			counts[assign[i]]++
			vec.Add(res.Centroids.Row(assign[i]), data.Row(i))
		}
		for c := 0; c < k; c++ {
			if counts[c] > 0 {
				vec.Scale(res.Centroids.Row(c), 1/float32(counts[c]))
				if ix.cfg.Metric == vec.Cosine {
					vec.Normalize(res.Centroids.Row(c))
				}
			}
		}
	}
	plan.assign, plan.cents, plan.counts = assign, res.Centroids, counts
	plan.prep = time.Since(start)
	return plan, nil
}

// ApplySplit executes a prepared split inside wt. It first checks that the
// partition still holds exactly the plan's rows (ErrPlanStale otherwise),
// then gives the first non-empty cluster the partition's id and fresh ids
// to the rest, moves the displaced rows, writes the new centroids and
// bumps the state. I/O is proportional to the one partition, not the
// index — the incremental answer to growth that would otherwise force a
// full rebuild.
func (ix *Index) ApplySplit(wt *storage.WriteTxn, plan *SplitPlan) (*MaintenanceStats, error) {
	start := time.Now()
	ms := &MaintenanceStats{}
	if err := ix.checkSplitPlan(wt, plan); err != nil {
		return nil, err
	}
	part := plan.part
	st, err := ix.getState(wt)
	if err != nil {
		return nil, err
	}
	k := plan.cents.Rows

	next := st.NextPartID
	ids := make([]int64, k)
	reused := false
	nonEmpty := 0
	for c := 0; c < k; c++ {
		if plan.counts[c] == 0 {
			ids[c] = -1
			continue
		}
		nonEmpty++
		if !reused {
			ids[c] = part
			reused = true
		} else {
			ids[c] = next
			next++
		}
	}

	for i, r := range plan.rows {
		dst := ids[plan.assign[i]]
		ms.VectorsAssigned++
		if dst == part {
			continue
		}
		if err := ix.moveRow(wt, part, dst, r); err != nil {
			return nil, err
		}
		if err := wt.SpillIfNeeded(); err != nil {
			return nil, err
		}
		ms.RowChanges += 3
	}

	for c := 0; c < k; c++ {
		if ids[c] < 0 {
			continue
		}
		blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), plan.cents.Row(c))
		if err := ix.centroids.Put(wt, reldb.Row{reldb.I(ids[c]), reldb.B(blob), reldb.I(plan.counts[c])}); err != nil {
			return nil, err
		}
		ms.RowChanges++
	}

	st.NumPartitions += int64(nonEmpty - 1)
	st.NextPartID = next
	st.Generation++
	if err := ix.putState(wt, st); err != nil {
		return nil, err
	}
	// Like merge and rebuild, Partitions reports the index-wide total
	// after the step, not just the clusters this split produced.
	ms.Partitions = int(st.NumPartitions)
	ms.Duration = plan.prep + time.Since(start)
	return ms, nil
}

// checkSplitPlan returns ErrPlanStale unless the plan's partition holds
// exactly the plan's rows, compared (vid, payload) in key order with a
// borrowed scan of the one partition.
func (ix *Index) checkSplitPlan(txn btree.ReadTxn, plan *SplitPlan) error {
	i := 0
	err := ix.vectors.ScanBorrowed(txn, []reldb.Value{reldb.I(plan.part)}, func(key, val []byte) error {
		r, _, err := readRowView(key, val)
		if err != nil {
			return err
		}
		if i == len(plan.rows) || r.vid != plan.rows[i].vid || !bytes.Equal(r.payload, plan.rows[i].blob) {
			i = -1
			return reldb.ErrStopScan
		}
		i++
		return nil
	})
	if err != nil {
		return err
	}
	if i != len(plan.rows) {
		return ErrPlanStale
	}
	return nil
}

// MergePartitions folds the given undersized partitions into the rest of
// the index: every row joins the surviving partition with the nearest
// centroid, that centroid is nudged to the running mean of its content
// (matching FlushDelta's update rule), and the merged partitions' centroid
// rows are dropped. At least one partition must survive.
func (ix *Index) MergePartitions(wt *storage.WriteTxn, parts ...int64) (*MaintenanceStats, error) {
	start := time.Now()
	ms := &MaintenanceStats{}
	if len(parts) == 0 {
		return ms, nil
	}
	st, d, err := ix.load(wt)
	if err != nil {
		return nil, err
	}
	src := make(map[int64]bool, len(parts))
	for _, p := range parts {
		if p == DeltaPartition {
			return nil, fmt.Errorf("ivf: cannot merge the delta partition")
		}
		if src[p] {
			return nil, fmt.Errorf("ivf: duplicate merge partition %d", p)
		}
		src[p] = true
	}

	cs := d.cents
	known := make(map[int64]bool, len(cs.ids))
	for _, id := range cs.ids {
		known[id] = true
	}
	for _, p := range parts {
		if !known[p] {
			return nil, fmt.Errorf("ivf: merge unknown partition %d", p)
		}
	}

	// Surviving centroids, copied out of the shared cache: the running-mean
	// updates below must not leak into concurrent readers.
	destIDs := make([]int64, 0, len(cs.ids))
	for _, id := range cs.ids {
		if !src[id] {
			destIDs = append(destIDs, id)
		}
	}
	if len(destIDs) == 0 {
		return nil, fmt.Errorf("ivf: merge would remove every partition")
	}
	dmat := vec.NewMatrix(len(destIDs), ix.cfg.Dim)
	di := 0
	for i, id := range cs.ids {
		if !src[id] {
			copy(dmat.Row(di), cs.mat.Row(i))
			di++
		}
	}
	counts, err := ix.freshCounts(wt, destIDs)
	if err != nil {
		return nil, err
	}

	touched := make(map[int]bool)
	dists := make([]float32, len(destIDs))
	x := make([]float32, ix.cfg.Dim)
	for _, part := range parts {
		rows, err := ix.collectPartition(wt, part)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			blob := r.blob
			if ix.rawvecs != nil {
				if blob, err = ix.rawVector(wt, r.vid); err != nil {
					return nil, err
				}
			}
			vec.FromBlob(x, blob)
			vec.DistancesOneToMany(ix.cfg.Metric, x, dmat, nil, dists)
			best := argminRange(dists)
			if err := ix.moveRow(wt, part, destIDs[best], r); err != nil {
				return nil, err
			}
			if err := wt.SpillIfNeeded(); err != nil {
				return nil, err
			}
			ms.RowChanges += 3
			ms.VectorsAssigned++
			counts[best]++
			vec.Lerp(dmat.Row(best), x, 1/float32(counts[best]))
			touched[best] = true
		}
		if err := ix.centroids.Delete(wt, reldb.I(part)); err != nil {
			return nil, err
		}
		ms.RowChanges++
		st.NumPartitions--
	}

	for b := range touched {
		blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), dmat.Row(b))
		if err := ix.centroids.Put(wt, reldb.Row{reldb.I(destIDs[b]), reldb.B(blob), reldb.I(counts[b])}); err != nil {
			return nil, err
		}
		ms.RowChanges++
	}

	st.Generation++
	if err := ix.putState(wt, st); err != nil {
		return nil, err
	}
	ms.Partitions = int(st.NumPartitions)
	ms.Duration = time.Since(start)
	return ms, nil
}

// sameValue reports whether a and b are the same value: the same type and
// payload, a float64 compared bit for bit.
func sameValue(a, b reldb.Value) bool {
	if a.Type == reldb.TypeFloat64 && b.Type == reldb.TypeFloat64 {
		return math.Float64bits(a.Flt) == math.Float64bits(b.Flt)
	}
	return a.Type == b.Type && reldb.Compare(a, b) == 0
}

// PartitionSizeBounds returns the smallest and largest IVF partition sizes
// from the centroid table's transactional counts (0, 0 when the index has
// no partitions). The delta-store is excluded.
func (ix *Index) PartitionSizeBounds(txn btree.ReadTxn) (min, max int64, err error) {
	first := true
	err = ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		cnt := row[2].Int
		if first {
			min, max = cnt, cnt
			first = false
			return nil
		}
		if cnt < min {
			min = cnt
		}
		if cnt > max {
			max = cnt
		}
		return nil
	})
	return min, max, err
}

// CheckInvariants verifies the index's structural invariants at txn's
// snapshot: every vector row has exactly one vids row and one assets row
// that agree with it on the asset id and vice versa, attribute values have
// their declared types, each vector row's attribute copies equal its vids
// row's values, per-partition counts and state counters match the
// actual rows, every non-delta row's partition has a centroid, every
// centroid id is below NextPartID, the centroid count matches
// NumPartitions, each full-text index records a length for exactly #docs
// live vids, and a quantized index has a raw vector per row plus an intact
// codebook, and stores in each partition row the residual byte that
// encoding the row's raw vector under that codebook gives. O(N); used by
// the crash-recovery battery and tests.
func (ix *Index) CheckInvariants(txn btree.ReadTxn) error {
	st, d, err := ix.load(txn)
	if err != nil {
		return err
	}
	cb := d.cb

	type loc struct {
		part   int64
		asset  string
		copies []reldb.Value
		resid  int // a quantized row's residual byte, -1 on other rows
	}
	seen := make(map[int64]loc)
	partSizes := make(map[int64]int64)
	var total, delta int64
	wantBlobLen := vec.BlobSize(ix.cfg.Dim)

	err = ix.vectors.Scan(txn, nil, func(row reldb.Row) error {
		part, vid, asset := row[0].Int, row[1].Int, row[2].Str
		if part < 0 {
			return fmt.Errorf("ivf: invariant: vid %d stored in negative partition %d", vid, part)
		}
		if _, dup := seen[vid]; dup {
			return fmt.Errorf("ivf: invariant: vid %d stored in two partitions", vid)
		}
		l := loc{part: part, asset: asset, copies: row[4:], resid: -1}
		partSizes[part]++
		total++
		if part == DeltaPartition {
			delta++
		}
		want := wantBlobLen
		if cb != nil && part != DeltaPartition {
			want = cb.CodeSize() + 1
			l.resid = int(row[3].Bts[len(row[3].Bts)-1])
		}
		if len(row[3].Bts) != want {
			return fmt.Errorf("ivf: invariant: vid %d payload %d bytes, want %d", vid, len(row[3].Bts), want)
		}
		seen[vid] = l
		if vid >= st.NextVID {
			return fmt.Errorf("ivf: invariant: vid %d >= NextVID %d", vid, st.NextVID)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if total != st.NumVectors {
		return fmt.Errorf("ivf: invariant: %d vector rows, state says %d", total, st.NumVectors)
	}
	if delta != st.DeltaCount {
		return fmt.Errorf("ivf: invariant: %d delta rows, state says %d", delta, st.DeltaCount)
	}
	// The vid and asset mappings must mirror the vector rows exactly.
	var vidRows int64
	texts := make(map[string]int64) // non-NULL values of each FullText attribute
	err = ix.vids.Scan(txn, nil, func(row reldb.Row) error {
		vidRows++
		vid, asset := row[0].Int, row[1].Str
		l, ok := seen[vid]
		if !ok || l.asset != asset {
			return fmt.Errorf("ivf: invariant: vid row %d -> %q does not match vector rows", vid, asset)
		}
		for i, a := range ix.cfg.Attributes {
			v := row[vidsAttrBase+i]
			if !v.IsNull() && v.Type != a.Type {
				return fmt.Errorf("ivf: invariant: vid %d attribute %s holds %v, declared %v", vid, a.Name, v.Type, a.Type)
			}
			if a.FullText && !v.IsNull() {
				texts[a.Name]++
			}
		}
		for j, i := range ix.copies {
			if v, c := row[vidsAttrBase+i], l.copies[j]; !sameValue(v, c) {
				return fmt.Errorf("ivf: invariant: vid %d copies attribute %s as %v, its vids row holds %v", vid, ix.cfg.Attributes[i].Name, c, v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if vidRows != total {
		return fmt.Errorf("ivf: invariant: %d vid rows, %d vector rows", vidRows, total)
	}
	var assetRows int64
	err = ix.assets.Scan(txn, nil, func(row reldb.Row) error {
		assetRows++
		l, ok := seen[row[2].Int]
		if !ok || l.part != row[1].Int || l.asset != row[0].Str {
			return fmt.Errorf("ivf: invariant: asset row %q -> (%d,%d) does not match vector rows", row[0].Str, row[1].Int, row[2].Int)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if assetRows != total {
		return fmt.Errorf("ivf: invariant: %d asset rows, %d vector rows", assetRows, total)
	}

	// Centroids: one per partition, counts exact, none for the delta.
	var centRows int64
	err = ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		centRows++
		id, cnt := row[0].Int, row[2].Int
		if id == DeltaPartition {
			return fmt.Errorf("ivf: invariant: centroid row for the delta partition")
		}
		if id >= st.NextPartID {
			return fmt.Errorf("ivf: invariant: centroid %d >= NextPartID %d", id, st.NextPartID)
		}
		if len(row[1].Bts) != wantBlobLen {
			return fmt.Errorf("ivf: invariant: centroid %d blob %d bytes, want %d", id, len(row[1].Bts), wantBlobLen)
		}
		if cnt != partSizes[id] {
			return fmt.Errorf("ivf: invariant: centroid %d count %d, partition holds %d rows", id, cnt, partSizes[id])
		}
		delete(partSizes, id)
		return nil
	})
	if err != nil {
		return err
	}
	if centRows != st.NumPartitions {
		return fmt.Errorf("ivf: invariant: %d centroid rows, state says %d partitions", centRows, st.NumPartitions)
	}
	for part := range partSizes {
		if part != DeltaPartition {
			return fmt.Errorf("ivf: invariant: partition %d has rows but no centroid", part)
		}
	}

	// Full-text indexes: postings only for live vids, statistics that
	// match the postings, one document per non-NULL text.
	for name, f := range ix.ftsIndexes {
		docs, err := f.Check(txn)
		if err != nil {
			return fmt.Errorf("ivf: full-text index %s: %w", name, err)
		}
		for id := range docs {
			if _, ok := seen[id]; !ok {
				return fmt.Errorf("ivf: invariant: full-text index %s has postings for vid %d, which has no vector row", name, id)
			}
		}
		n, err := f.TotalDocs(txn)
		if err != nil {
			return err
		}
		if n != texts[name] {
			return fmt.Errorf("ivf: invariant: full-text index %s: #docs %d, %d vids rows hold a text", name, n, texts[name])
		}
	}

	if ix.rawvecs != nil {
		var rawRows int64
		x := make([]float32, ix.cfg.Dim)
		var enc []byte
		err = ix.rawvecs.Scan(txn, nil, func(row reldb.Row) error {
			rawRows++
			l, ok := seen[row[0].Int]
			if !ok {
				return fmt.Errorf("ivf: invariant: raw vector %d has no vector row", row[0].Int)
			}
			if len(row[1].Bts) != wantBlobLen {
				return fmt.Errorf("ivf: invariant: raw vector %d blob %d bytes, want %d", row[0].Int, len(row[1].Bts), wantBlobLen)
			}
			if l.resid < 0 {
				return nil
			}
			// The residual byte is the rerank's bound: one that is too
			// small would let it skip a row of the true top K.
			enc, _ = cb.EncodeRow(enc[:0], vec.FromBlob(x, row[1].Bts))
			if b := int(enc[len(enc)-1]); l.resid != b {
				return fmt.Errorf("ivf: invariant: vid %d residual byte %d, its raw vector's residual gives %d", row[0].Int, l.resid, b)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rawRows != total {
			return fmt.Errorf("ivf: invariant: %d raw vectors, %d vector rows", rawRows, total)
		}
		if st.NumPartitions > 0 {
			if cb == nil {
				return fmt.Errorf("ivf: invariant: quantized index with partitions but no codebook")
			}
			if cb.Dim() != ix.cfg.Dim {
				return fmt.Errorf("ivf: invariant: codebook dim %d, index dim %d", cb.Dim(), ix.cfg.Dim)
			}
		}
	}
	return nil
}
