// Package ivf implements MicroNN's disk-resident IVF vector index (paper
// §3): a partitioned vector table clustered on (partition id, vector id), a
// centroid table, a delta-store for streaming updates (the reserved
// partition 0), attribute storage with secondary and full-text indexes for
// hybrid search, the Algorithm 2 ANN search with parallel partition scans,
// multi-query-optimized batch search, a hybrid query optimizer, and full /
// incremental index maintenance.
package ivf

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"micronn/internal/btree"
	"micronn/internal/fts"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// DeltaPartition is the reserved partition id for the delta-store. Newly
// inserted vectors stay here until maintenance assigns them to an IVF
// partition; every search scans it in addition to the probed partitions.
const DeltaPartition int64 = 0

// Table names.
const (
	tblVectors   = "vectors"
	tblCentroids = "centroids"
	tblAssets    = "assets"
	tblVIDs      = "vids"
	tblAttrs     = "attributes"
	tblMeta      = "meta"
	// tblRawVecs is the raw float32 vector store used when quantization is
	// enabled: partition rows then hold SQ8 codes, and the exact vectors
	// needed for reranking, point lookups and retraining live here, keyed
	// by vid.
	tblRawVecs = "rawvecs"
)

// metaCodebook is the meta-table key holding the serialized SQ8 codebook.
const metaCodebook = "codebook"

// Sentinel errors.
var (
	ErrNotFound    = errors.New("ivf: asset not found")
	ErrDimMismatch = errors.New("ivf: vector dimensionality mismatch")
	ErrNoFilter    = errors.New("ivf: filter references unknown attribute")
	// ErrLegacyFormat is returned by Open for a store written in a
	// pre-release format this version no longer reads.
	ErrLegacyFormat = errors.New("ivf: unsupported pre-release store format")
)

// AttributeDef declares a filterable attribute (paper §3.5: clients define
// attributes; indexed ones get a B-tree, full-text ones an FTS index).
type AttributeDef struct {
	Name string        `json:"name"`
	Type reldb.ColType `json:"type"`
	// Indexed builds a secondary B-tree index enabling pre-filter plans
	// for =, <, >, <=, >= predicates on this attribute.
	Indexed bool `json:"indexed"`
	// FullText builds an inverted token index enabling MATCH predicates.
	// Only valid for TypeText attributes.
	FullText bool `json:"full_text"`
}

// Config parameterizes an index. It is persisted in the meta table at
// Create time; Open restores it.
type Config struct {
	// Dim is the vector dimensionality.
	Dim int `json:"dim"`
	// Metric is the distance metric.
	Metric vec.Metric `json:"metric"`
	// TargetPartitionSize is the desired vectors per partition
	// (default 100, the paper's default).
	TargetPartitionSize int `json:"target_partition_size"`
	// RebuildGrowthThreshold triggers a full rebuild when the average
	// partition size exceeds the at-build average by this fraction
	// (default 0.5, the 50% threshold used in the paper's §4.3.4).
	RebuildGrowthThreshold float64 `json:"rebuild_growth_threshold"`
	// Attributes declares the filterable attributes.
	Attributes []AttributeDef `json:"attributes"`
	// Workers bounds scan parallelism (default GOMAXPROCS).
	Workers int `json:"workers"`
	// ClusterBatchSize, ClusterIterations and BalancePenalty feed the
	// mini-batch k-means trainer (zero values pick its defaults).
	ClusterBatchSize  int     `json:"cluster_batch_size"`
	ClusterIterations int     `json:"cluster_iterations"`
	BalancePenalty    float32 `json:"balance_penalty"`
	// CentroidIndexThreshold is the partition count above which a
	// two-level coarse index accelerates centroid ranking (the extension
	// the paper sketches in §3.2 for very large collections). 0 uses the
	// default of 4096; negative disables the coarse index entirely.
	CentroidIndexThreshold int `json:"centroid_index_threshold"`
	// Quantization selects the partition-scan encoding (create-time
	// option). With quant.SQ8 a per-dimension affine codebook is trained
	// at every Rebuild, partition rows store one byte per dimension, and
	// searches rerank the top RerankFactor*K approximate candidates
	// against exact float32 vectors from the raw store. quant.SQ4 packs
	// two 4-bit codes per byte, halving scanned bytes again. The
	// delta-store always keeps float32 vectors, so streaming inserts need
	// no retraining.
	Quantization quant.Type `json:"quantization"`
	// RerankFactor is the default rerank multiplier for quantized
	// searches: the scan keeps RerankFactor*K candidates by approximate
	// distance before exact reranking (default 4).
	RerankFactor int `json:"rerank_factor"`
	// ClipPercentile trims each dimension's trained quantization range to
	// the [p, 1-p] quantiles of a bounded sample, so a few outlier values
	// cannot stretch the code grid. 0 defaults to 0.005 for SQ4 (whose
	// 16-level grid is outlier-sensitive) and to no clipping otherwise;
	// negative disables clipping explicitly. Must be below 0.5.
	ClipPercentile float64 `json:"clip_percentile,omitempty"`
	// Seed makes clustering deterministic.
	Seed int64 `json:"seed"`
}

func (c *Config) fillDefaults() {
	if c.TargetPartitionSize == 0 {
		c.TargetPartitionSize = 100
	}
	if c.RebuildGrowthThreshold == 0 {
		c.RebuildGrowthThreshold = 0.5
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RerankFactor == 0 {
		c.RerankFactor = 4
	}
	if c.ClipPercentile == 0 && c.Quantization == quant.SQ4 {
		c.ClipPercentile = 0.005
	}
	if c.ClipPercentile < 0 {
		c.ClipPercentile = 0
	}
}

// state is the transactional index state, stored as a meta row and updated
// inside every mutating transaction.
type state struct {
	NextVID        int64   `json:"next_vid"`
	NumVectors     int64   `json:"num_vectors"`
	DeltaCount     int64   `json:"delta_count"`
	NumPartitions  int64   `json:"num_partitions"` // excluding the delta
	AvgSizeAtBuild float64 `json:"avg_size_at_build"`
	// NextPartID is the next unused partition id (splits allocate from it).
	// Zero in databases created before incremental maintenance existed;
	// nextPartitionID then derives it from the centroid table.
	NextPartID int64 `json:"next_part_id,omitempty"`
	// Generation increments on every operation that changes centroids
	// (rebuild, flush, split, merge); it keys the in-memory centroid cache.
	Generation int64 `json:"generation"`
	// DataGen increments inside every committed transaction that can
	// change any query-visible data: upserts, deletes, flushes, splits,
	// merges, rebuilds and attribute-statistics refreshes. It is strictly
	// finer-grained than Generation (every Generation bump is also a
	// DataGen bump, but point writes bump only DataGen, so the centroid
	// and codebook caches survive streaming updates). The micronn result
	// cache records it per entry: an unchanged DataGen at a later read
	// snapshot proves the visible data is identical, so a cached response
	// may be served verbatim. Absent (zero) in databases created before
	// the result cache existed; they simply start counting at their next
	// write.
	DataGen int64 `json:"data_gen,omitempty"`
}

// legacyState is the part of a pre-release state row that this format
// cannot honor: sealed sorted runs, whose rows (live and tombstoned) lived
// at negative partition ids that no scan reads any more.
type legacyState struct {
	Runs []json.RawMessage `json:"runs"`
}

// Index is the disk-resident IVF index.
type Index struct {
	db  *reldb.DB
	cfg Config

	vectors   *reldb.Table
	centroids *reldb.Table
	assets    *reldb.Table
	vids      *reldb.Table
	attrs     *reldb.Table
	meta      *reldb.Table
	rawvecs   *reldb.Table // nil unless quantization is enabled

	attrIndexes map[string]*reldb.Index // attribute name -> secondary index
	ftsIndexes  map[string]*fts.Index   // attribute name -> fts index
	attrPos     map[string]int          // attribute name -> position in attrs row

	// Cached centroids, keyed by state.Generation.
	centMu    sync.Mutex
	centCache *centroidSet

	// Cached SQ8 codebook, keyed by state.Generation. entry.cb is nil
	// when no codebook is persisted at that generation (index not yet
	// built).
	cbMu    sync.Mutex
	cbCache *codebookEntry

	// Cached attribute statistics for the optimizer.
	statsMu    sync.Mutex
	statsCache *stats.TableStats
	statsGen   int64

	// scanPool recycles partition-scan buffers across searches, keeping
	// steady-state query memory flat (queries on a warm cache allocate
	// almost nothing). probePool recycles the centroid-distance scratch.
	scanPool  sync.Pool
	probePool sync.Pool

	// locks is the partition-granular lock manager and version table
	// backing two-phase maintenance (see locks.go and maintain.go).
	locks partLocks
}

// probeScratch is the centroid-distance scratch used by probeSet.
type probeScratch struct {
	dists []float32
	order []int
}

func (ix *Index) getProbeScratch(n int) *probeScratch {
	ps, ok := ix.probePool.Get().(*probeScratch)
	if !ok {
		ps = &probeScratch{}
	}
	if cap(ps.dists) < n {
		ps.dists = make([]float32, n)
		ps.order = make([]int, n)
	}
	return ps
}

// scanBuffers is the scratch of one partition scan: one batch of
// rows copied out of borrowed leaf pages. codes holds the gathered SQ8/SQ4
// codes when the scanned partition is quantized, batch the float32 rows
// otherwise. assets holds the batch's asset ids back to back and
// assetEnds[i] ends row i's; ids caches the strings made from them, so
// only rows a heap accepts cost an allocation. dists holds a single
// query's distances for the batch.
type scanBuffers struct {
	batch     *vec.Matrix
	codes     []byte
	vids      []int64
	assets    []byte
	assetEnds []int
	ids       []string
	dists     []float32
}

func (ix *Index) getScanBuffers() *scanBuffers {
	if b, ok := ix.scanPool.Get().(*scanBuffers); ok {
		return b
	}
	return &scanBuffers{
		batch:     vec.NewMatrix(scanBatch, ix.cfg.Dim),
		codes:     make([]byte, 0, scanBatch*ix.cfg.Dim),
		vids:      make([]int64, 0, scanBatch),
		assetEnds: make([]int, 0, scanBatch),
		ids:       make([]string, scanBatch),
		dists:     make([]float32, scanBatch),
	}
}

func (ix *Index) putScanBuffers(b *scanBuffers) {
	b.reset()
	ix.scanPool.Put(b)
}

// add copies one borrowed row into the batch, so nothing references page
// memory once the scan callback returns.
func (b *scanBuffers) add(r rowView, quantized bool) {
	if quantized {
		b.codes = append(b.codes, r.payload...)
	} else {
		b.batch.AppendRowBlob(len(b.vids), r.payload)
	}
	b.vids = append(b.vids, r.vid)
	b.assets = append(b.assets, r.asset...)
	b.assetEnds = append(b.assetEnds, len(b.assets))
}

// assetID returns row i's asset id, allocating it on first use.
func (b *scanBuffers) assetID(i int) string {
	if b.ids[i] == "" {
		start := 0
		if i > 0 {
			start = b.assetEnds[i-1]
		}
		b.ids[i] = string(b.assets[start:b.assetEnds[i]])
	}
	return b.ids[i]
}

// reset empties the batch.
func (b *scanBuffers) reset() {
	clear(b.ids[:len(b.vids)])
	b.codes = b.codes[:0]
	b.vids = b.vids[:0]
	b.assets = b.assets[:0]
	b.assetEnds = b.assetEnds[:0]
}

// rowView is one vectors-table row read in place from a leaf page: asset
// and payload alias the page and are valid only during the ScanBorrowed
// callback that produced them.
type rowView struct {
	vid            int64
	asset, payload []byte
}

// readRowView parses a borrowed (part, vid) -> (asset, payload) row. It
// fails wherever decoding the row with Table.Scan would.
func readRowView(key, val []byte) (r rowView, err error) {
	_, rest, err := reldb.KeyInt(key)
	if err != nil {
		return r, err
	}
	if r.vid, _, err = reldb.KeyInt(rest); err != nil {
		return r, err
	}
	r.asset, r.payload, err = vectorValue(val)
	return r, err
}

// vectorValue splits a borrowed vectors-table value into its asset id and
// payload, both aliasing val.
func vectorValue(val []byte) (asset, payload []byte, err error) {
	asset, rest, err := reldb.RowBytes(val)
	if err != nil {
		return nil, nil, err
	}
	payload, _, err = reldb.RowBytes(rest)
	return asset, payload, err
}

// centroidSet is the decoded centroid table: partition ids, centroid
// matrix, per-row squared norms and per-partition counts. For very large
// partition counts a two-level coarse index accelerates centroid ranking
// (see centindex.go).
type centroidSet struct {
	gen    int64
	ids    []int64
	counts []int64
	mat    *vec.Matrix
	norms  []float32
	coarse *coarseIndex
}

// Create initializes the index tables inside wt and returns the handle.
func Create(db *reldb.DB, wt *storage.WriteTxn, cfg Config) (*Index, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("ivf: Dim must be positive")
	}
	// The quantization scheme is persisted in the on-disk config; an
	// unknown value must fail here, not silently encode as SQ8.
	switch cfg.Quantization {
	case quant.None, quant.SQ8, quant.SQ4:
	default:
		return nil, fmt.Errorf("ivf: unknown quantization %v", cfg.Quantization)
	}
	if cfg.ClipPercentile >= 0.5 {
		return nil, fmt.Errorf("ivf: ClipPercentile %v out of range [0, 0.5)", cfg.ClipPercentile)
	}
	cfg.fillDefaults()

	attrCols := make([]reldb.Column, 0, len(cfg.Attributes))
	for _, a := range cfg.Attributes {
		if a.FullText && a.Type != reldb.TypeText {
			return nil, fmt.Errorf("ivf: attribute %s: FullText requires TypeText", a.Name)
		}
		attrCols = append(attrCols, reldb.Column{Name: a.Name, Type: a.Type})
	}

	schemas := []*reldb.Schema{
		{
			Name: tblVectors,
			Key: []reldb.Column{
				{Name: "part", Type: reldb.TypeInt64},
				{Name: "vid", Type: reldb.TypeInt64},
			},
			Cols: []reldb.Column{
				{Name: "asset", Type: reldb.TypeText},
				{Name: "blob", Type: reldb.TypeBlob},
			},
		},
		{
			Name: tblCentroids,
			Key:  []reldb.Column{{Name: "part", Type: reldb.TypeInt64}},
			Cols: []reldb.Column{
				{Name: "blob", Type: reldb.TypeBlob},
				{Name: "count", Type: reldb.TypeInt64},
			},
		},
		{
			Name: tblAssets,
			Key:  []reldb.Column{{Name: "asset", Type: reldb.TypeText}},
			Cols: []reldb.Column{
				{Name: "part", Type: reldb.TypeInt64},
				{Name: "vid", Type: reldb.TypeInt64},
			},
		},
		{
			Name: tblVIDs,
			Key:  []reldb.Column{{Name: "vid", Type: reldb.TypeInt64}},
			Cols: []reldb.Column{
				{Name: "part", Type: reldb.TypeInt64},
				{Name: "asset", Type: reldb.TypeText},
			},
		},
		{
			Name: tblAttrs,
			Key:  []reldb.Column{{Name: "vid", Type: reldb.TypeInt64}},
			Cols: attrCols,
		},
		{
			Name: tblMeta,
			Key:  []reldb.Column{{Name: "key", Type: reldb.TypeText}},
			Cols: []reldb.Column{{Name: "value", Type: reldb.TypeBlob}},
		},
	}
	if cfg.Quantization != quant.None {
		schemas = append(schemas, &reldb.Schema{
			Name: tblRawVecs,
			Key:  []reldb.Column{{Name: "vid", Type: reldb.TypeInt64}},
			Cols: []reldb.Column{{Name: "blob", Type: reldb.TypeBlob}},
		})
	}
	for _, s := range schemas {
		if err := db.CreateTable(wt, s); err != nil {
			return nil, err
		}
	}
	for _, a := range cfg.Attributes {
		if a.Indexed {
			if err := db.CreateIndex(wt, "attr_"+a.Name, tblAttrs, a.Name); err != nil {
				return nil, err
			}
		}
		if a.FullText {
			if _, err := fts.Create(db, wt, "attr_"+a.Name); err != nil {
				return nil, err
			}
		}
	}
	ix, err := open(db, cfg)
	if err != nil {
		return nil, err
	}
	cfgBlob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.meta.Put(wt, reldb.Row{reldb.S("config"), reldb.B(cfgBlob)}); err != nil {
		return nil, err
	}
	if err := ix.putState(wt, state{}); err != nil {
		return nil, err
	}
	return ix, nil
}

// Open loads an existing index, restoring its configuration.
func Open(db *reldb.DB) (*Index, error) {
	meta, err := db.Table(tblMeta)
	if err != nil {
		return nil, err
	}
	var cfg Config
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		row, err := meta.Get(rt, reldb.S("config"))
		if err != nil {
			return err
		}
		return json.Unmarshal(row[1].Bts, &cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("ivf: load config: %w", err)
	}
	cfg.fillDefaults()
	ix, err := open(db, cfg)
	if err != nil {
		return nil, err
	}
	if err := db.Store().View(ix.checkFormat); err != nil {
		return nil, err
	}
	return ix, nil
}

// checkFormat refuses a state row that lists sealed runs or tombstoned
// run rows: silently dropping them would lose the run-resident vectors.
func (ix *Index) checkFormat(rt *storage.ReadTxn) error {
	row, err := ix.meta.Get(rt, reldb.S("state"))
	if err != nil {
		return fmt.Errorf("ivf: load state: %w", err)
	}
	var legacy legacyState
	if err := json.Unmarshal(row[1].Bts, &legacy); err != nil {
		return err
	}
	if n := len(legacy.Runs); n > 0 {
		return fmt.Errorf("%w: state lists %d sealed runs; open and maintain it with the release that wrote it", ErrLegacyFormat, n)
	}
	return nil
}

func open(db *reldb.DB, cfg Config) (*Index, error) {
	ix := &Index{
		db:          db,
		cfg:         cfg,
		attrIndexes: make(map[string]*reldb.Index),
		ftsIndexes:  make(map[string]*fts.Index),
		attrPos:     make(map[string]int),
	}
	var err error
	if ix.vectors, err = db.Table(tblVectors); err != nil {
		return nil, err
	}
	if ix.centroids, err = db.Table(tblCentroids); err != nil {
		return nil, err
	}
	if ix.assets, err = db.Table(tblAssets); err != nil {
		return nil, err
	}
	if ix.vids, err = db.Table(tblVIDs); err != nil {
		return nil, err
	}
	if ix.attrs, err = db.Table(tblAttrs); err != nil {
		return nil, err
	}
	if ix.meta, err = db.Table(tblMeta); err != nil {
		return nil, err
	}
	if cfg.Quantization != quant.None {
		if ix.rawvecs, err = db.Table(tblRawVecs); err != nil {
			return nil, err
		}
	}
	for i, a := range cfg.Attributes {
		ix.attrPos[a.Name] = 1 + i // position in the attrs row (after vid)
		if a.Indexed {
			idx, err := db.Index("attr_" + a.Name)
			if err != nil {
				return nil, err
			}
			ix.attrIndexes[a.Name] = idx
		}
		if a.FullText {
			f, err := fts.Open(db, "attr_"+a.Name)
			if err != nil {
				return nil, err
			}
			ix.ftsIndexes[a.Name] = f
		}
	}
	return ix, nil
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// SetRerankFactor overrides the default rerank multiplier for quantized
// searches. Unlike the persisted create-time configuration this is a pure
// search-time setting, so reopening callers may apply their own default.
// Call before serving queries; it is not synchronized with searches.
func (ix *Index) SetRerankFactor(rr int) {
	if rr > 0 {
		ix.cfg.RerankFactor = rr
	}
}

// DB exposes the relational layer (used by the bench harness).
func (ix *Index) DB() *reldb.DB { return ix.db }

func (ix *Index) getState(txn btree.ReadTxn) (state, error) {
	var st state
	row, err := ix.meta.Get(txn, reldb.S("state"))
	if err != nil {
		return st, fmt.Errorf("ivf: load state: %w", err)
	}
	if err := json.Unmarshal(row[1].Bts, &st); err != nil {
		return st, err
	}
	return st, nil
}

func (ix *Index) putState(wt *storage.WriteTxn, st state) error {
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return ix.meta.Put(wt, reldb.Row{reldb.S("state"), reldb.B(blob)})
}

// Stats summarizes the index for monitoring (paper's index monitor).
type Stats struct {
	NumVectors    int64
	DeltaCount    int64
	NumPartitions int64
	// AvgPartitionSize is vectors-per-partition over the IVF partitions
	// (excluding the delta).
	AvgPartitionSize float64
	// AvgSizeAtBuild is the average partition size right after the last
	// full build; the monitor compares growth against it.
	AvgSizeAtBuild float64
	Generation     int64
	// DataGen is the data-generation counter backing the result cache
	// (see state.DataGen).
	DataGen int64
}

// Stats reads the monitor counters at the transaction's snapshot.
func (ix *Index) Stats(txn btree.ReadTxn) (Stats, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		NumVectors:     st.NumVectors,
		DeltaCount:     st.DeltaCount,
		NumPartitions:  st.NumPartitions,
		AvgSizeAtBuild: st.AvgSizeAtBuild,
		Generation:     st.Generation,
		DataGen:        st.DataGen,
	}
	if st.NumPartitions > 0 {
		s.AvgPartitionSize = float64(st.NumVectors-st.DeltaCount) / float64(st.NumPartitions)
	}
	return s, nil
}

// DataGeneration returns the data-generation counter visible at txn's
// snapshot. The counter increments inside every committed transaction that
// can change query-visible data (upserts, deletes, flushes, splits,
// merges, rebuilds, statistics refreshes) and is persisted in the meta
// state row, transactionally with the changes it versions — two read
// snapshots observing the same value observe identical data. The micronn
// result cache is keyed on it.
func (ix *Index) DataGeneration(txn btree.ReadTxn) (int64, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return 0, err
	}
	return st.DataGen, nil
}

// bumpDataGen increments the data generation inside wt — for mutating
// operations that do not otherwise rewrite the state row.
func (ix *Index) bumpDataGen(wt *storage.WriteTxn) error {
	st, err := ix.getState(wt)
	if err != nil {
		return err
	}
	st.DataGen++
	return ix.putState(wt, st)
}

// NeedsRebuild reports whether the index monitor's growth threshold is
// exceeded (paper §3.6: unbounded partition growth is prevented by a full
// rebuild once average size grows past the client threshold). An index
// that has never been built needs a build once it holds any vectors.
func (ix *Index) NeedsRebuild(txn btree.ReadTxn) (bool, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return false, err
	}
	if st.NumPartitions == 0 {
		return st.NumVectors > 0, nil
	}
	if st.AvgSizeAtBuild == 0 {
		return false, nil
	}
	avg := float64(st.NumVectors-st.DeltaCount) / float64(st.NumPartitions)
	return avg > st.AvgSizeAtBuild*(1+ix.cfg.RebuildGrowthThreshold), nil
}

// Upsert inserts or replaces the vector for asset (upsert semantics keyed
// on the client's asset id, §3.6). New vectors land in the delta-store.
// attrValues supplies declared attributes; missing attributes are null.
func (ix *Index) Upsert(wt *storage.WriteTxn, asset string, vector []float32, attrValues map[string]reldb.Value) error {
	if len(vector) != ix.cfg.Dim {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(vector), ix.cfg.Dim)
	}
	st, err := ix.getState(wt)
	if err != nil {
		return err
	}
	// Upsert semantics: drop any existing vector for this asset.
	oldPart, _, err := ix.removeAsset(wt, asset, &st)
	if err != nil {
		return err
	}
	wt.OnCommit(func() { ix.locks.Bump(DeltaPartition, oldPart) })

	vid := st.NextVID
	st.NextVID++
	blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), vector)

	if err := ix.vectors.Put(wt, reldb.Row{reldb.I(DeltaPartition), reldb.I(vid), reldb.S(asset), reldb.B(blob)}); err != nil {
		return err
	}
	if ix.rawvecs != nil {
		// Quantized indexes keep the exact vector in the raw store for
		// reranking, point lookups and codebook retraining.
		if err := ix.rawvecs.Put(wt, reldb.Row{reldb.I(vid), reldb.B(blob)}); err != nil {
			return err
		}
	}
	if err := ix.assets.Put(wt, reldb.Row{reldb.S(asset), reldb.I(DeltaPartition), reldb.I(vid)}); err != nil {
		return err
	}
	if err := ix.vids.Put(wt, reldb.Row{reldb.I(vid), reldb.I(DeltaPartition), reldb.S(asset)}); err != nil {
		return err
	}

	attrRow := make(reldb.Row, 1+len(ix.cfg.Attributes))
	attrRow[0] = reldb.I(vid)
	for i, a := range ix.cfg.Attributes {
		v, ok := attrValues[a.Name]
		if !ok {
			v = reldb.Null()
		}
		attrRow[1+i] = v
	}
	for name := range attrValues {
		if _, ok := ix.attrPos[name]; !ok {
			return fmt.Errorf("ivf: undeclared attribute %q", name)
		}
	}
	if err := ix.attrs.Put(wt, attrRow); err != nil {
		return err
	}
	for name, f := range ix.ftsIndexes {
		v := attrRow[ix.attrPos[name]]
		if !v.IsNull() {
			if err := f.Add(wt, vid, v.Str); err != nil {
				return err
			}
		}
	}

	st.NumVectors++
	st.DeltaCount++
	st.DataGen++
	if err := ix.putState(wt, st); err != nil {
		return err
	}
	return wt.SpillIfNeeded()
}

// Delete removes the asset's vector, returning ErrNotFound if absent.
func (ix *Index) Delete(wt *storage.WriteTxn, asset string) error {
	st, err := ix.getState(wt)
	if err != nil {
		return err
	}
	part, removed, err := ix.removeAsset(wt, asset, &st)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	wt.OnCommit(func() { ix.locks.Bump(part) })
	st.DataGen++
	if err := ix.putState(wt, st); err != nil {
		return err
	}
	return wt.SpillIfNeeded()
}

// removeAsset deletes all rows belonging to asset, adjusting st counters.
// It reports the partition the asset lived in so the caller can register
// the version bump for it.
func (ix *Index) removeAsset(wt *storage.WriteTxn, asset string, st *state) (int64, bool, error) {
	row, err := ix.assets.Get(wt, reldb.S(asset))
	if errors.Is(err, reldb.ErrNotFound) {
		return DeltaPartition, false, nil
	}
	if err != nil {
		return DeltaPartition, false, err
	}
	part, vid := row[1].Int, row[2].Int
	if err := ix.vectors.Delete(wt, reldb.I(part), reldb.I(vid)); err != nil {
		return part, false, err
	}
	if part > 0 {
		// Keep the per-partition count exact: the maintenance planner
		// reads it to decide splits and merges (paper §3.6's monitor).
		if err := ix.adjustCentroidCount(wt, part, -1); err != nil {
			return part, false, err
		}
	}
	if err := ix.assets.Delete(wt, reldb.S(asset)); err != nil {
		return part, false, err
	}
	if err := ix.vids.Delete(wt, reldb.I(vid)); err != nil {
		return part, false, err
	}
	if ix.rawvecs != nil {
		if err := ix.rawvecs.Delete(wt, reldb.I(vid)); err != nil && !errors.Is(err, reldb.ErrNotFound) {
			return part, false, err
		}
	}
	attrRow, err := ix.attrs.Get(wt, reldb.I(vid))
	if err == nil {
		for name, f := range ix.ftsIndexes {
			v := attrRow[ix.attrPos[name]]
			if !v.IsNull() {
				if err := f.Remove(wt, vid, v.Str); err != nil {
					return part, false, err
				}
			}
		}
		if err := ix.attrs.Delete(wt, reldb.I(vid)); err != nil {
			return part, false, err
		}
	} else if !errors.Is(err, reldb.ErrNotFound) {
		return part, false, err
	}

	st.NumVectors--
	if part == DeltaPartition {
		st.DeltaCount--
	}
	return part, true, nil
}

// adjustCentroidCount adds delta to a partition's persisted row count. The
// count travels in the centroid row, so it stays transactional with the row
// moves that change it. A missing centroid row is ignored (legacy indexes
// mid-rebuild).
func (ix *Index) adjustCentroidCount(wt *storage.WriteTxn, part int64, delta int64) error {
	crow, err := ix.centroids.Get(wt, reldb.I(part))
	if errors.Is(err, reldb.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	cnt := crow[2].Int + delta
	if cnt < 0 {
		cnt = 0
	}
	blob := append([]byte(nil), crow[1].Bts...)
	return ix.centroids.Put(wt, reldb.Row{reldb.I(part), reldb.B(blob), reldb.I(cnt)})
}

// GetVector returns the stored vector and attributes for asset.
func (ix *Index) GetVector(txn btree.ReadTxn, asset string) ([]float32, map[string]reldb.Value, error) {
	row, err := ix.assets.Get(txn, reldb.S(asset))
	if errors.Is(err, reldb.ErrNotFound) {
		return nil, nil, ErrNotFound
	}
	if err != nil {
		return nil, nil, err
	}
	part, vid := row[1].Int, row[2].Int
	vector := make([]float32, ix.cfg.Dim)
	if ix.rawvecs != nil {
		// Quantized partition rows hold lossy codes; the exact vector
		// lives in the raw store.
		vrow, err := ix.rawvecs.Get(txn, reldb.I(vid))
		if err != nil {
			return nil, nil, err
		}
		vec.FromBlob(vector, vrow[1].Bts)
	} else {
		vrow, err := ix.vectors.Get(txn, reldb.I(part), reldb.I(vid))
		if err != nil {
			return nil, nil, err
		}
		vec.FromBlob(vector, vrow[3].Bts)
	}

	attrs := make(map[string]reldb.Value)
	arow, err := ix.attrs.Get(txn, reldb.I(vid))
	if err == nil {
		for name, pos := range ix.attrPos {
			if !arow[pos].IsNull() {
				attrs[name] = arow[pos]
			}
		}
	} else if !errors.Is(err, reldb.ErrNotFound) {
		return nil, nil, err
	}
	return vector, attrs, nil
}

// loadCentroids returns the centroid set visible at txn's snapshot, using
// the in-memory cache when its generation matches. This cache is why the
// paper's WarmCache scenario skips the centroid scan entirely.
func (ix *Index) loadCentroids(txn btree.ReadTxn) (*centroidSet, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return nil, err
	}
	ix.centMu.Lock()
	if ix.centCache != nil && ix.centCache.gen == st.Generation {
		cs := ix.centCache
		ix.centMu.Unlock()
		return cs, nil
	}
	ix.centMu.Unlock()

	var ids []int64
	var counts []int64
	var blobs [][]byte
	err = ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		ids = append(ids, row[0].Int)
		blobs = append(blobs, row[1].Bts)
		counts = append(counts, row[2].Int)
		return nil
	})
	if err != nil {
		return nil, err
	}
	mat := vec.NewMatrix(len(ids), ix.cfg.Dim)
	for i, b := range blobs {
		mat.AppendRowBlob(i, b)
	}
	cs := &centroidSet{
		gen:    st.Generation,
		ids:    ids,
		counts: counts,
		mat:    mat,
		norms:  mat.Norms(make([]float32, 0, len(ids))),
	}
	threshold := ix.cfg.CentroidIndexThreshold
	if threshold == 0 {
		threshold = centroidIndexThreshold
	}
	if threshold > 0 && len(ids) >= threshold {
		coarse, err := buildCoarseIndex(ix.cfg.Metric, mat, ix.cfg.Seed)
		if err != nil {
			return nil, err
		}
		cs.coarse = coarse
	}
	ix.centMu.Lock()
	if ix.centCache == nil || ix.centCache.gen <= cs.gen {
		ix.centCache = cs
	}
	ix.centMu.Unlock()
	return cs, nil
}

// DropCaches clears the in-memory centroid, codebook and statistics caches
// (the ColdStart scenario, combined with storage.Store.DropCaches).
func (ix *Index) DropCaches() {
	ix.centMu.Lock()
	ix.centCache = nil
	ix.centMu.Unlock()
	ix.cbMu.Lock()
	ix.cbCache = nil
	ix.cbMu.Unlock()
	ix.statsMu.Lock()
	ix.statsCache = nil
	ix.statsGen = -1
	ix.statsMu.Unlock()
}

// codebookEntry caches the decoded SQ8 codebook for one index generation.
type codebookEntry struct {
	gen int64
	cb  *quant.Codebook // nil when no codebook exists at this generation
}

// loadCodebook returns the SQ8 codebook visible at txn's snapshot, or nil
// when the index is unquantized or not yet built. Like the centroid cache
// it is keyed by the state generation, so rebuilds invalidate it.
func (ix *Index) loadCodebook(txn btree.ReadTxn) (*quant.Codebook, error) {
	if ix.cfg.Quantization == quant.None {
		return nil, nil
	}
	st, err := ix.getState(txn)
	if err != nil {
		return nil, err
	}
	ix.cbMu.Lock()
	if ix.cbCache != nil && ix.cbCache.gen == st.Generation {
		cb := ix.cbCache.cb
		ix.cbMu.Unlock()
		return cb, nil
	}
	ix.cbMu.Unlock()

	entry := &codebookEntry{gen: st.Generation}
	row, err := ix.meta.Get(txn, reldb.S(metaCodebook))
	if err == nil {
		if entry.cb, err = quant.UnmarshalCodebook(row[1].Bts); err != nil {
			return nil, fmt.Errorf("ivf: load codebook: %w", err)
		}
	} else if !errors.Is(err, reldb.ErrNotFound) {
		return nil, err
	}
	ix.cbMu.Lock()
	if ix.cbCache == nil || ix.cbCache.gen <= entry.gen {
		ix.cbCache = entry
	}
	ix.cbMu.Unlock()
	return entry.cb, nil
}

// rawVector fetches the exact float32 blob for vid from the raw store (the
// rerank/lookup path of a quantized index). The returned slice aliases
// transaction-owned memory.
func (ix *Index) rawVector(txn btree.ReadTxn, vid int64) ([]byte, error) {
	row, err := ix.rawvecs.Get(txn, reldb.I(vid))
	if err != nil {
		return nil, err
	}
	return row[1].Bts, nil
}

// readRawVector decodes vid's exact float32 vector from the raw store into
// x straight from the page, without building a row, and returns the blob's
// byte length. Write paths that hold the blob across later writes keep the
// copying rawVector instead: a write can rewrite the page under a borrowed
// view.
func (ix *Index) readRawVector(txn btree.ReadTxn, vid int64, x []float32) (int, error) {
	val, err := ix.rawvecs.GetBorrowed(txn, reldb.I(vid))
	if err != nil {
		return 0, err
	}
	blob, _, err := reldb.RowBytes(val)
	if err != nil {
		return 0, err
	}
	vec.FromBlob(x, blob)
	return len(blob), nil
}

// readPartitionVector is readRawVector for the float32 payload of vid's row
// in partition part (an unquantized index has no raw store).
func (ix *Index) readPartitionVector(txn btree.ReadTxn, part, vid int64, x []float32) (int, error) {
	val, err := ix.vectors.GetBorrowed(txn, reldb.I(part), reldb.I(vid))
	if err != nil {
		return 0, err
	}
	_, blob, err := vectorValue(val)
	if err != nil {
		return 0, err
	}
	vec.FromBlob(x, blob)
	return len(blob), nil
}
