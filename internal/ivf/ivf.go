// Package ivf implements MicroNN's disk-resident IVF vector index (paper
// §3): a partitioned vector table clustered on (partition id, vector id), a
// centroid table, a delta-store for streaming updates (the reserved
// partition 0), attribute storage with secondary and full-text indexes for
// hybrid search, the Algorithm 2 ANN search with parallel partition scans,
// multi-query-optimized batch search, a hybrid query optimizer, and full /
// incremental index maintenance.
//
// Each vector lives in four tables:
//
//   - vectors (part, vid) -> (asset, payload, s₁…sₘ): the rows a partition
//     scan reads, clustered by partition. The payload is the float32
//     vector, or, outside the delta of a quantized index, its SQ8/SQ4 code
//     followed by one residual byte that bounds the distance between the
//     exact vector and its decoded code (quant.EncodeRow). The scan scores
//     the code and hands the bound to the rerank, which skips the
//     candidates it rules out. Rebuild and FlushDelta encode the payload;
//     splits and merges move it byte for byte. s₁…sₘ copy the vector's
//     int64 and float64 attributes in schema order (text and blob
//     attributes, unbounded in size, are not copied), so a scan decides
//     comparison filters on them without reading vids; an index without
//     such attributes writes (asset, payload) alone. Upsert
//     writes the copies from the attribute values it stores in vids, and
//     Delete removes the row; every row move (Rebuild, FlushDelta, split,
//     merge) rewrites the row with its copies as read. An upsert allocates
//     a new vid, so a copy never goes stale.
//   - assets asset -> (part, vid): the upsert key, and with the vectors key
//     the only record of a vector's partition. Upsert and Delete write it,
//     and every row move rewrites it.
//   - vids vid -> (asset, attr₁…attrₙ): one write-once row per vector, the
//     home of every attribute: Get, the pre-filter plan, filters the scan
//     cannot decide on a vectors row and result survivors read it. The
//     secondary attribute indexes and the optimizer statistics are built
//     on it. Only Upsert and Delete write it.
//   - rawvecs vid -> float32 vector, on a quantized index only: the exact
//     vectors for rerank, Get and codebook training. Only Upsert and Delete
//     write it.
//
// Beside them, centroids holds one row per partition (centroid and row
// count), and meta holds the configuration, the transactional state, the
// codebook and the format marker that Open checks first. Each FullText
// attribute has two full-text tables (package fts), written by Upsert and
// Delete for each vids row whose text is not NULL:
//
//   - postings (token, vid) -> (length): one row per unique token of the
//     text, carrying the text's unique-token count for BM25. Every MATCH,
//     under every plan, is answered from them: posting probes, or a scan
//     of the rarest token's postings for a pre-filter plan.
//   - stats token -> (document frequency), plus the document count and
//     the summed lengths.
//
// A MATCH on an attribute without FullText fails with ErrNoFilter, and a
// MATCH without tokens constrains nothing.
package ivf

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
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
	tblMeta      = "meta"
	// tblRawVecs is the raw float32 vector store used when quantization is
	// enabled: partition rows then hold SQ8 codes, and the exact vectors
	// needed for reranking, point lookups and retraining live here, keyed
	// by vid.
	tblRawVecs = "rawvecs"
)

// metaCodebook is the meta-table key holding the serialized SQ8 codebook.
const metaCodebook = "codebook"

// formatVersion is the on-disk format this package reads and writes. Create
// stores it under the meta key metaFormat, and Open refuses any store that
// lacks it or holds another value. Bump it with every change to a table's
// layout. Format 2 added the attribute copies to vectors rows; format 3
// put the document length in each full-text posting and dropped the
// full-text length table; format 4 appended the residual byte to the
// payload of quantized vectors rows.
const formatVersion = 4

// metaFormat is the meta-table key holding the decimal formatVersion.
const metaFormat = "format"

// vidsAttrBase is the position of the first attribute in a vids row, after
// the vid key and the asset id.
const vidsAttrBase = 2

// Sentinel errors.
var (
	ErrNotFound    = errors.New("ivf: asset not found")
	ErrDimMismatch = errors.New("ivf: vector dimensionality mismatch")
	ErrNoFilter    = errors.New("ivf: filter references unknown attribute")
	// ErrUnsupportedFormat is returned by Open for any store without this
	// version's format marker.
	ErrUnsupportedFormat = errors.New("ivf: unsupported store format")
)

// AttributeDef declares a filterable attribute (paper §3.5: clients define
// attributes; indexed ones get a B-tree, full-text ones an FTS index).
type AttributeDef struct {
	Name string        `json:"name"`
	Type reldb.ColType `json:"type"`
	// Indexed builds a secondary B-tree index enabling pre-filter plans
	// for =, <, >, <=, >= predicates on this attribute.
	Indexed bool `json:"indexed"`
	// FullText builds an inverted token index enabling MATCH predicates,
	// which no other attribute accepts. Only valid for TypeText
	// attributes.
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
	// Attributes declares the filterable attributes.
	Attributes []AttributeDef `json:"attributes"`
	// Workers bounds scan parallelism (default GOMAXPROCS). It is a
	// setting of the open index, not persisted: Open starts from the
	// default, and SetWorkers overrides it.
	Workers int `json:"-"`
	// ClusterBatchSize and BalancePenalty feed the mini-batch k-means
	// trainer (zero values pick its defaults).
	ClusterBatchSize int     `json:"cluster_batch_size"`
	BalancePenalty   float32 `json:"balance_penalty"`
	// Quantization selects the partition-scan encoding (create-time
	// option). With quant.SQ8 a per-dimension affine codebook is trained
	// at every Rebuild, partition rows store one byte per dimension, and
	// searches rerank the top RerankFactor*K approximate candidates
	// against exact float32 vectors from the raw store, reading, on L2,
	// only those their residual bounds do not rule out. quant.SQ4 packs
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
	NextVID       int64 `json:"next_vid"`
	NumVectors    int64 `json:"num_vectors"`
	DeltaCount    int64 `json:"delta_count"`
	NumPartitions int64 `json:"num_partitions"` // excluding the delta
	// NextPartID is the next unused partition id (splits allocate from
	// it, and each Rebuild numbers its new partitions from it). Zero until
	// the first Rebuild, which sets it past every centroid id;
	// CheckInvariants verifies that it stays there.
	NextPartID int64 `json:"next_part_id,omitempty"`
	// Generation increments on every operation that changes centroids,
	// codebook or optimizer statistics (rebuild, flush, split, merge,
	// analyze); it keys the in-memory derived-state cache (see load).
	Generation int64 `json:"generation"`
	// ResidualSum and ResidualRows gauge codebook drift: the summed
	// residuals ‖x − x̂‖₂ of the rows FlushDelta encoded since the last
	// codebook training (Rebuild resets both), and their number. Rows
	// whose residual is not finite are left out.
	ResidualSum  float64 `json:"residual_sum,omitempty"`
	ResidualRows int64   `json:"residual_rows,omitempty"`
}

// Index is the disk-resident IVF index.
type Index struct {
	db  *reldb.DB
	cfg Config

	vectors   *reldb.Table
	centroids *reldb.Table
	assets    *reldb.Table
	vids      *reldb.Table
	meta      *reldb.Table
	rawvecs   *reldb.Table // nil unless quantization is enabled

	attrIndexes map[string]*reldb.Index // attribute name -> secondary index
	ftsIndexes  map[string]*fts.Index   // attribute name -> fts index
	attrPos     map[string]int          // attribute name -> position in vids row
	// copies lists the positions in cfg.Attributes of the attributes a
	// vectors row copies, in row order; copyPos maps each one's name to
	// its place among the row's copies.
	copies  []int
	copyPos map[string]int

	// derived is the derived state of the newest generation loaded so far
	// (see load).
	derivedMu sync.Mutex
	derived   *derived

	// scanPool recycles partition-scan buffers across searches, keeping
	// steady-state query memory flat (queries on a warm cache allocate
	// almost nothing). pendingPool recycles a filtered query's pending
	// rows, probePool the centroid-distance scratch.
	scanPool    sync.Pool
	pendingPool sync.Pool
	probePool   sync.Pool
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
// otherwise; resid holds each row's residual bound (see topk.Result).
// assets holds the batch's asset ids back to back and
// assetEnds[i] ends row i's; ids caches the strings made from them, so
// only rows a heap accepts cost an allocation. dists holds a single
// query's distances for the batch. lk is the worker's filter lookups, bound
// to the run's transaction by scan and released when the buffers return to
// the pool.
type scanBuffers struct {
	batch     *vec.Matrix
	codes     []byte
	resid     []float32
	vids      []int64
	assets    []byte
	assetEnds []int
	ids       []string
	dists     []float32
	lk        lookups
}

func (ix *Index) getScanBuffers() *scanBuffers {
	if b, ok := ix.scanPool.Get().(*scanBuffers); ok {
		return b
	}
	return &scanBuffers{
		batch:     vec.NewMatrix(scanBatch, ix.cfg.Dim),
		codes:     make([]byte, 0, scanBatch*ix.cfg.Dim),
		resid:     make([]float32, 0, scanBatch),
		vids:      make([]int64, 0, scanBatch),
		assetEnds: make([]int, 0, scanBatch),
		ids:       make([]string, scanBatch),
		dists:     make([]float32, scanBatch),
	}
}

func (ix *Index) putScanBuffers(b *scanBuffers) {
	b.reset()
	b.lk.release()
	ix.scanPool.Put(b)
}

// add copies one borrowed row into the batch, so nothing references page
// memory once the scan callback returns. r's payload is a code when
// quantized, with its residual bound in resid, and a float32 vector
// otherwise.
func (b *scanBuffers) add(r rowView, quantized bool, resid float32) {
	if quantized {
		b.codes = append(b.codes, r.payload...)
	} else {
		b.batch.AppendRowBlob(len(b.vids), r.payload)
	}
	b.resid = append(b.resid, resid)
	b.vids = append(b.vids, r.vid)
	b.assets = append(b.assets, r.asset...)
	b.assetEnds = append(b.assetEnds, len(b.assets))
}

// asset returns row i's asset id bytes.
func (b *scanBuffers) asset(i int) []byte {
	start := 0
	if i > 0 {
		start = b.assetEnds[i-1]
	}
	return b.assets[start:b.assetEnds[i]]
}

// assetID returns row i's asset id, allocating it on first use.
func (b *scanBuffers) assetID(i int) string {
	if b.ids[i] == "" {
		b.ids[i] = string(b.asset(i))
	}
	return b.ids[i]
}

func (ix *Index) getPendingRows() *pendingRows {
	if p, ok := ix.pendingPool.Get().(*pendingRows); ok {
		return p
	}
	return &pendingRows{}
}

func (ix *Index) putPendingRows(p *pendingRows) {
	p.rows, p.assets, p.order = p.rows[:0], p.assets[:0], p.order[:0]
	ix.pendingPool.Put(p)
}

// reset empties the batch.
func (b *scanBuffers) reset() {
	clear(b.ids[:len(b.vids)])
	b.codes = b.codes[:0]
	b.resid = b.resid[:0]
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

// readRowView parses a borrowed (part, vid) -> (asset, payload, copies)
// row, returning the encoded attribute copies beside the view, aliasing
// the page too (a view that held them would be copied whole per row). It
// fails wherever decoding the row's key, asset and payload with Table.Scan
// would; the copies are decoded by whoever reads them.
func readRowView(key, val []byte) (r rowView, copies []byte, err error) {
	_, rest, err := reldb.KeyInt(key)
	if err != nil {
		return r, nil, err
	}
	if r.vid, _, err = reldb.KeyInt(rest); err != nil {
		return r, nil, err
	}
	r.asset, r.payload, copies, err = vectorValue(val)
	return r, copies, err
}

// vectorValue splits a borrowed vectors-table value into its asset id,
// payload and encoded attribute copies, all aliasing val.
func vectorValue(val []byte) (asset, payload, copies []byte, err error) {
	asset, rest, err := reldb.RowBytes(val)
	if err != nil {
		return nil, nil, nil, err
	}
	payload, copies, err = reldb.RowBytes(rest)
	return asset, payload, copies, err
}

// centroidSet is the decoded centroid table: partition ids, centroid
// matrix and per-row squared norms. For very large partition counts a
// two-level coarse index accelerates centroid ranking (see centindex.go).
type centroidSet struct {
	ids    []int64
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

	vidCols := []reldb.Column{{Name: "asset", Type: reldb.TypeText}}
	vectorCols := []reldb.Column{{Name: "asset", Type: reldb.TypeText}, {Name: "blob", Type: reldb.TypeBlob}}
	for _, a := range cfg.Attributes {
		if a.FullText && a.Type != reldb.TypeText {
			return nil, fmt.Errorf("ivf: attribute %s: FullText requires TypeText", a.Name)
		}
		if a.Name == "vid" || a.Name == "asset" {
			return nil, fmt.Errorf("ivf: attribute name %q is reserved", a.Name)
		}
		vidCols = append(vidCols, reldb.Column{Name: a.Name, Type: a.Type})
		if copied(a) {
			vectorCols = append(vectorCols, reldb.Column{Name: a.Name, Type: a.Type})
		}
	}

	schemas := []*reldb.Schema{
		{
			Name: tblVectors,
			Key: []reldb.Column{
				{Name: "part", Type: reldb.TypeInt64},
				{Name: "vid", Type: reldb.TypeInt64},
			},
			Cols: vectorCols,
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
			Cols: vidCols,
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
			if err := db.CreateIndex(wt, "attr_"+a.Name, tblVIDs, a.Name); err != nil {
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
	if err := ix.meta.Put(wt, reldb.Row{reldb.S(metaFormat), reldb.B(strconv.AppendInt(nil, formatVersion, 10))}); err != nil {
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

// Open loads an existing index, restoring its configuration. It checks the
// format marker before it opens any other table, and returns
// ErrUnsupportedFormat for a store without this version's marker.
func Open(db *reldb.DB) (*Index, error) {
	meta, err := db.Table(tblMeta)
	if err != nil {
		return nil, err
	}
	var cfg Config
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		row, err := meta.Get(rt, reldb.S(metaFormat))
		if errors.Is(err, reldb.ErrNotFound) {
			return fmt.Errorf("%w: no format marker (this version reads format %d)", ErrUnsupportedFormat, formatVersion)
		}
		if err != nil {
			return err
		}
		if v := string(row[1].Bts); v != strconv.Itoa(formatVersion) {
			return fmt.Errorf("%w: format %q (this version reads format %d)", ErrUnsupportedFormat, v, formatVersion)
		}
		if row, err = meta.Get(rt, reldb.S("config")); err != nil {
			return fmt.Errorf("ivf: load config: %w", err)
		}
		return json.Unmarshal(row[1].Bts, &cfg)
	})
	if err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	return open(db, cfg)
}

func open(db *reldb.DB, cfg Config) (*Index, error) {
	ix := &Index{
		db:          db,
		cfg:         cfg,
		attrIndexes: make(map[string]*reldb.Index),
		ftsIndexes:  make(map[string]*fts.Index),
		attrPos:     make(map[string]int),
		copyPos:     make(map[string]int),
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
	if ix.meta, err = db.Table(tblMeta); err != nil {
		return nil, err
	}
	if cfg.Quantization != quant.None {
		if ix.rawvecs, err = db.Table(tblRawVecs); err != nil {
			return nil, err
		}
	}
	for i, a := range cfg.Attributes {
		ix.attrPos[a.Name] = vidsAttrBase + i
		if copied(a) {
			ix.copyPos[a.Name] = len(ix.copies)
			ix.copies = append(ix.copies, i)
		}
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

// copied reports whether vectors rows carry a copy of attribute a: int64
// and float64 attributes are copied, text and blob ones, unbounded in
// size, are not.
func copied(a AttributeDef) bool {
	return a.Type == reldb.TypeInt64 || a.Type == reldb.TypeFloat64
}

// Config returns the index configuration.
func (ix *Index) Config() Config { return ix.cfg }

// SetWorkers overrides the scan parallelism; n <= 0 keeps the default,
// GOMAXPROCS. Like SetRerankFactor it is a setting of the open index, not
// persisted. Call before serving queries; it is not synchronized with
// searches.
func (ix *Index) SetWorkers(n int) {
	if n > 0 {
		ix.cfg.Workers = n
	}
}

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
	// ResidualSum and ResidualRows are the codebook drift gauge (see
	// state.ResidualSum): their quotient is the mean residual of the rows
	// encoded since the codebook was trained.
	ResidualSum  float64
	ResidualRows int64
}

// Stats reads the monitor counters at the transaction's snapshot.
func (ix *Index) Stats(txn btree.ReadTxn) (Stats, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		NumVectors:    st.NumVectors,
		DeltaCount:    st.DeltaCount,
		NumPartitions: st.NumPartitions,
		ResidualSum:   st.ResidualSum,
		ResidualRows:  st.ResidualRows,
	}
	if st.NumPartitions > 0 {
		s.AvgPartitionSize = float64(st.NumVectors-st.DeltaCount) / float64(st.NumPartitions)
	}
	return s, nil
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
	if _, err := ix.removeAsset(wt, asset, &st); err != nil {
		return err
	}

	vid := st.NextVID
	st.NextVID++
	blob := vec.ToBlob(make([]byte, 0, vec.BlobSize(ix.cfg.Dim)), vector)

	vidRow := make(reldb.Row, vidsAttrBase+len(ix.cfg.Attributes))
	vidRow[0], vidRow[1] = reldb.I(vid), reldb.S(asset)
	for i, a := range ix.cfg.Attributes {
		v, ok := attrValues[a.Name]
		if !ok {
			v = reldb.Null()
		}
		vidRow[vidsAttrBase+i] = v
	}
	for name := range attrValues {
		if _, ok := ix.attrPos[name]; !ok {
			return fmt.Errorf("ivf: undeclared attribute %q", name)
		}
	}
	vecRow := reldb.Row{reldb.I(DeltaPartition), reldb.I(vid), reldb.S(asset), reldb.B(blob)}
	for _, i := range ix.copies {
		vecRow = append(vecRow, vidRow[vidsAttrBase+i])
	}
	if err := ix.vectors.Put(wt, vecRow); err != nil {
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

	if err := ix.vids.Put(wt, vidRow); err != nil {
		return err
	}
	for name, f := range ix.ftsIndexes {
		v := vidRow[ix.attrPos[name]]
		if !v.IsNull() {
			if err := f.Add(wt, vid, v.Str); err != nil {
				return err
			}
		}
	}

	st.NumVectors++
	st.DeltaCount++
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
	removed, err := ix.removeAsset(wt, asset, &st)
	if err != nil {
		return err
	}
	if !removed {
		return ErrNotFound
	}
	if err := ix.putState(wt, st); err != nil {
		return err
	}
	return wt.SpillIfNeeded()
}

// removeAsset deletes all rows belonging to asset, adjusting st counters,
// and reports whether the asset existed.
func (ix *Index) removeAsset(wt *storage.WriteTxn, asset string, st *state) (bool, error) {
	row, err := ix.assets.Get(wt, reldb.S(asset))
	if errors.Is(err, reldb.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	part, vid := row[1].Int, row[2].Int
	if err := ix.vectors.Delete(wt, reldb.I(part), reldb.I(vid)); err != nil {
		return false, err
	}
	if part > 0 {
		// Keep the per-partition count exact: the maintenance planner
		// reads it to decide splits and merges (paper §3.6's monitor).
		if err := ix.adjustCentroidCount(wt, part, -1); err != nil {
			return false, err
		}
	}
	if err := ix.assets.Delete(wt, reldb.S(asset)); err != nil {
		return false, err
	}
	if ix.rawvecs != nil {
		if err := ix.rawvecs.Delete(wt, reldb.I(vid)); err != nil && !errors.Is(err, reldb.ErrNotFound) {
			return false, err
		}
	}
	vidRow, err := ix.vids.Get(wt, reldb.I(vid))
	if err != nil {
		return false, err
	}
	for name, f := range ix.ftsIndexes {
		v := vidRow[ix.attrPos[name]]
		if !v.IsNull() {
			if err := f.Remove(wt, vid, v.Str); err != nil {
				return false, err
			}
		}
	}
	if err := ix.vids.Delete(wt, reldb.I(vid)); err != nil {
		return false, err
	}

	st.NumVectors--
	if part == DeltaPartition {
		st.DeltaCount--
	}
	return true, nil
}

// adjustCentroidCount adds delta to a partition's persisted row count. The
// count travels in the centroid row, so it stays transactional with the row
// moves that change it.
func (ix *Index) adjustCentroidCount(wt *storage.WriteTxn, part int64, delta int64) error {
	crow, err := ix.centroids.Get(wt, reldb.I(part))
	if err != nil {
		return err
	}
	cnt := crow[2].Int + delta
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

	vidRow, err := ix.vids.Get(txn, reldb.I(vid))
	if err != nil {
		return nil, nil, err
	}
	attrs := make(map[string]reldb.Value)
	for name, pos := range ix.attrPos {
		if !vidRow[pos].IsNull() {
			attrs[name] = vidRow[pos]
		}
	}
	return vector, attrs, nil
}

// derived is what the index decodes from its tables at one generation: the
// centroid set, the SQ codebook and the optimizer statistics. Only
// operations that bump state.Generation change them, so one entry serves
// every snapshot at its generation. Immutable once built, hence safe to
// share across scan workers.
type derived struct {
	gen   int64
	cents *centroidSet
	cb    *quant.Codebook   // nil when unquantized or not yet built
	stats *stats.TableStats // nil when never analyzed
}

// load decodes the state row visible at txn's snapshot and returns it with
// the derived state at its generation, from the cache when the generation
// matches. The cache keeps the newest generation loaded; it is why the
// paper's WarmCache scenario skips the centroid scan entirely.
func (ix *Index) load(txn btree.ReadTxn) (state, *derived, error) {
	st, err := ix.getState(txn)
	if err != nil {
		return st, nil, err
	}
	ix.derivedMu.Lock()
	d := ix.derived
	ix.derivedMu.Unlock()
	if d != nil && d.gen == st.Generation {
		return st, d, nil
	}
	d = &derived{gen: st.Generation}
	if d.cents, err = ix.loadCentroids(txn); err != nil {
		return st, nil, err
	}
	if ix.rawvecs != nil {
		row, err := ix.meta.Get(txn, reldb.S(metaCodebook))
		if err == nil {
			if d.cb, err = quant.UnmarshalCodebook(row[1].Bts); err != nil {
				return st, nil, fmt.Errorf("ivf: load codebook: %w", err)
			}
		} else if !errors.Is(err, reldb.ErrNotFound) {
			return st, nil, err
		}
	}
	if d.stats, err = stats.Load(ix.db, txn, tblVIDs); err != nil {
		return st, nil, err
	}
	ix.derivedMu.Lock()
	if ix.derived == nil || ix.derived.gen <= d.gen {
		ix.derived = d
	}
	ix.derivedMu.Unlock()
	return st, d, nil
}

// loadCentroids decodes the centroid table visible at txn's snapshot,
// building the coarse index past centroidIndexThreshold partitions.
func (ix *Index) loadCentroids(txn btree.ReadTxn) (*centroidSet, error) {
	var ids []int64
	var blobs [][]byte
	err := ix.centroids.Scan(txn, nil, func(row reldb.Row) error {
		if len(row[1].Bts) != vec.BlobSize(ix.cfg.Dim) {
			return fmt.Errorf("ivf: centroid %d blob %d bytes, want %d", row[0].Int, len(row[1].Bts), vec.BlobSize(ix.cfg.Dim))
		}
		ids = append(ids, row[0].Int)
		blobs = append(blobs, row[1].Bts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	mat := vec.NewMatrix(len(ids), ix.cfg.Dim)
	for i, b := range blobs {
		mat.AppendRowBlob(i, b)
	}
	cs := &centroidSet{ids: ids, mat: mat, norms: mat.Norms(make([]float32, 0, len(ids)))}
	if len(ids) >= centroidIndexThreshold {
		if cs.coarse, err = buildCoarseIndex(ix.cfg.Metric, mat, ix.cfg.Seed); err != nil {
			return nil, err
		}
	}
	return cs, nil
}

// DropCaches clears the in-memory derived state (the ColdStart scenario,
// combined with storage.Store.DropCaches).
func (ix *Index) DropCaches() {
	ix.derivedMu.Lock()
	ix.derived = nil
	ix.derivedMu.Unlock()
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

// partOf returns the partition holding asset's vector row.
func (ix *Index) partOf(txn btree.ReadTxn, asset string) (int64, error) {
	val, err := ix.assets.GetBorrowed(txn, reldb.S(asset))
	if err != nil {
		return 0, err
	}
	part, _, err := reldb.DecodeRowValue(val)
	return part.Int, err
}
