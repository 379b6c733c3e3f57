// Package micronn is an embedded, disk-resident, updatable vector database
// — a from-scratch reproduction of "MicroNN: An On-device Disk-resident
// Updatable Vector Database" (Pound et al., SIGMOD 2025).
//
// MicroNN stores vectors in an IVF (inverted-file) index laid out over a
// transactional page store: vectors are clustered on disk by partition,
// centroids live in a small side table, and new vectors stream into a
// delta-store that every query scans. Memory is bounded by a configurable
// buffer-pool budget, so million-scale collections can be searched with a
// few megabytes of RAM. Hybrid queries combine nearest-neighbour search
// with relational attribute filters, chosen between pre- and post-filter
// plans by a selectivity-based optimizer, and batches of queries execute
// with multi-query optimization. A full-text MATCH filter is answered only
// by a FullText attribute's inverted index, under every plan; a MATCH on
// any other attribute fails the search as a filter on an undeclared
// attribute does, and a MATCH whose query has no tokens constrains
// nothing.
//
// # Quantization
//
// With Options.Quantization set to SQ8, partition rows store int8 scalar-
// quantized codes (one byte per dimension) instead of float32 vectors,
// cutting partition-scan I/O 4x. A per-dimension min/max codebook is
// trained at every Rebuild and persisted beside the centroid table (a
// version byte, a kind byte, the dimension, then the per-dimension minima
// and step sizes); exact float32 vectors move to a raw side table keyed by
// vector id. Searches scan the codes with asymmetric distance kernels, keep
// the top RerankFactor*K candidates, and rerank them against the exact
// vectors — SearchRequest.RerankFactor tunes that recall/latency knob per
// query. Each code is stored with a byte bounding its quantization error,
// so on L2 the rerank reads only the candidates that error cannot rule out
// of the top K (PlanInfo.Reranked counts them); the results are those of a
// full rerank.
// The delta-store keeps float32 vectors, so streaming upserts never
// retrain the codebook; out-of-range inserts clamp until the next Rebuild
// refreshes it, and Stats.ResidualSum/ResidualRows track how far the
// vectors encoded since then sit from their codes. Exact searches, pre-filter plans and Get always use the
// raw store, preserving their full-precision contracts.
//
// QuantSQ4 halves the scan footprint again: two 4-bit codes are packed per
// byte (8x less partition I/O than float32), and the scan kernel never
// unpacks them — per-byte lookup tables fold both nibbles' distance
// contributions into one table read, and the hot loop walks codes eight
// bytes (sixteen dimensions) at a time, sustaining over 2 GB/s of code
// throughput on a single core. Sixteen levels per dimension is coarse, so
// the SQ4 trainer clips the codebook range to the
// [ClipPercentile, 1-ClipPercentile] quantiles of a reservoir sample
// (default 0.005) — outliers saturate instead of stretching the grid — and
// the exact rerank pass restores full-precision ordering over the
// RerankFactor*K survivors. The active scheme and clip are reported by
// Stats and selectable as `-quant sq4` in the CLI.
//
// # Errors
//
// Every actionable failure wraps one of four sentinels — ErrNotFound,
// ErrClosed, ErrDimMismatch, ErrBadRequest — so callers branch with
// errors.Is rather than matching message text. Request validation runs
// through the one query pipeline every entry point shares (DB, ShardedDB,
// Snapshot, cached or not), so defaulting of K, NProbe and RerankFactor
// cannot drift between them.
//
// # Maintenance
//
// Streaming updates are kept healthy incrementally (paper §3.6). Maintain
// plans and applies one step at a time, each in its own short write
// transaction: the delta-store is flushed once it exceeds
// Options.FlushThreshold, partitions over Options.MaxPartitionSize are
// split by a local k-means over just their own rows, and partitions under
// Options.MinPartitionSize are merged into their nearest neighbors. Only a
// never-built index gets a full Rebuild; after that, growth is absorbed
// one partition at a time, so writers are never blocked behind a
// whole-index rewrite. Setting Options.AutoMaintain runs this policy on a
// background goroutine every Options.MaintainInterval; Close drains it.
// Stats reports the cumulative splits/merges/flushes and the current
// partition-size bounds.
//
// # Concurrency model
//
// Reads never block: Search, BatchSearch, Get and Stats each run on a
// page-store snapshot pinned at a committed state, so they observe a
// consistent index no matter what writers are doing, and scatter their
// partition scans across Options.Device.Workers goroutines (on the mmap
// backend the probed partitions' leaf pages are posted as an madvise
// readahead hint before the scans fault through them). Writes are
// serialized by the store's single-writer gate — a FIFO ticket queue, so
// commit order is arrival order — but point writes (Upsert, Delete) hold
// it only for their own short transaction.
//
// A partition split runs k-means over the partition's rows, and holding
// the writer gate for that computation would stall every concurrent
// writer behind it. So Maintain plans a split and prepares it (collects
// the partition and clusters it) on one read snapshot, outside the gate,
// and takes the gate only for the short apply transaction. The apply
// validates by content: it re-reads the partition's rows and compares
// them with the plan's. Vids are never reused and a vid's vector never
// changes, so equal rows mean the plan is still valid; a commit that
// changed the partition in between (a delete, a flush into it, a merge, a
// Rebuild, another split) discards the plan and the pass plans again,
// while an unrelated commit — a delta upsert while partition 7 splits —
// costs nothing. Searchers take no part in this: they read the
// last-committed state of each partition throughout.
//
// Close is fenced against in-flight maintenance by an operation lock: a
// Maintain pass (foreground or background) holds it shared for the whole
// pass, Close takes it exclusively after marking the handle closed, so
// the store never shuts down under a live maintenance transaction and a
// mid-pass Close surfaces as a clean ErrClosed at the next step boundary.
//
// # Backends
//
// The page store under everything is pluggable (Options.Backend). The
// file backend — the default and the paper's configuration — preads pages
// through a byte-budgeted buffer pool. The read-mmap backend maps the
// database file read-only so hot page reads skip both the read syscall
// and the pool copy; writes, the WAL and checkpoints stay file-based, so
// durability is identical and the two backends share one on-disk format.
// The memory backend keeps the entire store (pages and WAL) in RAM: no
// files, no lock, gone at Close — made for ephemeral caches and tests.
// The backend used at create time is recorded in the store header, so
// reopening with BackendDefault picks the right engine automatically.
//
//	db, err := micronn.Open("photos.mnn", micronn.Options{Dim: 128, Backend: micronn.BackendMmap})
//
// # Result cache
//
// Interactive on-device workloads repeat queries — the same type-ahead
// search keystroke after keystroke, the same RAG lookup across turns —
// while the store keeps absorbing streaming updates. With
// Options.ResultCache.Enabled, MicroNN serves such repeats from a bounded
// LRU result cache whose invalidation is exact rather than heuristic. A
// read snapshot is pinned at its store's commit horizon, a sequence number
// that every commit on the open handle (upsert, delete, flush, split,
// merge, rebuild, analyze) moves by one and nothing else moves; a
// checkpoint leaves it alone. Each cached response records the horizon it
// was computed at, and an entry is served only when the caller's snapshot
// is pinned at the same horizon — in which case the visible data is
// identical and the cached response is byte-identical to re-running the
// query. Entries are keyed by a canonicalized fingerprint of the whole
// request (vector, K/NProbe/RerankFactor, plan, and the filter set
// normalized so that filter order, duplicates, NaN payloads and signed
// zeros cannot split semantically equal queries), concurrent identical
// misses are deduplicated by a singleflight so the scan runs once, and
// memory is bounded by 1024 entries and ResultCacheOptions.MaxBytes (LRU
// eviction). One cache
// protocol serves every query kind and topology, with validation per
// shard: a query whose horizons all match is answered without touching
// any shard, and on a sharded database, when only some shards changed, the
// cached per-shard candidates are reused and only the changed shards are
// re-scanned. Snapshots consult the cache at their pinned horizons but
// never store into it, so an old horizon cannot displace entries live
// traffic needs. SearchRequest.NoCache bypasses the cache per query;
// Stats.Cache reports hits, misses, invalidations and bytes; DropCaches
// clears cached results along with the other caches. The cache is
// process-local and never outlives the handle whose horizons it records,
// so neither a reopen nor crash recovery can resurrect a stale entry. A
// commit that changes nothing (a DeleteBatch of an absent id) still moves
// the horizon: it costs a miss, never a stale hit.
//
// # Sharding
//
// OpenSharded hash-partitions a collection across N fully independent
// stores under one directory — each shard has its own page file, WAL, IVF
// index, SQ8 codebook and background maintainer, and a manifest pins the
// shard count and hash seed so every reopen routes identically (topology
// mismatches fail fast). Point operations touch exactly one shard.
//
// Every Store method is written once, on a router over N >= 1 shards. A
// query is a pipeline: normalize the request, fingerprint it for the
// cache, execute per shard, merge. DB is the one-shard case — the scatter runs inline, ivf
// returns final exact results and the merge has nothing to rerank — and a
// Snapshot pins one read transaction per shard, so single-store, sharded
// and snapshot reads share one code path. On N > 1 shards Search and
// BatchSearch scatter to every shard in parallel, spread the NProbe budget
// over the shard set, and merge the per-shard candidates — on a quantized
// database the pooled top RerankFactor*K candidates are reranked exactly
// on their owning shards, so recall matches a single store. Maintenance
// and Stats run a per-shard step on every shard and fold the results;
// Close drains every shard's maintainer. Batched writes commit one
// transaction per shard (atomic per shard, not across shards).
//
//	sdb, err := micronn.OpenSharded("photos.d", micronn.Options{Dim: 128, Shards: 4})
//
// # Ingest path
//
// Every write is group-committed into the WAL'd delta store. Upsert,
// UpsertBatch, Delete and DeleteBatch enqueue their operation under a short
// mutex and return after a group commit: a dedicated committer goroutine
// batches every writer that accumulated while the previous transaction held
// the single-writer gate into one storage transaction, so the gate wait,
// the WAL append and the commit are paid once per group instead of once per
// call. Each waiter receives its group's commit error — a call that
// returned nil is durable exactly as a transaction of its own would be —
// and a batch stays atomic within its group. Requests are validated before
// they are enqueued (dimension, attribute names and value types), so one
// caller's mistake fails only that caller, and a strict Delete of an
// absent id fails only its caller, never its group.
//
// Searches scan the delta exhaustively beside the probed partitions; the
// delta is bounded by maintenance, not by the committer: Maintain flushes
// it into the IVF partitions once it holds Options.FlushThreshold vectors,
// and Options.AutoMaintain runs that policy in the background.
// Stats.Ingest reports the achieved group sizes. Open and OpenSharded
// refuse any store without this version's format marker with
// ErrUnsupportedFormat, and leave its files unmodified.
//
// # Hybrid search
//
// HybridSearch runs one query down two legs under a single read snapshot
// and fuses the rankings. The lexical leg BM25-scores the request's Text
// against a FullText attribute's inverted index (disjunctive semantics:
// any query token matches; postings store unique tokens, so term frequency
// is binary, and each posting carries its document's length, the count of
// distinct indexed tokens).
// The vector leg is the ordinary ANN search — the same NProbe / Exact /
// RerankFactor / Filters knobs as SearchRequest. Both legs retrieve K
// candidates; by default they fuse by reciprocal-rank fusion
// (score = Σ 1/(FusionK+rank), FusionK defaulting to 60), or with
// HybridRequest.Weighted by a weighted sum of the normalized leg scores.
// Every fused result carries its exact full-precision distance — computed
// through the raw-vector side table on quantized stores — so SQ8/SQ4
// databases report the same distances as float32 ones.
//
//	resp, err := db.HybridSearch(micronn.HybridRequest{
//		Vector: embedding, Text: "golden retriever park", K: 10,
//	})
//
// An empty Text degrades to a pure vector query with results identical to
// Search. On a sharded database the lexical leg is two-phase: every shard
// reports its local document frequencies, the router sums them into global
// corpus statistics, and each shard then scores its own postings with the
// global figures — per-shard BM25 scores are therefore comparable, and with
// ties broken on asset id (a cross-topology total order) the fused ranking
// is identical to a single store holding the same corpus. Hybrid responses
// participate in the result cache under the same exact generation
// invalidation as searches, keyed by the canonicalized request (Text is
// fingerprinted as its unique token set). Stats.HybridSearches counts calls.
//
// # Quick start
//
//	db, err := micronn.Open("photos.mnn", micronn.Options{Dim: 128})
//	if err != nil { ... }
//	defer db.Close()
//
//	db.Upsert(micronn.Item{ID: "img1", Vector: v1})
//	db.Rebuild() // train the IVF index
//
//	res, err := db.Search(micronn.SearchRequest{Vector: q, K: 10})
package micronn

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"micronn/internal/btree"
	"micronn/internal/ivf"
	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/rescache"
	"micronn/internal/stats"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// EnvCacheVar is an environment variable for the test matrix: setting it to
// "1" force-enables the result cache in every Open and OpenSharded that did
// not configure one, so the whole suite can re-run with caching on (the CI
// cache leg, mirroring the MICRONN_TEST_BACKEND matrix).
const EnvCacheVar = "MICRONN_TEST_CACHE"

// EnvQuantVar is an environment variable for the test matrix: setting it to
// a quantization name ("sq8", "sq4") makes every Open and OpenSharded that
// did not configure quantization create its store with that scheme, so the
// whole suite can re-run quantized (the CI quantization leg, mirroring
// MICRONN_TEST_BACKEND). It never affects reopening an existing database.
const EnvQuantVar = "MICRONN_TEST_QUANT"

// Metric is the vector distance metric.
type Metric = vec.Metric

// Supported metrics.
const (
	L2     = vec.L2
	Cosine = vec.Cosine
	Dot    = vec.Dot
)

// Backend selects the page-store engine (see Options.Backend).
type Backend = storage.BackendKind

// Page-store backends.
const (
	// BackendDefault auto-detects the backend recorded in an existing
	// database's header and falls back to BackendFile.
	BackendDefault = storage.BackendDefault
	// BackendFile reads and writes the database file with pread/pwrite
	// through the buffer pool — the paper's configuration.
	BackendFile = storage.BackendFile
	// BackendMmap maps the database file read-only: page reads skip the
	// read syscall and the buffer pool's copy (the OS page cache is the
	// cache). Writes, WAL and checkpoints stay file-based; durability is
	// identical to BackendFile.
	BackendMmap = storage.BackendMmap
	// BackendMemory keeps the whole store in RAM: nothing touches the
	// filesystem, Close discards everything. For ephemeral caches and
	// fast tests.
	BackendMemory = storage.BackendMemory
)

// ParseBackend parses a backend name ("file", "mmap", "memory"; "" means
// BackendDefault).
func ParseBackend(name string) (Backend, error) { return storage.ParseBackend(name) }

// Quantization selects the partition-scan vector encoding.
type Quantization = quant.Type

// Quantization schemes.
const (
	// QuantNone stores full-precision float32 vectors (the default).
	QuantNone = quant.None
	// QuantSQ8 stores int8 scalar-quantized codes in the partitions and
	// reranks against exact vectors kept in a raw side table.
	QuantSQ8 = quant.SQ8
	// QuantSQ4 packs two 4-bit codes per byte — half the scanned bytes of
	// QuantSQ8 — trained with a quantile-clipped codebook (see
	// Options.ClipPercentile) and reranked against exact vectors.
	QuantSQ4 = quant.SQ4
)

// ParseQuantization parses a quantization name ("none", "sq8", "sq4"; ""
// means QuantNone), symmetric with ParseBackend.
func ParseQuantization(name string) (Quantization, error) {
	q, err := quant.ParseType(name)
	if err != nil {
		return QuantNone, badRequestf("unknown quantization %q", name)
	}
	return q, nil
}

// AttrType is the declared type of a filterable attribute.
type AttrType uint8

// Attribute types.
const (
	AttrInt AttrType = iota
	AttrFloat
	AttrText
	AttrBlob
)

func (t AttrType) colType() reldb.ColType {
	switch t {
	case AttrInt:
		return reldb.TypeInt64
	case AttrFloat:
		return reldb.TypeFloat64
	case AttrText:
		return reldb.TypeText
	default:
		return reldb.TypeBlob
	}
}

// AttributeDef declares a filterable attribute. Indexed attributes support
// efficient pre-filter plans for comparison predicates; FullText (text
// only) attributes support MATCH predicates through an inverted index, and
// no other attribute accepts MATCH.
type AttributeDef struct {
	Name     string
	Type     AttrType
	Indexed  bool
	FullText bool
}

// DeviceProfile bundles the resource knobs that distinguish the paper's
// device classes.
type DeviceProfile struct {
	// CacheBytes is the storage buffer-pool budget.
	CacheBytes int64
	// WriteBufferBytes bounds a write transaction's in-memory dirty
	// pages; larger transactions spill to the WAL. 0 picks a default of
	// a quarter of CacheBytes.
	WriteBufferBytes int64
	// Workers bounds query-time scan parallelism: 0 means GOMAXPROCS,
	// divided by the shard count on a sharded database. It applies to
	// each open and is not stored with the database.
	Workers int
}

// Predefined profiles: the paper evaluates on a "Small DUT" (single-digit
// GiB of RAM, strict multi-tenant budgets) and a "Large DUT". The profile
// sets the database cache budget, the main determinant of MicroNN memory.
var (
	DeviceSmall = DeviceProfile{CacheBytes: 8 << 20, WriteBufferBytes: 2 << 20, Workers: 2}
	DeviceLarge = DeviceProfile{CacheBytes: 64 << 20, WriteBufferBytes: 16 << 20, Workers: 0} // 0 = all cores
)

// Options configures Open.
type Options struct {
	// Dim is the vector dimensionality (required when creating).
	Dim int
	// Metric is the distance metric (default L2).
	Metric Metric
	// TargetPartitionSize is the IVF target cluster size (default 100).
	TargetPartitionSize int
	// FlushThreshold makes Maintain flush the delta-store once it holds
	// at least this many vectors (default: TargetPartitionSize).
	FlushThreshold int
	// MinPartitionSize makes Maintain merge IVF partitions smaller than
	// this into their neighbors (default: TargetPartitionSize/4).
	MinPartitionSize int
	// MaxPartitionSize makes Maintain split IVF partitions larger than
	// this with a local re-clustering (default: 2*TargetPartitionSize).
	MaxPartitionSize int
	// AutoMaintain starts a background maintainer goroutine that runs
	// Maintain every MaintainInterval: the delta is flushed and partitions
	// are split/merged asynchronously, so sustained upserts never force a
	// blocking full rebuild once the index is built. Close drains the
	// goroutine before closing the store.
	AutoMaintain bool
	// MaintainInterval is the background maintainer's poll interval
	// (default 250ms). Ignored unless AutoMaintain is set.
	MaintainInterval time.Duration
	// Attributes declares filterable attributes (create time only).
	Attributes []AttributeDef
	// Device selects a resource profile (default DeviceLarge).
	Device DeviceProfile
	// Durable enables fsync on commit (off by default: embedded indexes
	// are derived data; enable for primary storage).
	Durable bool
	// ClusterBatchSize / BalancePenalty tune the mini-batch k-means
	// trainer; zero values pick defaults.
	ClusterBatchSize int
	BalancePenalty   float32
	// Quantization selects the partition-scan encoding (create time
	// only): QuantNone stores float32 vectors, QuantSQ8 stores int8
	// codes, QuantSQ4 stores bit-packed 4-bit codes; both quantized
	// schemes rerank the top RerankFactor*K candidates against exact
	// vectors. The codebook is retrained at every Rebuild. Unknown values
	// are rejected at Open with ErrBadRequest.
	Quantization Quantization
	// RerankFactor is the default rerank multiplier for quantized
	// searches (0 = default 4). Unlike Quantization it is honored when
	// reopening an existing database. Ignored when Quantization is
	// QuantNone.
	RerankFactor int
	// ClipPercentile trims each dimension's trained quantization range to
	// the [p, 1-p] quantiles of a bounded training sample, so a few
	// outlier values cannot stretch the code grid (create time only).
	// 0 defaults to 0.005 for QuantSQ4 — whose 16-level grid is
	// outlier-sensitive — and to no clipping otherwise; negative disables
	// clipping explicitly. Values >= 0.5 are rejected with ErrBadRequest.
	ClipPercentile float64
	// Backend selects the page-store engine: BackendFile (default),
	// BackendMmap (read-only mapping of the database file; hot reads skip
	// the read syscall and the buffer-pool copy), or BackendMemory (fully
	// in-RAM and ephemeral). The choice is recorded in the store header,
	// so reopening with BackendDefault auto-detects the engine the
	// database was created with; file and mmap share one on-disk format
	// and may be switched freely. On a sharded database the manifest
	// additionally pins an explicitly chosen backend for every shard.
	Backend Backend
	// ResultCache configures the generation-versioned query result cache
	// (off by default; see the package documentation's "Result cache"
	// section for the exactness contract). On a sharded database one
	// cache serves the whole router with per-shard validation.
	ResultCache ResultCacheOptions
	// Seed makes index construction deterministic.
	Seed int64
	// Shards is the shard count for OpenSharded (create time only): items
	// are hashed by id across this many independent stores. The count is
	// persisted in the directory manifest; reopening with a different
	// non-zero value fails. Ignored by Open.
	Shards int
}

// ResultCacheOptions configures the query result cache.
type ResultCacheOptions struct {
	// Enabled turns the cache on. The MICRONN_TEST_CACHE=1 environment
	// variable force-enables it regardless (the CI cache matrix leg).
	Enabled bool
	// MaxBytes bounds the cache's approximate memory (0 = 8 MiB). The
	// cache also holds at most 1024 responses.
	MaxBytes int64

	// ignoreEnv suppresses the MICRONN_TEST_CACHE override — set on the
	// per-shard Options by OpenSharded, whose router-level cache already
	// honors it (shard-level caches under a router would never be
	// consulted, only waste memory).
	ignoreEnv bool
}

// resolve applies the environment override and defaults, returning the
// cache to use (nil when disabled).
func (o ResultCacheOptions) resolve() *rescache.Cache {
	enabled := o.Enabled
	if !o.ignoreEnv && os.Getenv(EnvCacheVar) == "1" {
		enabled = true
	}
	if !enabled {
		return nil
	}
	return rescache.New(0, o.MaxBytes)
}

// filterHeavyFilters is the filter count at which a query is "filter-heavy"
// for cache admission: its response, empty or not, is cached only on its
// second occurrence within a minute, so one-off analytic queries cannot
// churn the LRU.
const filterHeavyFilters = 2

// DB is an embedded MicroNN database. All methods are safe for concurrent
// use: reads run against consistent snapshots, writes are serialized.
// Every Store method comes from the embedded router, of which a DB is the
// one-shard case; DB itself holds one store's internals and the per-shard
// steps the router scatters (close, rewrite, maintain, stats).
type DB struct {
	// router lists this DB as its only shard and holds the result cache
	// (nil when disabled), the closed flag and the HybridSearch counter.
	router
	store *storage.Store
	rdb   *reldb.DB
	ix    *ivf.Index
	opts  Options

	// opMu fences Close against multi-transaction operations. Maintain
	// holds the read side for a pass (re-checking closed between steps, so
	// a pass ends within one step of Close being requested); Close takes
	// the write side after stopping the maintainer and before closing the
	// store, so an in-flight maintenance step — including a split, which
	// is prepared in a read transaction and applied in a write transaction
	// the storage layer cannot fence as one unit — always completes
	// against a live store.
	opMu sync.RWMutex

	// ing is the group committer every write goes through.
	ing *ingester

	// closeOnce runs close once, whether Close reaches this store as a
	// DB or as a shard of a ShardedDB.
	closeOnce sync.Once

	// Background maintainer lifecycle (nil channels when AutoMaintain is
	// off). maintStop is closed exactly once by stopMaintainer; maintDone
	// closes when the goroutine has fully drained.
	maintStop chan struct{}
	maintDone chan struct{}
	stopOnce  sync.Once

	// maintMu guards the maintenance telemetry below.
	maintMu     sync.Mutex
	maintTotals MaintenanceTotals
	lastMaint   *MaintenanceReport
}

// Item is a vector with its client-assigned id and optional attributes.
// Attribute values may be int/int64, float64, string or []byte.
type Item struct {
	ID         string
	Vector     []float32
	Attributes map[string]any
}

// Result is one search hit.
type Result struct {
	ID       string
	Distance float32
}

// Open opens or creates a MicroNN database at path.
func Open(path string, opts Options) (*DB, error) {
	// Validate create-time options up front: an unknown quantization or an
	// out-of-range clip percentile must fail loudly here, not be persisted.
	switch opts.Quantization {
	case QuantNone, QuantSQ8, QuantSQ4:
	default:
		return nil, badRequestf("unknown quantization %v", opts.Quantization)
	}
	if opts.ClipPercentile >= 0.5 {
		return nil, badRequestf("ClipPercentile %v out of range [0, 0.5)", opts.ClipPercentile)
	}
	if opts.Quantization == QuantNone {
		if name := os.Getenv(EnvQuantVar); name != "" {
			q, err := ParseQuantization(name)
			if err != nil {
				return nil, err
			}
			opts.Quantization = q
		}
	}
	sync := storage.SyncOff
	if opts.Durable {
		sync = storage.SyncNormal
	}
	device := opts.Device
	if device.CacheBytes == 0 {
		device = DeviceLarge
	}
	writeBuf := device.WriteBufferBytes
	if writeBuf == 0 {
		writeBuf = device.CacheBytes / 4
	}
	maxDirty := int(writeBuf / storage.DefaultPageSize)
	if maxDirty < 64 {
		maxDirty = 64
	}
	store, err := storage.Open(path, storage.Options{
		PoolBytes:     device.CacheBytes,
		Sync:          sync,
		MaxDirtyPages: maxDirty,
		Backend:       opts.Backend,
	})
	if err != nil {
		return nil, err
	}
	rdb, err := reldb.Open(store)
	if err != nil {
		store.Close()
		return nil, err
	}

	var ix *ivf.Index
	if rdb.HasTable("meta") {
		if ix, err = ivf.Open(rdb); err != nil {
			if errors.Is(err, ivf.ErrUnsupportedFormat) {
				err = fmt.Errorf("%w: %w", ErrUnsupportedFormat, err)
			}
			// A refused store is left as it was: Close would checkpoint
			// the WAL into the data file.
			store.CloseWithoutCheckpoint()
			return nil, err
		}
		// RerankFactor and Workers are search-time settings, not part of
		// the on-disk format: honor the caller's values on reopen too.
		ix.SetRerankFactor(opts.RerankFactor)
		ix.SetWorkers(device.Workers)
	} else {
		if opts.Dim <= 0 {
			store.Close()
			return nil, fmt.Errorf("micronn: Dim required to create a new database")
		}
		attrs := make([]ivf.AttributeDef, len(opts.Attributes))
		for i, a := range opts.Attributes {
			attrs[i] = ivf.AttributeDef{
				Name: a.Name, Type: a.Type.colType(),
				Indexed: a.Indexed, FullText: a.FullText,
			}
		}
		err = store.Update(func(wt *storage.WriteTxn) error {
			var cerr error
			ix, cerr = ivf.Create(rdb, wt, ivf.Config{
				Dim:                 opts.Dim,
				Metric:              opts.Metric,
				TargetPartitionSize: opts.TargetPartitionSize,
				Attributes:          attrs,
				Workers:             device.Workers,
				ClusterBatchSize:    opts.ClusterBatchSize,
				BalancePenalty:      opts.BalancePenalty,
				Quantization:        opts.Quantization,
				RerankFactor:        opts.RerankFactor,
				ClipPercentile:      opts.ClipPercentile,
				Seed:                opts.Seed,
			})
			return cerr
		})
	}
	if err != nil {
		store.Close()
		return nil, err
	}
	if opts.FlushThreshold == 0 {
		opts.FlushThreshold = ix.Config().TargetPartitionSize
	}
	db := &DB{store: store, rdb: rdb, ix: ix, opts: opts}
	db.shards = []*DB{db}
	db.cache = opts.ResultCache.resolve()
	db.ing = newIngester(db)
	go db.ing.run()
	if opts.AutoMaintain {
		interval := opts.MaintainInterval
		if interval <= 0 {
			interval = 250 * time.Millisecond
		}
		db.maintStop = make(chan struct{})
		db.maintDone = make(chan struct{})
		go db.maintainLoop(interval)
	}
	return db, nil
}

// close is one shard's part of Close, with closeStore as the final step:
// Store.Close, or Store.CloseWithoutCheckpoint to leave the files as Open
// found them. It marks the shard closed too, so a maintenance pass on it
// ends at its next step boundary. Only the first call acts.
func (db *DB) close(closeStore func() error) (err error) {
	db.closeOnce.Do(func() {
		db.closed.Store(true)
		// Stop the group committer first: it drains queued writers with a
		// final group commit (they get real answers, not ErrClosed)
		// against a live store.
		db.ing.shutdown()
		db.stopMaintainer()
		// A manual Maintain pass may still be in flight; it observes
		// closed at its next step boundary and returns ErrClosed. Wait for
		// it here so the store never disappears under a running
		// maintenance step.
		db.opMu.Lock()
		defer db.opMu.Unlock()
		err = closeStore()
	})
	return err
}

// stopMaintainer stops the background maintainer and waits for its current
// pass to finish. Idempotent; a no-op when AutoMaintain is off.
func (db *DB) stopMaintainer() {
	if db.maintStop == nil {
		return
	}
	db.stopOnce.Do(func() { close(db.maintStop) })
	<-db.maintDone
}

// maintainLoop is the background maintainer (paper §3.6's index monitor run
// asynchronously): every tick it plans and applies maintenance steps, each
// in its own short write transaction, until the index is within policy
// bounds again. Failed passes are counted, not fatal — the next tick
// retries.
func (db *DB) maintainLoop(interval time.Duration) {
	defer close(db.maintDone)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-db.maintStop:
			return
		case <-ticker.C:
			if _, err := db.maintain(); err != nil && !errors.Is(err, ErrClosed) {
				db.maintMu.Lock()
				db.maintTotals.Errors++
				db.maintMu.Unlock()
			}
		}
	}
}

// getItem fetches one item at txn's snapshot, translating the index's
// not-found error and converting attributes — shared by Get and
// Snapshot.Get.
func getItem(ix *ivf.Index, txn btree.ReadTxn, id string) (*Item, error) {
	v, attrs, err := ix.GetVector(txn, id)
	if errors.Is(err, ivf.ErrNotFound) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]any, len(attrs))
	for k, val := range attrs {
		out[k] = valueToAny(val)
	}
	return &Item{ID: id, Vector: v, Attributes: out}, nil
}

func convertAttrs(in map[string]any) (map[string]reldb.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[string]reldb.Value, len(in))
	for k, v := range in {
		val, err := anyToValue(v)
		if err != nil {
			return nil, badRequestf("attribute %q: %v", k, err)
		}
		out[k] = val
	}
	return out, nil
}

func anyToValue(v any) (reldb.Value, error) {
	switch x := v.(type) {
	case nil:
		return reldb.Null(), nil
	case int:
		return reldb.I(int64(x)), nil
	case int32:
		return reldb.I(int64(x)), nil
	case int64:
		return reldb.I(x), nil
	case float32:
		return reldb.F(float64(x)), nil
	case float64:
		return reldb.F(x), nil
	case string:
		return reldb.S(x), nil
	case []byte:
		return reldb.B(x), nil
	default:
		return reldb.Value{}, fmt.Errorf("unsupported value type %T", v)
	}
}

func valueToAny(v reldb.Value) any {
	switch v.Type {
	case reldb.TypeInt64:
		return v.Int
	case reldb.TypeFloat64:
		return v.Flt
	case reldb.TypeText:
		return v.Str
	case reldb.TypeBlob:
		return v.Bts
	default:
		return nil
	}
}

// Internal accessors for the bench harness.

// InternalIndex exposes the underlying IVF index for benchmarks and tools.
func (db *DB) InternalIndex() *ivf.Index { return db.ix }

// InternalStore exposes the underlying page store for benchmarks and tools.
func (db *DB) InternalStore() *storage.Store { return db.store }

// --- filters ---

// Filter is a disjunction of predicates; a SearchRequest's Filters slice is
// a conjunction of Filters. The helpers Eq/Ne/Lt/Le/Gt/Ge/Match build
// single-predicate filters; Any builds a disjunction.
type Filter = stats.Filter

func pred(col string, op reldb.Op, v any) reldb.Predicate {
	val, err := anyToValue(v)
	if err != nil {
		// Deferred error: an invalid operand becomes a null predicate,
		// which never matches and is surfaced by validation in Search.
		val = reldb.Null()
	}
	return reldb.Predicate{Column: col, Op: op, Value: val}
}

// Eq builds the filter column = value.
func Eq(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpEq, v)}} }

// Ne builds the filter column != value.
func Ne(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpNe, v)}} }

// Lt builds the filter column < value.
func Lt(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpLt, v)}} }

// Le builds the filter column <= value.
func Le(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpLe, v)}} }

// Gt builds the filter column > value.
func Gt(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpGt, v)}} }

// Ge builds the filter column >= value.
func Ge(col string, v any) Filter { return Filter{AnyOf: []reldb.Predicate{pred(col, reldb.OpGe, v)}} }

// Match builds a full-text filter: the attribute must contain every token
// of query. col must be a FullText attribute, or the search fails as a
// filter on an undeclared attribute does; a query without tokens
// constrains nothing.
func Match(col, query string) Filter {
	return Filter{AnyOf: []reldb.Predicate{{Column: col, Op: reldb.OpMatch, Value: reldb.S(query)}}}
}

// Any combines the predicates of several single-predicate filters into one
// disjunction (OR group).
func Any(filters ...Filter) Filter {
	var out Filter
	for _, f := range filters {
		out.AnyOf = append(out.AnyOf, f.AnyOf...)
	}
	return out
}

// --- search ---

// PlanType re-exports the hybrid plan identifiers.
type PlanType = ivf.PlanType

// Plan choices for SearchRequest.Plan.
const (
	PlanAuto       = ivf.PlanAuto
	PlanPreFilter  = ivf.PlanPreFilter
	PlanPostFilter = ivf.PlanPostFilter
)

// SearchRequest parameterizes Search.
type SearchRequest struct {
	// Vector is the query embedding (required).
	Vector []float32
	// K is the number of neighbours (default 10).
	K int
	// NProbe is the number of IVF partitions to scan; higher values
	// trade latency for recall (default 8).
	NProbe int
	// Filters is the conjunctive attribute filter set (optional).
	Filters []Filter
	// Exact forces exhaustive KNN.
	Exact bool
	// Plan overrides the hybrid optimizer (default PlanAuto).
	Plan PlanType
	// RerankFactor overrides the quantized-search rerank multiplier for
	// this query (0 = the Options default). Ignored on unquantized
	// databases.
	RerankFactor int
	// NoCache bypasses the result cache for this query: the search always
	// runs against the store and its response is not cached. A no-op when
	// the cache is disabled. (The staleness-oracle tests use it to obtain
	// ground truth beside cached responses; the CLI exposes it as
	// `search -no-cache`.)
	NoCache bool
}

// PlanInfo describes how a query was executed.
type PlanInfo = ivf.PlanInfo

// SearchResponse carries results plus execution details.
type SearchResponse struct {
	Results []Result
	Plan    PlanInfo
}

// searchKey fingerprints a normalized request in canonical form. The
// normalization already applied the K/NProbe defaults, zeroed NProbe and
// RerankFactor under Exact (the exhaustive path reads neither) and
// RerankFactor on unquantized stores (it is ignored there), and resolved
// RerankFactor to the configured default on quantized ones; the plan
// override is zeroed here for filterless queries (there is no pre/post
// choice without filters). Equal-by-behavior requests therefore collide.
func searchKey(req SearchRequest) rescache.Key {
	return rescache.KeyOf(rescache.Request{
		Kind:         rescache.KindSearch,
		K:            req.K,
		NProbe:       req.NProbe,
		RerankFactor: req.RerankFactor,
		Plan:         canonPlan(req.Plan, req.Filters),
		Exact:        req.Exact,
		Vectors:      [][]float32{req.Vector},
		Filters:      req.Filters,
	})
}

func canonPlan(p PlanType, filters []Filter) int {
	if len(filters) == 0 {
		return 0
	}
	return int(p)
}

func (r *SearchResponse) clone() *SearchResponse {
	return &SearchResponse{Results: append([]Result(nil), r.Results...), Plan: r.Plan}
}

func (r *SearchResponse) cacheSize() int64 {
	n := int64(96)
	for _, res := range r.Results {
		n += 24 + int64(len(res.ID))
	}
	return n
}

// BatchSearchRequest parameterizes BatchSearch.
type BatchSearchRequest struct {
	// Vectors holds the query embeddings.
	Vectors [][]float32
	// K is the number of neighbours per query (default 10).
	K int
	// NProbe is the per-query partition probe count (default 8).
	NProbe int
	// RerankFactor overrides the quantized-search rerank multiplier
	// (0 = the Options default). Ignored on unquantized databases.
	RerankFactor int
	// NoCache bypasses the result cache for this batch (see
	// SearchRequest.NoCache).
	NoCache bool
}

// BatchInfo re-exports batch execution statistics.
type BatchInfo = ivf.BatchInfo

// BatchSearchResponse carries per-query results in request order.
type BatchSearchResponse struct {
	Results [][]Result
	Info    BatchInfo
}

// batchKey fingerprints a normalized batch request (vector order
// preserved — results are positional).
func batchKey(req BatchSearchRequest) rescache.Key {
	return rescache.KeyOf(rescache.Request{
		Kind:         rescache.KindBatch,
		K:            req.K,
		NProbe:       req.NProbe,
		RerankFactor: req.RerankFactor,
		Vectors:      req.Vectors,
	})
}

func (r *BatchSearchResponse) clone() *BatchSearchResponse {
	out := &BatchSearchResponse{Results: make([][]Result, len(r.Results)), Info: r.Info}
	for i, rs := range r.Results {
		out.Results[i] = append([]Result(nil), rs...)
	}
	return out
}

func (r *BatchSearchResponse) cacheSize() int64 {
	n := int64(96)
	for _, rs := range r.Results {
		n += 24
		for _, res := range rs {
			n += 24 + int64(len(res.ID))
		}
	}
	return n
}

// --- maintenance ---

// MaintenanceReport describes what a maintenance pass did. A pass may take
// several steps (e.g. a flush followed by two splits); Action then joins
// the distinct step names with "+" in execution order.
type MaintenanceReport struct {
	// Action is "none", "flush", "rebuild", "split", "merge", or a
	// "+"-joined sequence of those.
	Action string
	// Steps is the number of maintenance steps executed, each in its own
	// short write transaction.
	Steps int
	// Rebuilds/Flushes/Splits/Merges break the steps down by kind.
	Rebuilds, Flushes, Splits, Merges int
	// Duration of the maintenance work.
	Duration time.Duration
	// RowChanges is the number of database row writes performed — the
	// I/O footprint the incremental path minimizes.
	RowChanges int64
	// VectorsAssigned counts vectors (re)assigned to partitions.
	VectorsAssigned int64
	// Partitions is the resulting partition count.
	Partitions int
}

func report(action string, ms *ivf.MaintenanceStats) *MaintenanceReport {
	rep := &MaintenanceReport{
		Action:          action,
		Steps:           1,
		Duration:        ms.Duration,
		RowChanges:      ms.RowChanges,
		VectorsAssigned: ms.VectorsAssigned,
		Partitions:      ms.Partitions,
	}
	rep.count(ivf.MaintenanceAction(action))
	return rep
}

// count bumps the per-kind step counter for one executed action.
func (r *MaintenanceReport) count(a ivf.MaintenanceAction) {
	switch a {
	case ivf.ActionRebuild:
		r.Rebuilds++
	case ivf.ActionFlush:
		r.Flushes++
	case ivf.ActionSplit:
		r.Splits++
	case ivf.ActionMerge:
		r.Merges++
	}
}

// joinActions adds each step name of the "+"-joined names to a report's
// Action unless it is already there, so Action lists every distinct step
// once, in first-seen order. "none" adds nothing.
func joinActions(action, names string) string {
	for _, name := range strings.Split(names, "+") {
		switch {
		case name == "" || name == "none" || slices.Contains(strings.Split(action, "+"), name):
		case action == "" || action == "none":
			action = name
		default:
			action += "+" + name
		}
	}
	return action
}

// absorb folds a later report, such as one step of a pass, into r.
// Partitions is the later report's, when it has one.
func (r *MaintenanceReport) absorb(o *MaintenanceReport) {
	r.Action = joinActions(r.Action, o.Action)
	r.Steps += o.Steps
	r.Rebuilds += o.Rebuilds
	r.Flushes += o.Flushes
	r.Splits += o.Splits
	r.Merges += o.Merges
	r.Duration += o.Duration
	r.RowChanges += o.RowChanges
	r.VectorsAssigned += o.VectorsAssigned
	if o.Partitions > 0 {
		r.Partitions = o.Partitions
	}
}

// MaintenanceTotals accumulates the maintenance work performed through this
// handle — manual Rebuild/FlushDelta/Maintain calls and background
// maintainer passes combined.
type MaintenanceTotals struct {
	// Passes counts completed maintenance passes (Maintain calls).
	Passes int64
	// Rebuilds/Flushes/Splits/Merges count executed steps by kind.
	Rebuilds, Flushes, Splits, Merges int64
	// StaleRetries counts prepared splits discarded because a concurrent
	// commit changed the partition's rows before the apply, after which
	// the pass planned again — the price of keeping the writer gate open
	// through the k-means.
	StaleRetries int64
	// RowChanges is the cumulative count of row writes/deletes maintenance
	// performed. Divided by the rows ingested over the same span it is the
	// maintenance write-amplification factor.
	RowChanges int64
	// Errors counts background passes that failed.
	Errors int64
}

// recordStep folds one committed maintenance step's report into the
// totals: its kind and its row writes, the write-amplification counter.
// Steps are recorded as they commit (not when the pass ends), so totals
// snapshots taken while a background pass is mid-flight stay accurate.
func (db *DB) recordStep(step *MaintenanceReport) {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	t := &db.maintTotals
	t.Rebuilds += int64(step.Rebuilds)
	t.Flushes += int64(step.Flushes)
	t.Splits += int64(step.Splits)
	t.Merges += int64(step.Merges)
	t.RowChanges += step.RowChanges
}

// recordStaleRetry counts one prepared split discarded as stale.
func (db *DB) recordStaleRetry() {
	db.maintMu.Lock()
	db.maintTotals.StaleRetries++
	db.maintMu.Unlock()
}

// recordMaintenance marks a finished pass.
func (db *DB) recordMaintenance(rep *MaintenanceReport) {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	db.maintTotals.Passes++
	db.lastMaint = rep
}

// MaintenanceTotals returns the cumulative maintenance counters and the
// most recent pass's report (nil before the first pass). The report is a
// copy the caller owns: mutating it cannot race the report Stats and
// subsequent calls read under maintMu.
func (db *DB) MaintenanceTotals() (MaintenanceTotals, *MaintenanceReport) {
	db.maintMu.Lock()
	defer db.maintMu.Unlock()
	if db.lastMaint == nil {
		return db.maintTotals, nil
	}
	rep := *db.lastMaint
	return db.maintTotals, &rep
}

// rewrite runs one whole-index step on this shard — ivf's Rebuild or
// FlushDelta, named by action — in one write transaction, and records it
// as a pass. Queries proceed on consistent snapshots while it runs; writes
// queue behind it.
func (db *DB) rewrite(action ivf.MaintenanceAction, step func(*ivf.Index, *storage.WriteTxn) (*ivf.MaintenanceStats, error)) (*MaintenanceReport, error) {
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	var ms *ivf.MaintenanceStats
	err := db.store.Update(func(wt *storage.WriteTxn) error {
		var err error
		ms, err = step(db.ix, wt)
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := report(string(action), ms)
	if action == ivf.ActionFlush && ms.VectorsAssigned == 0 {
		// The delta-store was empty: no step ran.
		rep = &MaintenanceReport{Action: "none", Duration: ms.Duration, Partitions: ms.Partitions}
	}
	db.recordStep(rep)
	db.recordMaintenance(rep)
	return rep, nil
}

// maintPolicy derives the ivf maintenance policy from the open options.
func (db *DB) maintPolicy() ivf.MaintenancePolicy {
	return ivf.MaintenancePolicy{
		FlushThreshold:   db.opts.FlushThreshold,
		MinPartitionSize: db.opts.MinPartitionSize,
		MaxPartitionSize: db.opts.MaxPartitionSize,
	}
}

// maintainStepLimit bounds a single Maintain pass: under a sustained write
// storm the pass yields instead of chasing the delta forever (the next pass
// picks up where it left off).
const maintainStepLimit = 256

// maxStalePlans is how many prepared splits one Maintain pass discards
// before it splits inside the write transaction instead.
const maxStalePlans = 3

// maintain is one shard's Maintain pass (see router.Maintain).
func (db *DB) maintain() (*MaintenanceReport, error) {
	db.opMu.RLock()
	defer db.opMu.RUnlock()
	if err := db.checkOpen(); err != nil {
		return nil, err
	}
	rep := &MaintenanceReport{Action: "none"}
	stale := 0
	for i := 0; i < maintainStepLimit; i++ {
		// Close may have been requested mid-pass; it is blocked on opMu
		// until this pass returns, so end the pass at the step boundary.
		if err := db.checkOpen(); err != nil {
			return nil, err
		}
		var plan *ivf.MaintenancePlan
		var split *ivf.SplitPlan
		err := db.store.View(func(rt *storage.ReadTxn) error {
			var perr error
			plan, perr = db.ix.PlanMaintenance(rt, db.maintPolicy())
			if perr == nil && plan.Action == ivf.ActionSplit && stale < maxStalePlans {
				split, perr = db.ix.PrepareSplit(rt, plan.Partition)
			}
			return perr
		})
		if err != nil {
			return nil, err
		}
		if plan.Action == ivf.ActionNone {
			break
		}
		var ms *ivf.MaintenanceStats
		err = db.store.Update(func(wt *storage.WriteTxn) error {
			var serr error
			if split != nil {
				ms, serr = db.ix.ApplySplit(wt, split)
			} else {
				plan, ms, serr = db.ix.MaintainStep(wt, db.maintPolicy())
			}
			return serr
		})
		if errors.Is(err, ivf.ErrPlanStale) {
			stale++
			db.recordStaleRetry()
			continue
		}
		if err != nil {
			return nil, err
		}
		if plan.Action == ivf.ActionNone {
			break
		}
		step := report(string(plan.Action), ms)
		db.recordStep(step)
		rep.absorb(step)
	}
	db.recordMaintenance(rep)
	return rep, nil
}

// --- stats ---

// Stats reports database and index health.
type Stats struct {
	// NumVectors is the total indexed vector count.
	NumVectors int64
	// DeltaCount is the number of vectors in the delta-store.
	DeltaCount int64
	// NumPartitions is the IVF partition count (excluding the delta).
	NumPartitions int64
	// AvgPartitionSize is the mean IVF partition size.
	AvgPartitionSize float64
	// SmallestPartition / LargestPartition are the observed smallest and
	// largest IVF partition sizes (0 when the index has no partitions) —
	// what incremental maintenance keeps inside the configured
	// Options.MinPartitionSize/MaxPartitionSize bounds. Named differently
	// from those knobs on purpose: one pair is policy, this pair is
	// measurement.
	SmallestPartition int64
	LargestPartition  int64
	// Maintenance accumulates the maintenance work done on this handle.
	Maintenance MaintenanceTotals
	// Ingest reports the group committer's batching.
	Ingest IngestStats
	// GateWaits counts write transactions that queued behind the
	// single-writer gate; GateWaitNs is their total queued time. Group
	// commit exists to keep these flat under concurrent point writes.
	GateWaits  uint64
	GateWaitNs int64
	// LastMaintainAction is the most recent maintenance pass's action
	// ("" before the first pass).
	LastMaintainAction string
	// Backend names the page-store engine serving this database ("file",
	// "mmap" or "memory").
	Backend string
	// Quantization is the active partition-row encoding scheme.
	Quantization Quantization
	// ClipPercentile is the codebook trainer's quantile clip (0 when the
	// database is unquantized or trains on the full value range).
	ClipPercentile float64
	// ResidualSum and ResidualRows gauge codebook drift on a quantized
	// database: ResidualRows vectors were encoded by delta flushes since the
	// codebook was last trained (by Rebuild), and ResidualSum sums their
	// residuals ‖x − x̂‖₂, the distance between each vector and its decoded
	// code. A mean residual that grows as rows arrive shows the codebook
	// going stale. Both sum across shards.
	ResidualSum  float64
	ResidualRows int64
	// CacheBytes is current buffer-pool memory; CacheBudget the limit.
	CacheBytes  int64
	CacheBudget int64
	// CacheHits / CacheMisses / CacheEvictions are cumulative buffer-pool
	// counters. Note the pool's scope is backend-dependent: under the
	// mmap and memory backends base pages bypass the pool (only
	// WAL-resident page images are cached), so low traffic here is
	// expected and healthy.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	// WALBytes is the current write-ahead log size.
	WALBytes int64
	// FileBytes is the main database file size (pages * page size).
	FileBytes int64
	// FreeBytes is the part of FileBytes on the freelist: pages that hold
	// no data and that later writes reuse before the file grows.
	FreeBytes int64
	// PagesWritten is the cumulative count of page images appended to the
	// WAL since this handle opened the store — the physical
	// write-amplification signal the benches divide by rows ingested.
	PagesWritten uint64
	// Cache reports the query result cache (all zeros when disabled). On
	// a sharded database the one router-level cache is reported.
	Cache CacheStats
	// HybridSearches counts HybridSearch calls on this handle (on a
	// sharded database, router-level calls).
	HybridSearches uint64
}

// CacheStats reports the query result cache.
type CacheStats struct {
	// Enabled is true when the database serves from a result cache.
	Enabled bool
	// Hits counts queries answered entirely from the cache; Misses
	// queries with no usable entry; Invalidations queries that found an
	// entry whose commit horizon had moved (the entry was recomputed).
	Hits, Misses, Invalidations uint64
	// Evictions counts entries displaced by the LRU bounds.
	Evictions uint64
	// SkippedShardScans counts per-shard scans avoided by partial reuse
	// on a sharded database (shards whose generation had not moved).
	SkippedShardScans uint64
	// AdmissionDeferred counts filter-heavy responses the doorkeeper
	// declined to cache on first sight (see filterHeavyFilters).
	AdmissionDeferred uint64
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
}

// HitRatio returns hits / (hits + misses + invalidations), or 0 before any
// lookup.
func (c CacheStats) HitRatio() float64 {
	total := c.Hits + c.Misses + c.Invalidations
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// cacheStatsOf converts a rescache snapshot.
func cacheStatsOf(c *rescache.Cache) CacheStats {
	if c == nil {
		return CacheStats{}
	}
	st := c.Stats()
	return CacheStats{
		Enabled:           true,
		Hits:              st.Hits,
		Misses:            st.Misses,
		Invalidations:     st.Invalidations,
		Evictions:         st.Evictions,
		SkippedShardScans: st.SkippedScans,
		AdmissionDeferred: st.AdmissionDeferred,
		Entries:           st.Entries,
		Bytes:             st.Bytes,
	}
}

// indexStats reads the index-derived statistics at rt's snapshot — the one
// source for Stats and Snapshot.Stats.
func indexStats(ix *ivf.Index, rt *storage.ReadTxn) (Stats, error) {
	var out Stats
	st, err := ix.Stats(rt)
	if err != nil {
		return out, err
	}
	out.NumVectors = st.NumVectors
	out.DeltaCount = st.DeltaCount
	out.NumPartitions = st.NumPartitions
	out.AvgPartitionSize = st.AvgPartitionSize
	out.ResidualSum = st.ResidualSum
	out.ResidualRows = st.ResidualRows
	out.SmallestPartition, out.LargestPartition, err = ix.PartitionSizeBounds(rt)
	return out, err
}

// stats returns this shard's operational statistics: the index at one
// snapshot, the handle's maintenance and ingest counters, and its store's.
// The router's result cache and HybridSearch count are not the shard's;
// Stats overlays them.
func (db *DB) stats() (Stats, error) {
	var out Stats
	if err := db.checkOpen(); err != nil {
		return out, err
	}
	err := db.store.View(func(rt *storage.ReadTxn) error {
		var err error
		out, err = indexStats(db.ix, rt)
		return err
	})
	if err != nil {
		return out, err
	}
	db.maintMu.Lock()
	out.Maintenance = db.maintTotals
	if db.lastMaint != nil {
		out.LastMaintainAction = db.lastMaint.Action
	}
	db.maintMu.Unlock()
	out.Ingest = db.ing.counters()
	cfg := db.ix.Config()
	if out.Quantization = cfg.Quantization; out.Quantization != QuantNone {
		out.ClipPercentile = cfg.ClipPercentile
	}
	ss := db.store.Stats()
	out.Backend = ss.Backend.String()
	out.GateWaits = ss.GateWaits
	out.GateWaitNs = ss.GateWaitNs
	out.CacheBytes = ss.PoolBytes
	out.CacheBudget = db.store.PoolBudget()
	out.CacheHits = ss.PoolHits
	out.CacheMisses = ss.PoolMisses
	out.CacheEvictions = ss.PoolEvictions
	out.WALBytes = ss.WALBytes
	out.FileBytes = int64(ss.PageCount) * int64(db.store.PageSize())
	out.FreeBytes = int64(ss.FreePages) * int64(db.store.PageSize())
	out.PagesWritten = ss.PagesWritten
	return out, nil
}
