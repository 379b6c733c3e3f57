// Package storage implements the disk substrate MicroNN delegates to SQLite
// in the paper: a single-file page store with a write-ahead log, a
// byte-budgeted buffer pool, snapshot-isolated readers and one serialized
// writer. All durable state lives in two files: <path> (the page array) and
// <path>-wal (the log). Commits append page images to the WAL; checkpoints
// fold them back into the base file when no reader depends on older
// versions.
//
// Consistency contract (matches the paper's §3.6): readers observe the
// commit horizon captured when their transaction began, writers are fully
// serialized, and a crash at any point preserves the last committed state
// (frames after a torn write fail CRC validation and are discarded on
// recovery).
//
// # Backends
//
// How the base page array is materialized is pluggable (Options.Backend):
// the file backend preads/pwrites an os.File, the read-mmap backend maps
// the base file read-only so page reads skip the syscall and the buffer
// pool (WAL appends and checkpoint writes stay file-based, with a remap
// after checkpoints grow the file), and the memory backend keeps pages and
// WAL entirely in RAM for ephemeral stores. The kind used at create time
// is recorded in the store header, so reopening with BackendDefault
// auto-detects it. See the Backend interface for the exact ordering and
// sync guarantees every implementation must provide. Buffer-pool
// accounting is backend-aware: zero-copy backends (mmap, memory) bypass
// the pool for base pages — only WAL-resident page images are cached —
// since the OS page cache (or RAM itself) already holds the base image.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// SyncMode controls when files are fsync'd.
type SyncMode int

const (
	// SyncNormal fsyncs the WAL on every commit and the base file on every
	// checkpoint. Survives process and OS crashes.
	SyncNormal SyncMode = iota
	// SyncOff never fsyncs. Survives process crashes (the OS page cache
	// still holds the writes) but not power loss. Used by benchmarks.
	SyncOff
)

// Options configures a Store.
type Options struct {
	// PageSize in bytes. Must match the file if it already exists.
	// Defaults to DefaultPageSize.
	PageSize uint32
	// PoolBytes is the buffer-pool budget. This is the main memory knob:
	// the paper's Small/Large device profiles differ chiefly here.
	// Defaults to 32 MiB.
	PoolBytes int64
	// Sync selects the durability mode. Defaults to SyncNormal.
	Sync SyncMode
	// MaxDirtyPages bounds writer memory: transactions exceeding it spill
	// uncommitted frames to the WAL. Defaults to 4096 pages (16 MiB).
	MaxDirtyPages int
	// CheckpointFrames triggers an automatic checkpoint attempt after a
	// commit leaves at least this many frames in the WAL. Defaults to
	// 16384. Set negative to disable auto-checkpointing.
	CheckpointFrames int
	// Backend selects how the base page array is materialized: file
	// (default), read-mmap, or memory. BackendDefault auto-detects the
	// kind recorded in an existing store's header (falling back to file),
	// after honoring the MICRONN_TEST_BACKEND environment override used
	// by the test matrix. The memory backend is ephemeral: it never
	// touches the filesystem and takes no lock.
	Backend BackendKind
}

func (o *Options) fillDefaults() {
	if o.PageSize == 0 {
		o.PageSize = DefaultPageSize
	}
	if o.PoolBytes == 0 {
		o.PoolBytes = 32 << 20
	}
	if o.MaxDirtyPages == 0 {
		o.MaxDirtyPages = 4096
	}
	if o.CheckpointFrames == 0 {
		o.CheckpointFrames = 16384
	}
}

// Sentinel errors.
var (
	ErrClosed     = errors.New("storage: store is closed")
	ErrTxnDone    = errors.New("storage: transaction already finished")
	ErrReadOnly   = errors.New("storage: mutation in read-only transaction")
	ErrBusy       = errors.New("storage: checkpoint blocked by active readers")
	ErrLocked     = errors.New("storage: database is locked by another process")
	ErrBadPage    = errors.New("storage: page out of range")
	ErrCorrupt    = errors.New("storage: file corrupt")
	ErrInjected   = errors.New("storage: injected WAL failure")
	errPageZeroRW = errors.New("storage: header page is managed by the store")
)

// Store is a page store with WAL-based transactions.
type Store struct {
	opts Options

	backend Backend
	kind    BackendKind
	// directBase is set for zero-copy backends (mmap, memory): base-page
	// reads return backend-owned memory and bypass the buffer pool.
	directBase bool

	wal  *wal
	pool *bufferPool
	lock *fileLock

	// mu guards commitSeq, nextTxnID, readers, pageCount, freePages and
	// the stat counters. Page reads do not take it.
	mu        sync.Mutex
	commitSeq uint64
	nextTxnID uint64
	readers   map[uint64]int // snapshot seq -> refcount
	pageCount uint32         // committed page count
	freePages uint32         // committed freelist length

	// writer serializes write transactions and checkpoints, granting the
	// critical section in strict FIFO arrival order (see gate.go).
	writer writerGate

	// prefetch is the backend's optional readahead capability (nil when
	// the backend has none). See ReadTxn.Readahead.
	prefetch Prefetcher

	// resolveMu is the page-read lock. A read holds its page's stripe
	// shared from the WAL index lookup to the end of the file read. It is
	// held exclusively to publish a commit's frames into idx, to truncate
	// the WAL at a checkpoint and to close the store. Lock order:
	// resolveMu, then mu.
	resolveMu readLock
	// idx is the committed WAL index. It changes only under the writer
	// gate and resolveMu held exclusively, so either of those reads it.
	idx *walIndex
	// closed is set once, under the writer gate, resolveMu and mu, so any
	// one of them reads it.
	closed bool

	statCommits     uint64
	statCheckpoints uint64
	statPagesOut    uint64 // page images appended to WAL
}

// Open opens or creates the store at path.
func Open(path string, opts Options) (*Store, error) {
	opts.fillDefaults()
	kind := opts.Backend
	if kind == BackendDefault {
		ek, ok, err := envBackend()
		if err != nil {
			return nil, err
		}
		if ok {
			kind = ek
		}
	}
	s := &Store{
		opts:    opts,
		readers: make(map[uint64]int),
	}

	var wf walFile
	var existing *header
	if kind == BackendMemory {
		// Fully in-RAM: no base file, no WAL file, no lock file. Every
		// open is a fresh, empty, ephemeral store.
		s.backend = newMemBackend(opts.PageSize)
		wf = &memFile{}
	} else {
		l, err := acquireFileLock(path + ".lock")
		if err != nil {
			return nil, err
		}
		s.lock = l
		db, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			s.release()
			return nil, fmt.Errorf("storage: open db: %w", err)
		}
		st, err := db.Stat()
		if err != nil {
			db.Close()
			s.release()
			return nil, err
		}
		if st.Size() > 0 {
			// Validate the header and, with BackendDefault, adopt the
			// recorded kind before choosing the engine.
			page := make([]byte, opts.PageSize)
			if _, err := db.ReadAt(page, 0); err != nil {
				db.Close()
				s.release()
				return nil, fmt.Errorf("storage: read header: %w", err)
			}
			h, err := decodeHeader(page)
			if err != nil {
				db.Close()
				s.release()
				return nil, err
			}
			if h.pageSize != opts.PageSize {
				db.Close()
				s.release()
				return nil, fmt.Errorf("storage: page size mismatch: file=%d opts=%d", h.pageSize, opts.PageSize)
			}
			if kind == BackendDefault {
				switch rec := BackendKind(h.backend); {
				case rec == BackendFile:
					kind = rec
				case rec == BackendMmap && mmapSupported:
					kind = rec
				case rec == BackendMmap:
					// The byte is a preference, not a format marker: a
					// database created with mmap elsewhere must still
					// open on a platform without it.
					kind = BackendFile
				}
			}
			existing = &h
		}
		if kind == BackendDefault {
			kind = BackendFile
		}
		switch kind {
		case BackendFile:
			s.backend = newFileBackend(db, opts.PageSize)
		case BackendMmap:
			mb, err := newMmapBackend(db, opts.PageSize)
			if err != nil {
				db.Close()
				s.release()
				return nil, err
			}
			s.backend = mb
		default:
			db.Close()
			s.release()
			return nil, fmt.Errorf("storage: invalid backend %s", kind)
		}
		owf, err := os.OpenFile(path+"-wal", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			s.release()
			return nil, fmt.Errorf("storage: open wal: %w", err)
		}
		wf = osWALFile{owf}
	}
	s.kind = kind
	s.directBase = kind == BackendMmap || kind == BackendMemory

	if existing != nil {
		s.pageCount = existing.pageCount
	} else {
		// Fresh database (every memory open is one): write the header.
		page := make([]byte, opts.PageSize)
		encodeHeader(page, header{pageSize: opts.PageSize, pageCount: 1, backend: uint8(kind)})
		if err := s.backend.WritePage(0, page); err != nil {
			s.release()
			return nil, fmt.Errorf("storage: init db: %w", err)
		}
		if opts.Sync == SyncNormal {
			if err := s.backend.Sync(); err != nil {
				s.release()
				return nil, err
			}
		}
		if err := s.backend.Remap(); err != nil {
			s.release()
			return nil, err
		}
		s.pageCount = 1
	}

	w, err := openWALOn(wf, opts.PageSize)
	if err != nil {
		s.release()
		return nil, err
	}
	s.wal = w
	idx, commits, walPageCount, maxTxnID, err := w.recover()
	if err != nil {
		s.release()
		return nil, err
	}
	s.idx = idx
	s.commitSeq = commits
	s.nextTxnID = maxTxnID + 1
	if walPageCount != 0 {
		s.pageCount = walPageCount
	}
	s.pool = newBufferPool(opts.PoolBytes, opts.PageSize)
	if p, ok := s.backend.(Prefetcher); ok {
		s.prefetch = p
	}
	// The committed header is the WAL's last commit frame, if any.
	hp, err := s.readPage(0, s.commitSeq)
	if err == nil {
		var h header
		if h, err = decodeHeader(hp); err == nil {
			s.freePages = h.freelistLen
		}
	}
	if err != nil {
		s.release()
		return nil, fmt.Errorf("storage: read header: %w", err)
	}
	return s, nil
}

func (s *Store) release() {
	if s.backend != nil {
		s.backend.Close()
	}
	if s.wal != nil {
		s.wal.close()
	}
	if s.lock != nil {
		s.lock.release()
	}
}

// PageSize returns the store's page size.
func (s *Store) PageSize() uint32 { return s.opts.PageSize }

// Close checkpoints if possible and closes the files. Acquiring the writer
// gate first means an in-flight write transaction always commits or rolls
// back before teardown begins.
func (s *Store) Close() error {
	s.writer.acquire()
	defer s.writer.release()
	if s.closed {
		return ErrClosed
	}
	// Best-effort checkpoint; ErrBusy just means a reader is still open.
	if err := s.checkpointLocked(); err != nil && !errors.Is(err, ErrBusy) {
		return err
	}
	s.shut()
	return nil
}

// CloseWithoutCheckpoint closes the files leaving the WAL in place, exactly
// as a crash would. Used by recovery tests and the cold-start benchmarks.
func (s *Store) CloseWithoutCheckpoint() error {
	s.writer.acquire()
	defer s.writer.release()
	if s.closed {
		return ErrClosed
	}
	s.shut()
	return nil
}

// shut marks the store closed and releases the files; the caller holds the
// writer gate. Holding resolveMu exclusively means an in-flight page read
// never touches a released backend, and every later one sees closed.
func (s *Store) shut() {
	s.resolveMu.Lock()
	defer s.resolveMu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.release()
}

// DropCaches empties the buffer pool, simulating the paper's ColdStart
// scenario (purged database caches).
func (s *Store) DropCaches() { s.pool.drop() }

// SetWALFailpoint arms a one-shot crash injection: after n more WAL frame
// appends succeed, the following append writes a torn partial frame to disk
// and fails with ErrInjected — leaving exactly the on-disk state of a power
// cut mid-commit (or mid-spill). The in-flight transaction fails; a
// subsequent CloseWithoutCheckpoint + Open must recover the last committed
// state. Negative n disarms. Crash-recovery tests only.
func (s *Store) SetWALFailpoint(n int) { s.wal.failAfter.Store(int64(n)) }

// Stats reports operational counters.
type Stats struct {
	Backend       BackendKind
	PoolBytes     int64
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	WALFrames     uint32
	WALBytes      int64
	PageCount     uint32
	// FreePages is the committed freelist length: pages of the file that
	// hold no data and that the next allocations reuse.
	FreePages    uint32
	Commits      uint64
	Checkpoints  uint64
	PagesWritten uint64
	// GateWaits / GateWaitNs count writer-gate acquisitions that queued
	// behind a holder and the total nanoseconds spent queued — the
	// contention that group commit amortizes.
	GateWaits  uint64
	GateWaitNs int64
}

// Stats returns a snapshot of operational counters.
func (s *Store) Stats() Stats {
	hits, misses, evictions := s.pool.stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Backend:       s.kind,
		PoolBytes:     s.pool.bytes(),
		PoolHits:      hits,
		PoolMisses:    misses,
		PoolEvictions: evictions,
		WALFrames:     s.wal.frames.Load(),
		WALBytes:      s.wal.size(),
		PageCount:     s.pageCount,
		FreePages:     s.freePages,
		Commits:       s.statCommits,
		Checkpoints:   s.statCheckpoints,
		PagesWritten:  s.statPagesOut,
		GateWaits:     s.writer.waits.Load(),
		GateWaitNs:    s.writer.waitNs.Load(),
	}
}

// PoolBudget returns the configured buffer-pool byte budget.
func (s *Store) PoolBudget() int64 { return s.opts.PoolBytes }

// Kind returns the backend the store resolved at open time.
func (s *Store) Kind() BackendKind { return s.kind }

// Persistent reports whether the backend outlives the process (false only
// for the memory backend).
func (s *Store) Persistent() bool { return s.kind != BackendMemory }

// readPage resolves pageNo at the given snapshot through WAL index, buffer
// pool and base backend. The returned buffer is shared and read-only.
func (s *Store) readPage(pageNo uint32, snapshot uint64) ([]byte, error) {
	defer s.resolveMu.RLock(pageNo).RUnlock() // locks now, unlocks at return
	if s.closed {
		return nil, ErrClosed
	}
	frame, inWAL := s.idx.lookup(pageNo, snapshot)

	if !inWAL && s.directBase {
		// Zero-copy backends serve base pages from their own memory (the
		// mmap mapping, or the in-RAM page array): no pool lookup, no
		// pool insert — the OS page cache / RAM already holds the bytes,
		// and caching them again would double-count the budget.
		data, _, err := s.backend.ReadPage(pageNo, nil)
		if err != nil {
			return nil, wrapReadErr(pageNo, err)
		}
		return data, nil
	}

	key := poolKey{pageNo: pageNo}
	if inWAL {
		key.frame = frame + 1
	}
	if data := s.pool.get(key); data != nil {
		return data, nil
	}
	buf := make([]byte, s.opts.PageSize)
	if inWAL {
		if err := s.wal.readFrame(frame, buf); err != nil {
			return nil, err
		}
	} else {
		data, _, err := s.backend.ReadPage(pageNo, buf)
		if err != nil {
			return nil, wrapReadErr(pageNo, err)
		}
		buf = data
	}
	s.pool.put(key, buf)
	return buf, nil
}

func wrapReadErr(pageNo uint32, err error) error {
	if errors.Is(err, io.EOF) {
		return fmt.Errorf("%w: page %d beyond end of file", ErrBadPage, pageNo)
	}
	return fmt.Errorf("storage: read page %d: %w", pageNo, err)
}

// --- read transactions ---

// ReadTxn is a snapshot-isolated read transaction. It is safe for use by a
// single goroutine; open as many concurrent ReadTxns as needed.
type ReadTxn struct {
	s    *Store
	seq  uint64
	done bool
}

// BeginRead starts a read transaction pinned to the current commit horizon.
func (s *Store) BeginRead() (*ReadTxn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	s.readers[s.commitSeq]++
	return &ReadTxn{s: s, seq: s.commitSeq}, nil
}

// Horizon returns the commit sequence the snapshot is pinned at. It grows by
// one with every commit on this Store handle, and a checkpoint leaves it
// alone, so two snapshots of one handle with the same horizon see
// identical data.
func (t *ReadTxn) Horizon() uint64 { return t.seq }

// Get returns the content of pageNo as of the transaction's snapshot.
// The buffer is shared: callers must not modify it.
func (t *ReadTxn) Get(pageNo uint32) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	return t.s.readPage(pageNo, t.seq)
}

// Header returns the decoded header as of the snapshot.
func (t *ReadTxn) Header() (header, error) {
	p, err := t.Get(0)
	if err != nil {
		return header{}, err
	}
	return decodeHeader(p)
}

// CatalogRoot returns the catalog root page recorded in the header.
func (t *ReadTxn) CatalogRoot() (uint32, error) {
	h, err := t.Header()
	if err != nil {
		return 0, err
	}
	return h.catalogRoot, nil
}

// Close releases the snapshot. It is idempotent.
func (t *ReadTxn) Close() {
	if t.done {
		return
	}
	t.done = true
	s := t.s
	s.mu.Lock()
	if n := s.readers[t.seq]; n <= 1 {
		delete(s.readers, t.seq)
	} else {
		s.readers[t.seq] = n - 1
	}
	s.mu.Unlock()
}

// View runs fn inside a read transaction.
func (s *Store) View(fn func(*ReadTxn) error) error {
	t, err := s.BeginRead()
	if err != nil {
		return err
	}
	defer t.Close()
	return fn(t)
}

// --- read-side readahead ---

// WantReadahead reports whether Readahead can have any effect, letting
// callers skip the work of assembling a page list when the backend has no
// prefetch capability (file: the pool already amortizes; memory: nothing
// to fetch).
func (t *ReadTxn) WantReadahead() bool {
	return !t.done && t.s.prefetch != nil
}

// Readahead hints the OS to prefetch the given pages ahead of a scan
// (MADV_WILLNEED on the mmap backend), so scatter reads over the probed
// partitions overlap I/O with compute instead of faulting page-by-page.
// Pages whose newest version at this snapshot lives in the WAL are skipped
// — the WAL is served through the buffer pool, not the mapping. Purely
// advisory: errors are ignored and unknown backends do nothing.
func (t *ReadTxn) Readahead(pages []uint32) {
	if t.done || t.s.prefetch == nil || len(pages) == 0 {
		return
	}
	s := t.s
	base := pages[:0]
	rl := s.resolveMu.RLock(0) // any one stripe excludes the writers of idx
	if s.closed {
		rl.RUnlock()
		return
	}
	for _, pageNo := range pages {
		if _, inWAL := s.idx.lookup(pageNo, t.seq); !inWAL {
			base = append(base, pageNo)
		}
	}
	rl.RUnlock()
	if len(base) == 0 {
		return
	}
	sort.Slice(base, func(i, j int) bool { return base[i] < base[j] })
	// Coalesce runs of adjacent pages into single advise calls.
	start, n := base[0], uint32(1)
	for _, pageNo := range base[1:] {
		if pageNo == start+n {
			n++
			continue
		}
		if pageNo != start+n-1 { // skip duplicates
			s.prefetch.Prefetch(start, n)
			start, n = pageNo, 1
		}
	}
	s.prefetch.Prefetch(start, n)
}

// --- write transactions ---

// WriteTxn is the single writer. Mutations stay private (in memory or as
// uncommitted WAL frames) until Commit.
type WriteTxn struct {
	s       *Store
	txnID   uint64
	dirty   map[uint32][]byte
	pending map[uint32]uint32 // spilled page -> WAL frame
	hdr     header
	done    bool
}

// BeginWrite starts a write transaction, blocking until any other writer
// finishes. Waiting writers are admitted in FIFO arrival order.
func (s *Store) BeginWrite() (*WriteTxn, error) {
	s.writer.acquire()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.writer.release()
		return nil, ErrClosed
	}
	txnID := s.nextTxnID
	s.nextTxnID++
	seq := s.commitSeq
	s.mu.Unlock()

	t := &WriteTxn{
		s:       s,
		txnID:   txnID,
		dirty:   make(map[uint32][]byte),
		pending: make(map[uint32]uint32),
	}
	p, err := s.readPage(0, seq)
	if err != nil {
		s.writer.release()
		return nil, err
	}
	h, err := decodeHeader(p)
	if err != nil {
		s.writer.release()
		return nil, err
	}
	t.hdr = h
	return t, nil
}

// Update runs fn in a write transaction, committing on success and rolling
// back if fn returns an error.
func (s *Store) Update(fn func(*WriteTxn) error) error {
	t, err := s.BeginWrite()
	if err != nil {
		return err
	}
	if err := fn(t); err != nil {
		t.Rollback()
		return err
	}
	return t.Commit()
}

func (t *WriteTxn) snapshot() uint64 {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.commitSeq
}

// Get returns a read-only view of pageNo including this transaction's own
// uncommitted writes.
func (t *WriteTxn) Get(pageNo uint32) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if pageNo == 0 {
		return nil, errPageZeroRW
	}
	if buf, ok := t.dirty[pageNo]; ok {
		return buf, nil
	}
	if frame, ok := t.pending[pageNo]; ok {
		buf := make([]byte, t.s.opts.PageSize)
		if err := t.s.wal.readFrame(frame, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return t.s.readPage(pageNo, t.snapshot())
}

// GetMut returns a writable copy of pageNo registered in the dirty set.
func (t *WriteTxn) GetMut(pageNo uint32) ([]byte, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	if pageNo == 0 {
		return nil, errPageZeroRW
	}
	if buf, ok := t.dirty[pageNo]; ok {
		return buf, nil
	}
	src, err := t.Get(pageNo)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, len(src))
	copy(buf, src)
	t.dirty[pageNo] = buf
	delete(t.pending, pageNo) // dirty copy supersedes the spilled frame
	return buf, nil
}

// Allocate returns a fresh zeroed page, reusing the freelist when possible.
func (t *WriteTxn) Allocate() (uint32, []byte, error) {
	if t.done {
		return 0, nil, ErrTxnDone
	}
	var pageNo uint32
	if t.hdr.freelistHead != 0 {
		pageNo = t.hdr.freelistHead
		next, err := t.Get(pageNo)
		if err != nil {
			return 0, nil, err
		}
		t.hdr.freelistHead = leU32(next)
		t.hdr.freelistLen--
	} else {
		pageNo = t.hdr.pageCount
		t.hdr.pageCount++
	}
	buf := make([]byte, t.s.opts.PageSize)
	t.dirty[pageNo] = buf
	delete(t.pending, pageNo)
	return pageNo, buf, nil
}

// Free returns pageNo to the freelist.
func (t *WriteTxn) Free(pageNo uint32) error {
	if t.done {
		return ErrTxnDone
	}
	if pageNo == 0 || pageNo >= t.hdr.pageCount {
		return fmt.Errorf("%w: free page %d", ErrBadPage, pageNo)
	}
	buf, err := t.GetMut(pageNo)
	if err != nil {
		return err
	}
	for i := range buf {
		buf[i] = 0
	}
	putLEU32(buf, t.hdr.freelistHead)
	t.hdr.freelistHead = pageNo
	t.hdr.freelistLen++
	return nil
}

// PageCount returns the transaction's view of the page count.
func (t *WriteTxn) PageCount() uint32 { return t.hdr.pageCount }

// FreePages returns the freelist length.
func (t *WriteTxn) FreePages() uint32 { return t.hdr.freelistLen }

// CatalogRoot returns the catalog root page number (0 if unset).
func (t *WriteTxn) CatalogRoot() (uint32, error) { return t.hdr.catalogRoot, nil }

// SetCatalogRoot records the catalog root page in the header.
func (t *WriteTxn) SetCatalogRoot(pageNo uint32) { t.hdr.catalogRoot = pageNo }

// SpillIfNeeded bounds writer memory by flushing the dirty set to
// uncommitted WAL frames once it exceeds MaxDirtyPages. Spilling detaches
// the page buffers previously returned by GetMut/Allocate, so callers must
// only invoke it at safe points where no such buffer is still held —
// typically between row-level operations.
func (t *WriteTxn) SpillIfNeeded() error {
	if t.done {
		return ErrTxnDone
	}
	if len(t.dirty) <= t.s.opts.MaxDirtyPages {
		return nil
	}
	return t.spill()
}

// DirtyPages returns the number of in-memory dirty pages.
func (t *WriteTxn) DirtyPages() int { return len(t.dirty) }

func (t *WriteTxn) spill() error {
	for pageNo, buf := range t.dirty {
		frame, err := t.s.wal.appendFrame(pageNo, buf, t.txnID, false, 0)
		if err != nil {
			return err
		}
		t.pending[pageNo] = frame
		t.s.mu.Lock()
		t.s.statPagesOut++
		t.s.mu.Unlock()
		delete(t.dirty, pageNo)
	}
	return nil
}

// Commit appends the dirty set and a commit frame to the WAL, fsyncs per
// the sync mode, and publishes the transaction atomically.
func (t *WriteTxn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	s := t.s
	defer func() {
		t.done = true
		s.writer.release()
	}()

	// The header page always travels with the commit so page count,
	// freelist and catalog root stay transactional; it doubles as the
	// commit frame.
	hdrPage := make([]byte, s.opts.PageSize)
	encodeHeader(hdrPage, header{
		pageSize:     s.opts.PageSize,
		pageCount:    t.hdr.pageCount,
		freelistHead: t.hdr.freelistHead,
		freelistLen:  t.hdr.freelistLen,
		catalogRoot:  t.hdr.catalogRoot,
		backend:      uint8(s.kind),
	})

	type cached struct {
		pageNo uint32
		frame  uint32
		data   []byte
	}
	var toCache []cached
	for pageNo, buf := range t.dirty {
		frame, err := s.wal.appendFrame(pageNo, buf, t.txnID, false, 0)
		if err != nil {
			return err
		}
		t.pending[pageNo] = frame
		toCache = append(toCache, cached{pageNo, frame, buf})
	}
	commitFrame, err := s.wal.appendFrame(0, hdrPage, t.txnID, true, t.hdr.pageCount)
	if err != nil {
		return err
	}
	t.pending[0] = commitFrame
	toCache = append(toCache, cached{0, commitFrame, hdrPage})

	if s.opts.Sync == SyncNormal {
		if err := s.wal.sync(); err != nil {
			return err
		}
	}

	s.resolveMu.Lock()
	s.mu.Lock()
	s.commitSeq++
	s.idx.publish(t.pending, s.commitSeq)
	s.pageCount = t.hdr.pageCount
	s.freePages = t.hdr.freelistLen
	s.statCommits++
	s.statPagesOut += uint64(len(toCache))
	frames := s.wal.frames.Load()
	s.mu.Unlock()
	s.resolveMu.Unlock()

	// Write-through cache so re-reads of just-committed pages hit memory.
	for _, c := range toCache {
		s.pool.put(poolKey{pageNo: c.pageNo, frame: c.frame + 1}, c.data)
	}

	if s.opts.CheckpointFrames >= 0 && int(frames) >= s.opts.CheckpointFrames {
		// Best effort: skipped when readers pin older snapshots.
		_ = s.checkpointLocked()
	}
	return nil
}

// Rollback abandons the transaction. Spilled frames become garbage that the
// next checkpoint reclaims; they are never published so no reader or
// recovery pass can observe them.
func (t *WriteTxn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	t.s.writer.release()
}

// --- checkpoint ---

// Checkpoint folds the newest committed version of every WAL page into the
// base file and truncates the WAL. It fails with ErrBusy if a reader is
// pinned to a snapshot older than the commit horizon.
func (s *Store) Checkpoint() error {
	s.writer.acquire()
	defer s.writer.release()
	return s.checkpointLocked()
}

// checkpointLocked requires the writer gate held.
func (s *Store) checkpointLocked() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	for seq, n := range s.readers {
		if n > 0 && seq < s.commitSeq {
			s.mu.Unlock()
			return ErrBusy
		}
	}
	s.mu.Unlock()
	latest := s.idx.latest()
	if len(latest) == 0 {
		return nil
	}

	// peek, not get: the checkpoint's own lookups are not reads to count
	// in the pool's stats or to mark pages recently used.
	buf := make([]byte, s.opts.PageSize)
	for pageNo, frame := range latest {
		var data []byte
		if cached := s.pool.peek(poolKey{pageNo: pageNo, frame: frame + 1}); cached != nil {
			data = cached
		} else {
			if err := s.wal.readFrame(frame, buf); err != nil {
				return err
			}
			data = buf
		}
		if err := s.backend.WritePage(pageNo, data); err != nil {
			return fmt.Errorf("storage: checkpoint page %d: %w", pageNo, err)
		}
	}
	if s.opts.Sync == SyncNormal {
		if err := s.backend.Sync(); err != nil {
			return err
		}
	}

	// Exclude concurrent page resolution while the WAL disappears. The
	// fold is already synced, so the ordering below is safe for every
	// backend — and it must refresh the backend's view of the (possibly
	// grown) base array BEFORE truncating the WAL: if Remap fails, the
	// WAL index still points at live frames and the store stays fully
	// readable; the reverse order would strand the index on a truncated
	// log.
	s.resolveMu.Lock()
	defer s.resolveMu.Unlock()
	if err := s.backend.Remap(); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	if s.directBase {
		// Every pool entry is WAL-keyed (base pages bypass the pool) and
		// the WAL just vanished: drop them all rather than promoting to
		// base keys that no read path would ever consult.
		s.pool.drop()
	} else {
		s.pool.checkpointRekey(latest)
	}
	s.idx = newWALIndex()
	s.mu.Lock()
	s.statCheckpoints++
	s.mu.Unlock()
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLEU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
