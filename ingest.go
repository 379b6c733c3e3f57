package micronn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"micronn/internal/ivf"
	"micronn/internal/reldb"
	"micronn/internal/storage"
)

// This file is the write path: every Upsert, UpsertBatch, Delete and
// DeleteBatch enqueues its operation and blocks while a dedicated committer
// goroutine batches every writer accumulated while the previous transaction
// held the single-writer gate into ONE storage transaction — the group
// commit — writing into the WAL'd delta store. Callers receive their
// group's commit error, so an Upsert that returned nil is on disk exactly
// as a per-call transaction would have left it; what group commit changes
// is cost: one gate acquisition, one WAL append/sync and one commit,
// which moves the result cache's horizon once, are amortized over the
// whole group instead of paid per point write. The delta is bounded by
// maintenance (Maintain's flush past Options.FlushThreshold, or
// AutoMaintain), not by the committer.

// ingestOp is one writer's enqueued unit of work: either an upsert batch
// (items + pre-converted attributes, index-aligned) or a delete batch.
// Pre-validation happens at enqueue time so one writer's malformed request
// fails only that writer, never the whole group.
type ingestOp struct {
	items  []Item
	attrs  []map[string]reldb.Value
	dels   []string
	strict bool // Delete (not DeleteBatch): absent ids are an error
	errc   chan error
}

// ingester owns the pending queue and the committer goroutine.
type ingester struct {
	db *DB

	// declared maps the schema's attribute names to their column types for
	// enqueue-time validation (the committer must not discover per-writer
	// mistakes mid-group, where they would fail every writer in it).
	declared map[string]reldb.ColType

	mu      sync.Mutex
	pending []*ingestOp
	stopped bool

	wake chan struct{} // buffered(1): writers nudge the committer
	stop chan struct{}
	done chan struct{}

	// Telemetry (read by Stats without locks).
	groupCommits atomic.Uint64
	groupedOps   atomic.Uint64
	maxGroup     atomic.Int64
}

func newIngester(db *DB) *ingester {
	declared := make(map[string]reldb.ColType, len(db.ix.Config().Attributes))
	for _, a := range db.ix.Config().Attributes {
		declared[a.Name] = a.Type
	}
	return &ingester{
		db:       db,
		declared: declared,
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// upsert enqueues an upsert batch and blocks until its group commits.
func (g *ingester) upsert(items []Item) error {
	dim := g.db.ix.Config().Dim
	attrs := make([]map[string]reldb.Value, len(items))
	for i, item := range items {
		if len(item.Vector) != dim {
			return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(item.Vector), dim)
		}
		if err := checkFinite(item.Vector); err != nil {
			return fmt.Errorf("item %q: %w", item.ID, err)
		}
		a, err := convertAttrs(item.Attributes)
		if err != nil {
			return err
		}
		for name, v := range a {
			typ, ok := g.declared[name]
			if !ok {
				return badRequestf("undeclared attribute %q", name)
			}
			if !v.IsNull() && v.Type != typ {
				return badRequestf("attribute %q: want %v, got %v", name, typ, v.Type)
			}
		}
		attrs[i] = a
	}
	return g.enqueue(&ingestOp{items: items, attrs: attrs, errc: make(chan error, 1)})
}

// delete enqueues a delete batch; strict surfaces ErrNotFound for absent
// ids (the single-Delete contract) without failing the rest of the group.
func (g *ingester) delete(ids []string, strict bool) error {
	return g.enqueue(&ingestOp{dels: ids, strict: strict, errc: make(chan error, 1)})
}

func (g *ingester) enqueue(op *ingestOp) error {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return ErrClosed
	}
	g.pending = append(g.pending, op)
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	return <-op.errc
}

// run is the committer goroutine: it drains the queue into group commits
// until shutdown, then commits whatever is still queued (writers blocked in
// enqueue at Close time still get a real answer).
func (g *ingester) run() {
	defer close(g.done)
	for {
		select {
		case <-g.stop:
			g.mu.Lock()
			g.stopped = true
			batch := g.pending
			g.pending = nil
			g.mu.Unlock()
			g.commitGroup(batch)
			return
		case <-g.wake:
			for {
				g.mu.Lock()
				batch := g.pending
				g.pending = nil
				g.mu.Unlock()
				if len(batch) == 0 {
					break
				}
				g.commitGroup(batch)
			}
		}
	}
}

// commitGroup applies every queued operation in one storage transaction and
// hands each waiter the commit's error. A strict delete of an absent id is
// a per-waiter soft error: that waiter gets ErrNotFound, the group still
// commits (requests were pre-validated, so remaining in-transaction errors
// are storage-level and rightly fail everyone).
func (g *ingester) commitGroup(batch []*ingestOp) {
	if len(batch) == 0 {
		return
	}
	soft := make([]error, len(batch))
	err := g.db.store.Update(func(wt *storage.WriteTxn) error {
		for i, op := range batch {
			soft[i] = nil
			for j, item := range op.items {
				if err := g.db.ix.Upsert(wt, item.ID, item.Vector, op.attrs[j]); err != nil {
					if errors.Is(err, ivf.ErrDimMismatch) {
						return fmt.Errorf("%w: %v", ErrDimMismatch, err)
					}
					return err
				}
			}
			for _, id := range op.dels {
				if err := g.db.ix.Delete(wt, id); err != nil {
					if errors.Is(err, ivf.ErrNotFound) {
						if op.strict {
							soft[i] = ErrNotFound
						}
						continue
					}
					return err
				}
			}
		}
		return nil
	})
	if err == nil {
		g.groupCommits.Add(1)
		g.groupedOps.Add(uint64(len(batch)))
		// Only the committer writes maxGroup; load-compare-store is safe.
		if n := int64(len(batch)); n > g.maxGroup.Load() {
			g.maxGroup.Store(n)
		}
	}
	for i, op := range batch {
		e := err
		if e == nil {
			e = soft[i]
		}
		op.errc <- e
	}
}

// shutdown stops the committer, draining queued writers with a final group
// commit.
func (g *ingester) shutdown() {
	close(g.stop)
	<-g.done
}

// IngestStats reports the group committer, cumulative for this handle.
type IngestStats struct {
	// GroupCommits counts committed groups; GroupedOps the writer calls
	// they carried. GroupedOps/GroupCommits is the achieved batching
	// factor; MaxGroupSize the largest single group.
	GroupCommits uint64
	GroupedOps   uint64
	MaxGroupSize int64
}

// counters snapshots the ingester-side counters.
func (g *ingester) counters() IngestStats {
	return IngestStats{
		GroupCommits: g.groupCommits.Load(),
		GroupedOps:   g.groupedOps.Load(),
		MaxGroupSize: g.maxGroup.Load(),
	}
}
