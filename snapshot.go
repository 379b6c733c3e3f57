package micronn

import (
	"micronn/internal/storage"
)

// Snapshot is a read-only view of the database pinned to one commit
// horizon per shard. Every query through a Snapshot observes exactly the
// same state, regardless of concurrent writes, flushes or rebuilds — the
// paper's §2.1 consistency requirement ("each reader should see a
// consistent state of the index at all times, including reading
// concurrently with writes and index maintenance operations"). On a
// sharded database the horizons are captured shard by shard, so a
// cross-shard write racing Snapshot may be visible on one shard and not
// another (per-shard consistency, as documented on ShardedDB).
//
// Snapshot queries run the same pipeline as live ones. They consult the
// result cache at the pinned generations — a hit there is exact — but
// never store into it.
//
// Snapshots hold WAL segments alive and can delay checkpoints, so close
// them promptly. A Snapshot is safe for concurrent use.
type Snapshot struct {
	r   *router
	rts []*storage.ReadTxn
}

// ShardedSnapshot is the snapshot type of a ShardedDB: one Snapshot type
// serves every topology.
type ShardedSnapshot = Snapshot

// Snapshot opens a consistent read view. Callers must Close it.
func (r *router) Snapshot() (*Snapshot, error) {
	rts, err := r.pin()
	if err != nil {
		return nil, err
	}
	return &Snapshot{r: r, rts: rts}, nil
}

// Close releases the snapshot. Idempotent.
func (s *Snapshot) Close() {
	closeReads(s.rts)
}

// Search runs a query against the pinned state (same semantics as
// DB.Search).
func (s *Snapshot) Search(req SearchRequest) (*SearchResponse, error) {
	return s.r.search(s.rts, false, req)
}

// BatchSearch runs a query batch against the pinned state.
func (s *Snapshot) BatchSearch(req BatchSearchRequest) (*BatchSearchResponse, error) {
	return s.r.batchSearch(s.rts, false, req)
}

// HybridSearch runs the fused query against the pinned state (same
// semantics as DB.HybridSearch).
func (s *Snapshot) HybridSearch(req HybridRequest) (*HybridResponse, error) {
	return s.r.hybridSearch(s.rts, false, req)
}

// Get returns the item as of its shard's pinned horizon.
func (s *Snapshot) Get(id string) (*Item, error) {
	i := s.r.shardOf(id)
	return getItem(s.r.shards[i].ix, s.rts[i], id)
}

// Stats returns the index counters as of the pinned horizons, aggregated
// like ShardedDB.Stats, so AvgPartitionSize excludes delta and sealed-run
// rows.
func (s *Snapshot) Stats() (Stats, error) {
	per := make([]Stats, len(s.rts))
	for i, sh := range s.r.shards {
		st, err := indexStats(sh.ix, s.rts[i])
		if err != nil {
			return Stats{}, err
		}
		per[i] = st
	}
	return AggregateStats(per), nil
}
