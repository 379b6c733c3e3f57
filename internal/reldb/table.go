package reldb

import (
	"bytes"
	"errors"
	"fmt"

	"micronn/internal/btree"
	"micronn/internal/storage"
)

// Table is a handle to a clustered table. Handles are cheap and stateless;
// operations take the transaction explicitly so one handle can serve many
// concurrent readers.
type Table struct {
	db   *DB
	meta *tableMeta
	tree *btree.Tree
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.meta.schema }

func (t *Table) encodePK(row Row) []byte {
	return EncodeKey(nil, row[:len(t.meta.schema.Key)]...)
}

// Put inserts or replaces the row (identified by its key columns) and
// maintains all secondary indexes.
func (t *Table) Put(wt *storage.WriteTxn, row Row) error {
	s := t.meta.schema
	if err := s.validateRow(row); err != nil {
		return err
	}
	key := t.encodePK(row)

	// Maintain indexes: remove entries for the prior version, if any.
	if len(t.meta.indexes) > 0 {
		old, err := t.getByEncodedKey(wt, key)
		if err != nil && !errors.Is(err, ErrNotFound) {
			return err
		}
		if old != nil {
			for _, im := range t.meta.indexes {
				if err := t.indexDelete(wt, im, old); err != nil {
					return err
				}
			}
		}
	}
	val := EncodeRow(nil, row[len(s.Key):])
	if err := t.tree.Put(wt, key, val); err != nil {
		return err
	}
	for _, im := range t.meta.indexes {
		if err := t.indexPut(wt, im, row); err != nil {
			return err
		}
	}
	return wt.SpillIfNeeded()
}

// Get fetches the row with the given key column values.
func (t *Table) Get(txn btree.ReadTxn, keyVals ...Value) (Row, error) {
	if err := t.checkKey(keyVals); err != nil {
		return nil, err
	}
	return t.getByEncodedKey(txn, EncodeKey(nil, keyVals...))
}

// GetBorrowed is Get without the decode: it returns the row's encoded value
// columns, to be read with RowBytes or DecodeRow. The bytes may alias page
// memory (see btree.Tree.Get): read them before the next call on txn and
// keep none of them. In a write transaction a later write can rewrite the
// page under them, so write paths use Get.
func (t *Table) GetBorrowed(txn btree.ReadTxn, keyVals ...Value) ([]byte, error) {
	if err := t.checkKey(keyVals); err != nil {
		return nil, err
	}
	var kb [32]byte
	return t.getRaw(txn, EncodeKey(kb[:0], keyVals...))
}

// Seeker is a table's point lookup that keeps the B-tree path of its last
// lookup (see btree.Seeker), so rows read in ascending key order are found
// mostly within the leaf it already holds. A Seeker is bound to one
// transaction with Reset, is valid for that transaction's lifetime, and is
// owned by one goroutine. Its results follow Table.Get and GetBorrowed.
type Seeker struct {
	t  *Table
	bs btree.Seeker
}

// Reset binds s to table t at txn and drops the kept path. Reset(nil, nil)
// releases every page s holds.
func (s *Seeker) Reset(t *Table, txn btree.ReadTxn) {
	s.t = t
	if t == nil {
		s.bs.Reset(nil, nil)
		return
	}
	s.bs.Reset(t.tree, txn)
}

// Get is Table.Get through the seeker.
func (s *Seeker) Get(keyVals ...Value) (Row, error) {
	if err := s.t.checkKey(keyVals); err != nil {
		return nil, err
	}
	key := EncodeKey(nil, keyVals...)
	val, err := s.get(key)
	if err != nil {
		return nil, err
	}
	return s.t.decodeFull(key, val)
}

// GetBorrowed is Table.GetBorrowed through the seeker; the bytes last
// until the next call on the seeker's transaction.
func (s *Seeker) GetBorrowed(keyVals ...Value) ([]byte, error) {
	if err := s.t.checkKey(keyVals); err != nil {
		return nil, err
	}
	var kb [32]byte
	return s.get(EncodeKey(kb[:0], keyVals...))
}

func (s *Seeker) get(key []byte) ([]byte, error) {
	val, err := s.bs.Get(key)
	if errors.Is(err, btree.ErrNotFound) {
		return nil, ErrNotFound
	}
	return val, err
}

// checkKey rejects a key with the wrong number of columns.
func (t *Table) checkKey(keyVals []Value) error {
	if s := t.meta.schema; len(keyVals) != len(s.Key) {
		return fmt.Errorf("reldb: table %s key needs %d values, got %d", s.Name, len(s.Key), len(keyVals))
	}
	return nil
}

// getRaw is a Seeker's one-shot lookup.
func (t *Table) getRaw(txn btree.ReadTxn, key []byte) ([]byte, error) {
	var s Seeker
	s.Reset(t, txn)
	return s.get(key)
}

func (t *Table) getByEncodedKey(txn btree.ReadTxn, key []byte) (Row, error) {
	val, err := t.getRaw(txn, key)
	if err != nil {
		return nil, err
	}
	return t.decodeFull(key, val)
}

func (t *Table) decodeFull(key, val []byte) (Row, error) {
	s := t.meta.schema
	keyRow, err := DecodeKey(key, len(s.Key))
	if err != nil {
		return nil, err
	}
	valRow, err := DecodeRow(val, len(s.Cols))
	if err != nil {
		return nil, err
	}
	return append(keyRow, valRow...), nil
}

// Delete removes the row with the given key column values, returning
// ErrNotFound if absent.
func (t *Table) Delete(wt *storage.WriteTxn, keyVals ...Value) error {
	if err := t.checkKey(keyVals); err != nil {
		return err
	}
	key := EncodeKey(nil, keyVals...)
	if len(t.meta.indexes) > 0 {
		old, err := t.getByEncodedKey(wt, key)
		if err != nil {
			return err
		}
		for _, im := range t.meta.indexes {
			if err := t.indexDelete(wt, im, old); err != nil {
				return err
			}
		}
	}
	if err := t.tree.Delete(wt, key); err != nil {
		if errors.Is(err, btree.ErrNotFound) {
			return ErrNotFound
		}
		return err
	}
	return wt.SpillIfNeeded()
}

// Scan iterates rows whose key starts with the given prefix values (nil
// scans the whole table) in primary-key order. fn returning ErrStopScan
// ends the scan early without error.
func (t *Table) Scan(txn btree.ReadTxn, prefix []Value, fn func(Row) error) error {
	return t.ScanBorrowed(txn, prefix, func(k, v []byte) error {
		row, err := t.decodeFull(k, v)
		if err != nil {
			return err
		}
		return fn(row)
	})
}

// ErrStopScan stops a scan early; Scan returns nil in that case.
var ErrStopScan = errors.New("reldb: stop scan")

// ScanBorrowed is Scan without the decode: fn receives each row's encoded
// key and value columns, to be read with KeyInt and RowBytes (or DecodeKey
// and DecodeRow). Both slices may alias page memory (see btree.Cursor.Key
// and Value) and are valid only during fn: fn must copy every byte it keeps
// before returning. fn returning ErrStopScan ends the scan early without
// error.
func (t *Table) ScanBorrowed(txn btree.ReadTxn, prefix []Value, fn func(key, val []byte) error) error {
	var pfx []byte
	if len(prefix) > 0 {
		pfx = EncodeKey(nil, prefix...)
	}
	c, err := t.tree.Seek(txn, pfx) // a nil prefix starts at the first key
	if err != nil {
		return err
	}
	for c.Valid() {
		k, err := c.Key()
		if err != nil {
			return err
		}
		if len(pfx) > 0 && !bytes.HasPrefix(k, pfx) {
			return nil
		}
		v, err := c.Value()
		if err != nil {
			return err
		}
		if err := fn(k, v); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// ScanKeys iterates only the decoded primary keys under a prefix — cheaper
// than Scan when values are large (e.g. collecting vector ids to move).
func (t *Table) ScanKeys(txn btree.ReadTxn, prefix []Value, fn func(Row) error) error {
	var pfx []byte
	if len(prefix) > 0 {
		pfx = EncodeKey(nil, prefix...)
	}
	c, err := t.tree.Seek(txn, pfx) // a nil prefix starts at the first key
	if err != nil {
		return err
	}
	for c.Valid() {
		k, err := c.Key()
		if err != nil {
			return err
		}
		if len(pfx) > 0 && !bytes.HasPrefix(k, pfx) {
			return nil
		}
		keyRow, err := DecodeKey(k, len(t.meta.schema.Key))
		if err != nil {
			return err
		}
		if err := fn(keyRow); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

// LeafPages calls emit with the page number of every btree leaf that can
// hold rows whose key starts with prefix (nil covers the whole table),
// without reading the leaves — the readahead primitive behind
// storage.ReadTxn.Readahead. The enumeration is a superset: a boundary
// leaf shared with a neighboring prefix is included, which is harmless for
// prefetching.
func (t *Table) LeafPages(txn btree.ReadTxn, prefix []Value, emit func(uint32)) error {
	var lo, hi []byte
	if len(prefix) > 0 {
		lo = EncodeKey(nil, prefix...)
		hi = prefixSuccessor(lo)
	}
	return t.tree.LeafPages(txn, lo, hi, emit)
}

// prefixSuccessor returns the smallest byte string greater than every
// string prefixed by p, or nil (unbounded) when p is all 0xff.
func prefixSuccessor(p []byte) []byte {
	s := append([]byte(nil), p...)
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] != 0xff {
			s[i]++
			return s[:i+1]
		}
	}
	return nil
}

// Count returns the number of rows.
func (t *Table) Count(txn btree.ReadTxn) (int, error) {
	return t.tree.Count(txn)
}

// Truncate removes all rows and index entries, reclaiming pages.
func (t *Table) Truncate(wt *storage.WriteTxn) error {
	if err := t.tree.Drop(wt); err != nil {
		return err
	}
	for _, im := range t.meta.indexes {
		itree := btree.Load(im.root, t.db.pageSize)
		if err := itree.Drop(wt); err != nil {
			return err
		}
	}
	return wt.SpillIfNeeded()
}

// --- secondary index maintenance ---

// indexKey builds the index entry key: indexed column values followed by
// the primary key (making every entry unique).
func (t *Table) indexKey(im *indexMeta, row Row) ([]byte, error) {
	s := t.meta.schema
	var key []byte
	for _, col := range im.cols {
		pos, _, err := s.ColumnIndex(col)
		if err != nil {
			return nil, err
		}
		key = AppendKeyValue(key, row[pos])
	}
	return EncodeKey(key, row[:len(s.Key)]...), nil
}

func (t *Table) indexPut(wt *storage.WriteTxn, im *indexMeta, row Row) error {
	key, err := t.indexKey(im, row)
	if err != nil {
		return err
	}
	itree := btree.Load(im.root, t.db.pageSize)
	return itree.Put(wt, key, nil)
}

func (t *Table) indexDelete(wt *storage.WriteTxn, im *indexMeta, row Row) error {
	key, err := t.indexKey(im, row)
	if err != nil {
		return err
	}
	itree := btree.Load(im.root, t.db.pageSize)
	if err := itree.Delete(wt, key); err != nil && !errors.Is(err, btree.ErrNotFound) {
		return err
	}
	return nil
}

// Index is a handle to a secondary index.
type Index struct {
	db     *DB
	meta   *indexMeta
	schema *Schema // schema of the indexed table
	tree   *btree.Tree
}

// Columns returns the indexed column names.
func (ix *Index) Columns() []string { return ix.meta.cols }

// Scan iterates index entries whose indexed columns start with the given
// prefix values. fn receives the indexed column values and the primary key
// of the base row. Entries arrive in (indexed columns, pk) order, so range
// predicates over the first indexed column are contiguous.
func (ix *Index) Scan(txn btree.ReadTxn, prefix []Value, fn func(idxVals, pk Row) error) error {
	var pfx []byte
	if len(prefix) > 0 {
		pfx = EncodeKey(nil, prefix...)
	}
	return ix.scanFrom(txn, pfx, pfx, fn)
}

// ScanRange iterates entries whose first indexed column lies in the range
// described by lo/hi. A null bound is unbounded on that side. Null index
// entries never match (SQL predicate semantics), so unbounded-low scans
// start after the null block. Used by range predicates (<, >, <=, >=).
func (ix *Index) ScanRange(txn btree.ReadTxn, lo, hi Value, loInclusive, hiInclusive bool, fn func(idxVals, pk Row) error) error {
	var start []byte
	if !lo.IsNull() {
		start = AppendKeyValue(nil, lo)
		if !loInclusive {
			// Skip past every entry whose first column equals lo: the
			// sentinel is larger than any continuation byte (remaining
			// key columns all start with tags < 0xFF).
			start = append(start, 0xFF)
		}
	} else {
		// Start just past the null block.
		start = []byte{tagNull + 1}
	}
	var hiKey []byte
	if !hi.IsNull() {
		hiKey = AppendKeyValue(nil, hi)
	}
	c, err := ix.tree.Seek(txn, start)
	if err != nil {
		return err
	}
	for c.Valid() {
		k, err := c.Key()
		if err != nil {
			return err
		}
		if hiKey != nil {
			cmp := bytes.Compare(k, hiKey)
			if cmp >= 0 {
				if !hiInclusive || !bytes.HasPrefix(k, hiKey) {
					return nil
				}
			}
		}
		if err := ix.emit(k, fn); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

func (ix *Index) scanFrom(txn btree.ReadTxn, start, prefix []byte, fn func(idxVals, pk Row) error) error {
	c, err := ix.tree.Seek(txn, start) // a nil start is the first key
	if err != nil {
		return err
	}
	for c.Valid() {
		k, err := c.Key()
		if err != nil {
			return err
		}
		if len(prefix) > 0 && !bytes.HasPrefix(k, prefix) {
			return nil
		}
		if err := ix.emit(k, fn); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	return nil
}

func (ix *Index) emit(k []byte, fn func(idxVals, pk Row) error) error {
	n := len(ix.meta.cols)
	row, err := DecodeKey(k, n+len(ix.schema.Key))
	if err != nil {
		return err
	}
	return fn(row[:n], row[n:])
}

// Count returns the number of index entries.
func (ix *Index) Count(txn btree.ReadTxn) (int, error) { return ix.tree.Count(txn) }
