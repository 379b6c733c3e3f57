package reldb

import (
	"errors"
	"fmt"
	"sync"

	"micronn/internal/btree"
	"micronn/internal/storage"
)

// ErrNotFound is returned when a row or catalog object is absent.
var ErrNotFound = errors.New("reldb: not found")

// ErrExists is returned when creating an object that already exists.
var ErrExists = errors.New("reldb: already exists")

// DB is a catalog of tables and indexes over a storage.Store. The catalog
// is cached in memory (it changes only during setup) and persisted in its
// own B+tree whose root lives in the store header.
type DB struct {
	store    *storage.Store
	pageSize int

	mu      sync.RWMutex
	catalog *btree.Tree
	tables  map[string]*tableMeta
	indexes map[string]*indexMeta
}

type tableMeta struct {
	schema  *Schema
	root    uint32
	indexes []*indexMeta // indexes defined on this table
}

type indexMeta struct {
	name  string
	table string
	cols  []string
	root  uint32
}

// Open wraps an already-open store, loading the catalog, or creating it in
// a store that has none. Loading only reads: opening an existing store
// commits nothing.
func Open(store *storage.Store) (*DB, error) {
	db := &DB{
		store:    store,
		pageSize: int(store.PageSize()),
		tables:   make(map[string]*tableMeta),
		indexes:  make(map[string]*indexMeta),
	}
	var root uint32
	err := store.View(func(rt *storage.ReadTxn) error {
		var err error
		if root, err = rt.CatalogRoot(); err != nil || root == 0 {
			return err
		}
		db.catalog = btree.Load(root, db.pageSize)
		return db.loadCatalog(rt)
	})
	if err != nil {
		return nil, err
	}
	if root != 0 {
		return db, nil
	}
	err = store.Update(func(wt *storage.WriteTxn) error {
		tree, err := btree.New(wt, db.pageSize)
		if err != nil {
			return err
		}
		wt.SetCatalogRoot(tree.Root())
		db.catalog = tree
		return nil
	})
	if err != nil {
		return nil, err
	}
	return db, nil
}

// Store exposes the underlying page store (for stats and cache control).
func (db *DB) Store() *storage.Store { return db.store }

func (db *DB) loadCatalog(txn btree.ReadTxn) error {
	c, err := db.catalog.First(txn)
	if err != nil {
		return err
	}
	var indexEntries []*catalogEntry
	var indexNames []string
	for c.Valid() {
		k, err := c.Key()
		if err != nil {
			return err
		}
		v, err := c.Value()
		if err != nil {
			return err
		}
		nameRow, err := DecodeKey(k, 1)
		if err != nil {
			return err
		}
		entry, err := unmarshalCatalogEntry(v)
		if err != nil {
			return err
		}
		switch entry.Kind {
		case "table":
			db.tables[nameRow[0].Str] = &tableMeta{schema: entry.Schema, root: entry.Root}
		case "index":
			indexEntries = append(indexEntries, entry)
			indexNames = append(indexNames, nameRow[0].Str)
		default:
			return fmt.Errorf("reldb: unknown catalog kind %q", entry.Kind)
		}
		if err := c.Next(); err != nil {
			return err
		}
	}
	for i, entry := range indexEntries {
		tm, ok := db.tables[entry.Table]
		if !ok {
			return fmt.Errorf("reldb: index %s references missing table %s", indexNames[i], entry.Table)
		}
		im := &indexMeta{name: indexNames[i], table: entry.Table, cols: entry.Cols, root: entry.Root}
		db.indexes[im.name] = im
		tm.indexes = append(tm.indexes, im)
	}
	return nil
}

func (db *DB) putCatalogEntry(wt *storage.WriteTxn, name string, e *catalogEntry) error {
	blob, err := e.marshal()
	if err != nil {
		return err
	}
	return db.catalog.Put(wt, EncodeKey(nil, S(name)), blob)
}

// CreateTable creates a table inside the given write transaction. The
// in-memory catalog is updated on success; callers must commit the
// transaction (Open's caller controls transaction scope so several objects
// can be created atomically).
func (db *DB) CreateTable(wt *storage.WriteTxn, schema *Schema) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[schema.Name]; ok {
		return fmt.Errorf("%w: table %s", ErrExists, schema.Name)
	}
	if len(schema.Key) == 0 {
		return fmt.Errorf("reldb: table %s needs at least one key column", schema.Name)
	}
	tree, err := btree.New(wt, db.pageSize)
	if err != nil {
		return err
	}
	entry := &catalogEntry{Kind: "table", Root: tree.Root(), Schema: schema}
	if err := db.putCatalogEntry(wt, schema.Name, entry); err != nil {
		return err
	}
	db.tables[schema.Name] = &tableMeta{schema: schema, root: tree.Root()}
	return nil
}

// CreateIndex creates a secondary index over cols of table. Existing rows
// are indexed immediately.
func (db *DB) CreateIndex(wt *storage.WriteTxn, name, table string, cols ...string) error {
	db.mu.Lock()
	if _, ok := db.indexes[name]; ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: index %s", ErrExists, name)
	}
	tm, ok := db.tables[table]
	if !ok {
		db.mu.Unlock()
		return fmt.Errorf("%w: table %s", ErrNotFound, table)
	}
	for _, c := range cols {
		if _, _, err := tm.schema.ColumnIndex(c); err != nil {
			db.mu.Unlock()
			return err
		}
	}
	tree, err := btree.New(wt, db.pageSize)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	entry := &catalogEntry{Kind: "index", Root: tree.Root(), Table: table, Cols: cols}
	if err := db.putCatalogEntry(wt, name, entry); err != nil {
		db.mu.Unlock()
		return err
	}
	im := &indexMeta{name: name, table: table, cols: cols, root: tree.Root()}
	db.indexes[name] = im
	tm.indexes = append(tm.indexes, im)
	db.mu.Unlock()

	// Backfill from existing rows.
	t, err := db.Table(table)
	if err != nil {
		return err
	}
	return t.Scan(wt, nil, func(row Row) error {
		if err := t.indexPut(wt, im, row); err != nil {
			return err
		}
		return wt.SpillIfNeeded()
	})
}

// Table returns a handle for the named table.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tm, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, name)
	}
	return &Table{db: db, meta: tm, tree: btree.Load(tm.root, db.pageSize)}, nil
}

// Index returns a handle for the named secondary index.
func (db *DB) Index(name string) (*Index, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	im, ok := db.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: index %s", ErrNotFound, name)
	}
	tm := db.tables[im.table]
	return &Index{db: db, meta: im, schema: tm.schema, tree: btree.Load(im.root, db.pageSize)}, nil
}

// HasTable reports whether a table exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.tables[name]
	return ok
}
