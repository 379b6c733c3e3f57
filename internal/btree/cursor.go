package btree

import "fmt"

// Cursor iterates leaf cells in ascending key order by following leaf
// sibling pointers. A cursor is valid for the lifetime of the transaction
// it was opened in; mutating the tree through the same write transaction
// while a cursor is open invalidates it.
type Cursor struct {
	t      *Tree
	txn    ReadTxn
	pageNo uint32
	page   page
	idx    int
	valid  bool
}

// First positions a cursor at the smallest key.
func (t *Tree) First(txn ReadTxn) (*Cursor, error) { return t.Seek(txn, nil) }

// Seek positions a cursor at the first key >= key.
func (t *Tree) Seek(txn ReadTxn, key []byte) (*Cursor, error) {
	s := Seeker{t: t, txn: txn}
	pageNo, p, err := s.leafFor(key)
	if err != nil {
		return nil, err
	}
	idx, _, err := p.search(key)
	if err != nil {
		return nil, err
	}
	c := &Cursor{t: t, txn: txn, pageNo: pageNo, page: p, idx: idx, valid: true}
	return c, c.skipEmpty()
}

// skipEmpty advances across exhausted or empty leaves.
func (c *Cursor) skipEmpty() error {
	for c.valid && c.idx >= c.page.nCells() {
		next := c.page.right()
		if next == 0 {
			c.valid = false
			return nil
		}
		buf, err := c.txn.Get(next)
		if err != nil {
			return err
		}
		c.pageNo = next
		c.page = page{buf: buf}
		c.idx = 0
	}
	return nil
}

// Valid reports whether the cursor points at a cell.
func (c *Cursor) Valid() bool { return c.valid }

// Key returns the current key. The slice aliases page memory: it is a
// read-only borrowed view, valid only until the cursor moves, because the
// storage layer guarantees page bytes (pool buffer or mmap) only while they
// are being read. Copy it if it must outlive the cursor position.
func (c *Cursor) Key() ([]byte, error) {
	if !c.valid {
		return nil, fmt.Errorf("btree: cursor not valid")
	}
	return c.page.key(c.idx)
}

// Value returns the current value. Inline values alias page memory under
// the same borrowed-view contract as Key: valid only until the cursor
// moves, read-only, copied by any caller that keeps them. Overflow values
// are freshly allocated, but callers must not rely on the difference.
func (c *Cursor) Value() ([]byte, error) {
	if !c.valid {
		return nil, fmt.Errorf("btree: cursor not valid")
	}
	_, val, ovf, totalLen, err := c.page.leafCell(c.idx)
	if err != nil {
		return nil, err
	}
	if ovf != 0 {
		return readOverflow(c.txn, ovf, totalLen)
	}
	return val, nil
}

// Next advances to the following key.
func (c *Cursor) Next() error {
	if !c.valid {
		return nil
	}
	c.idx++
	return c.skipEmpty()
}
