package btree

import (
	"bytes"
	"fmt"
)

// seekDepth is how many levels a Seeker keeps. Real trees are far
// shallower; in a deeper one the deepest slot is overwritten on the way
// down, which leaves a gap the next lookup simply re-descends through.
const seekDepth = 16

// seekLevel is one page of a kept root-to-leaf path and the key range
// [lo, hi) its parent routes to it; a nil bound is open. The bounds alias
// the parent's page.
type seekLevel struct {
	pageNo uint32
	pg     page
	lo, hi []byte
}

// holds reports whether key lies in the level's range.
func (l *seekLevel) holds(key []byte) bool {
	return (l.lo == nil || bytes.Compare(key, l.lo) >= 0) && (l.hi == nil || bytes.Compare(key, l.hi) < 0)
}

// Seeker looks keys up in one tree at one transaction and keeps the
// root-to-leaf path of its last lookup, with each page's key range. A
// lookup re-descends only from the deepest kept page whose range holds the
// key, so lookups in ascending (or otherwise clustered) key order mostly
// search the leaf they already hold, where Tree.Get reads every level from
// the root. Tree.Get is the one-shot case.
//
// A Seeker holds page memory across calls, as a Cursor does: it is valid
// for the lifetime of its transaction, mutating the tree through that
// transaction invalidates it, and it is not safe for concurrent use.
type Seeker struct {
	t    *Tree
	txn  ReadTxn
	n    int // levels kept; path[n-1] is the last lookup's leaf
	path [seekDepth]seekLevel
}

// Reset binds s to tree t at txn and drops the kept path. Reset(nil, nil)
// releases every page s holds.
func (s *Seeker) Reset(t *Tree, txn ReadTxn) {
	*s = Seeker{t: t, txn: txn}
}

// Get returns the value stored under key, or ErrNotFound, on the terms of
// Tree.Get: inline values alias page memory, overflow values are freshly
// allocated.
func (s *Seeker) Get(key []byte) ([]byte, error) {
	_, p, err := s.leafFor(key)
	if err != nil {
		return nil, err
	}
	idx, found, err := p.search(key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, ErrNotFound
	}
	_, val, ovf, totalLen, err := p.leafCell(idx)
	if err != nil {
		return nil, err
	}
	if ovf != 0 {
		return readOverflow(s.txn, ovf, totalLen)
	}
	return val, nil
}

// leafFor returns the leaf whose range holds key: it resumes at the
// deepest kept page whose range holds key (the root's holds every key) and
// descends from there, keeping the new path.
func (s *Seeker) leafFor(key []byte) (uint32, page, error) {
	d := s.n - 1
	for d >= 0 && !s.path[d].holds(key) {
		d--
	}
	var lv seekLevel
	if d >= 0 {
		lv = s.path[d]
	} else {
		buf, err := s.txn.Get(s.t.root)
		if err != nil {
			return 0, page{}, err
		}
		lv, d = seekLevel{pageNo: s.t.root, pg: page{buf: buf}}, 0
	}
	for {
		s.path[d], s.n = lv, d+1
		p := lv.pg
		switch p.typ() {
		case pageTypeLeaf:
			return lv.pageNo, p, nil
		case pageTypeInterior:
		default:
			return 0, page{}, fmt.Errorf("%w: page %d type %d", ErrCorrupt, lv.pageNo, p.typ())
		}
		idx, found, err := p.search(key)
		if err != nil {
			return 0, page{}, err
		}
		if found {
			idx++ // keys equal to a separator live in the right subtree
		}
		next := seekLevel{pageNo: p.right(), lo: lv.lo, hi: lv.hi}
		if idx > 0 {
			if next.lo, _, err = p.interiorCell(idx - 1); err != nil {
				return 0, page{}, err
			}
		}
		if idx < p.nCells() {
			if next.hi, next.pageNo, err = p.interiorCell(idx); err != nil {
				return 0, page{}, err
			}
		}
		buf, err := s.txn.Get(next.pageNo)
		if err != nil {
			return 0, page{}, err
		}
		next.pg = page{buf: buf}
		lv, d = next, min(d+1, seekDepth-1)
	}
}

// Get returns the value stored under key, or ErrNotFound. Inline values
// alias page memory and must not be retained across transaction boundaries;
// overflow values are freshly allocated. It is a Seeker's one-shot lookup,
// with the path on the stack.
func (t *Tree) Get(txn ReadTxn, key []byte) ([]byte, error) {
	s := Seeker{t: t, txn: txn}
	return s.Get(key)
}
