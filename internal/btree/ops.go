package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// childFor returns the child page that covers key and the slot index of the
// separator cell routing to it (-1 when routed through the right pointer).
func (p page) childFor(key []byte) (uint32, int, error) {
	idx, found, err := p.search(key)
	if err != nil {
		return 0, 0, err
	}
	if found {
		idx++ // keys equal to a separator live in the right subtree
	}
	if idx >= p.nCells() {
		return p.right(), -1, nil
	}
	_, child, err := p.interiorCell(idx)
	return child, idx, err
}

// setInteriorChild rewrites the child pointer of interior cell i in place
// (the pointer has a fixed offset inside the cell, so no resize happens).
func (p page) setInteriorChild(i int, child uint32) {
	off := p.cellOffset(i)
	klen := int(binary.LittleEndian.Uint16(p.buf[off:]))
	binary.LittleEndian.PutUint32(p.buf[off+2+klen:], child)
}

// split describes a node split: right is the new sibling holding keys
// >= sepKey.
type split struct {
	sepKey []byte
	right  uint32
}

// Put inserts or replaces key -> val.
func (t *Tree) Put(txn Txn, key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	if len(key) > t.maxKeyLen() {
		return fmt.Errorf("btree: key length %d exceeds max %d", len(key), t.maxKeyLen())
	}
	sp, err := t.insert(txn, t.root, key, val)
	if err != nil {
		return err
	}
	if sp == nil {
		return nil
	}
	// Root split: move the root's identity. The old root content already
	// lives in two pages (root itself kept the left half in insert());
	// here insert() has arranged for the root page to retain the left
	// half, so we grow the tree by replacing the root content with a
	// 2-child interior node.
	rootBuf, err := txn.GetMut(t.root)
	if err != nil {
		return err
	}
	// Copy the (already-split) root content into a fresh left page.
	leftNo, leftBuf, err := txn.Allocate()
	if err != nil {
		return err
	}
	copy(leftBuf, rootBuf)
	// If the moved content is a leaf, its right sibling still records the
	// root page as prev; repoint it at the content's new home.
	moved := page{buf: leftBuf}
	if moved.typ() == pageTypeLeaf {
		if next := moved.right(); next != 0 {
			nextBuf, err := txn.GetMut(next)
			if err != nil {
				return err
			}
			nextPg := page{buf: nextBuf}
			nextPg.setPrev(leftNo)
		}
	}
	initPage(rootBuf, pageTypeInterior)
	root := page{buf: rootBuf}
	cell := encodeInteriorCell(nil, sp.sepKey, leftNo)
	root.insertCell(0, cell)
	root.setRight(sp.right)
	return nil
}

// insert descends to a leaf, inserts, and propagates splits upward.
func (t *Tree) insert(txn Txn, pageNo uint32, key, val []byte) (*split, error) {
	ro, err := txn.Get(pageNo)
	if err != nil {
		return nil, err
	}
	typ := page{buf: ro}.typ()
	switch typ {
	case pageTypeLeaf:
		return t.insertLeaf(txn, pageNo, key, val)
	case pageTypeInterior:
		child, slot, err := page{buf: ro}.childFor(key)
		if err != nil {
			return nil, err
		}
		sp, err := t.insert(txn, child, key, val)
		if err != nil || sp == nil {
			return nil, err
		}
		return t.insertInterior(txn, pageNo, slot, child, sp)
	default:
		return nil, fmt.Errorf("%w: page %d type %d", ErrCorrupt, pageNo, typ)
	}
}

func (t *Tree) insertLeaf(txn Txn, pageNo uint32, key, val []byte) (*split, error) {
	buf, err := txn.GetMut(pageNo)
	if err != nil {
		return nil, err
	}
	p := page{buf: buf}
	idx, found, err := p.search(key)
	if err != nil {
		return nil, err
	}
	if found {
		// Replace: drop the old cell (and its overflow chain) first.
		_, _, ovf, _, err := p.leafCell(idx)
		if err != nil {
			return nil, err
		}
		p.removeCell(idx)
		if ovf != 0 {
			if err := t.freeOverflow(txn, ovf); err != nil {
				return nil, err
			}
			// freeOverflow may have touched other pages; re-fetch ours
			// (GetMut returns the same dirty buffer, this is cheap).
			buf, err = txn.GetMut(pageNo)
			if err != nil {
				return nil, err
			}
			p = page{buf: buf}
		}
	}

	overflow := len(val) > t.maxInlineValue(len(key))
	var cell []byte
	if overflow {
		first, err := t.writeOverflow(txn, val)
		if err != nil {
			return nil, err
		}
		buf, err = txn.GetMut(pageNo) // re-fetch after allocations
		if err != nil {
			return nil, err
		}
		p = page{buf: buf}
		cell = encodeLeafCell(nil, key, nil, first, uint32(len(val)), true)
	} else {
		cell = encodeLeafCell(nil, key, val, 0, 0, false)
	}

	need := len(cell) + slotSize
	if p.freeSpace() < need {
		used, err := p.usedBytes()
		if err != nil {
			return nil, err
		}
		if len(buf)-hdrEnd-p.nCells()*slotSize-used >= need {
			if err := p.compact(t.pageSize); err != nil {
				return nil, err
			}
		}
	}
	if p.freeSpace() >= need {
		idx, _, err = p.search(key) // position may have shifted after replace
		if err != nil {
			return nil, err
		}
		p.insertCell(idx, cell)
		return nil, nil
	}
	return t.splitLeaf(txn, pageNo, p, key, cell)
}

// splitLeaf distributes the page's cells plus the pending cell across the
// page and a new right sibling, at the point splitPoint picks.
func (t *Tree) splitLeaf(txn Txn, pageNo uint32, p page, key []byte, newCell []byte) (*split, error) {
	type kcell struct {
		key  []byte
		cell []byte
	}
	n := p.nCells()
	all := make([]kcell, 0, n+1)
	ins := -1
	for i := 0; i < n; i++ {
		k, err := p.key(i)
		if err != nil {
			return nil, err
		}
		cb, err := p.cellBytes(i)
		if err != nil {
			return nil, err
		}
		if ins < 0 && bytes.Compare(key, k) < 0 {
			ins = len(all)
			all = append(all, kcell{key: append([]byte(nil), key...), cell: newCell})
		}
		kk := append([]byte(nil), k...)
		cc := append([]byte(nil), cb...)
		all = append(all, kcell{key: kk, cell: cc})
	}
	if ins < 0 {
		ins = len(all)
		all = append(all, kcell{key: append([]byte(nil), key...), cell: newCell})
	}

	sizes := make([]int, len(all))
	for i, c := range all {
		sizes[i] = len(c.cell) + slotSize
	}
	splitAt := t.splitPoint(sizes, ins, p.ascendingAt(ins), 1)

	rightNo, rightBuf, err := txn.Allocate()
	if err != nil {
		return nil, err
	}
	// Re-fetch left after allocation.
	leftBuf, err := txn.GetMut(pageNo)
	if err != nil {
		return nil, err
	}
	left := page{buf: leftBuf}
	oldNext := left.right()
	oldPrev := left.prev()

	initPage(leftBuf, pageTypeLeaf)
	for i := splitAt - 1; i >= 0; i-- {
		left.insertCell(0, all[i].cell)
	}
	initPage(rightBuf, pageTypeLeaf)
	right := page{buf: rightBuf}
	for i := len(all) - 1; i >= splitAt; i-- {
		right.insertCell(0, all[i].cell)
	}
	left.setRight(rightNo)
	left.setPrev(oldPrev)
	right.setRight(oldNext)
	right.setPrev(pageNo)
	if oldNext != 0 {
		nextBuf, err := txn.GetMut(oldNext)
		if err != nil {
			return nil, err
		}
		page{buf: nextBuf}.setPrev(rightNo)
	}
	return &split{sepKey: all[splitAt].key, right: rightNo}, nil
}

// ascendingAt reports whether the page's most recent insert is the cell
// just before slot ins, so a pending cell at ins continues an ascending run
// there. Cells are written downward from the end of the page, so the most
// recently inserted one starts at dataStart. Splits and compaction write
// cell 0 last, which never counts: ins must be past it.
func (p page) ascendingAt(ins int) bool {
	return ins > 1 && ins <= p.nCells() && p.cellOffset(ins-1) == p.dataStart()
}

// splitPoint returns where the cells of a full page plus the pending one
// (sizes, slot included; the pending cell at index ins) divide: cells
// [0, at) stay on the left page. keep is how many cells from at onward the
// right side must hold: 1 for a leaf, 2 for an interior node, whose cell at
// is promoted to the parent.
//
// When the pending cell is the page's last, or continues an ascending run
// (see ascendingAt), the split falls right after it: the left page stays
// as full as it was and the keys that follow start a new page, so ordered
// inserts fill pages instead of leaving each one half empty (SQLite's
// balance_quick and InnoDB's split-direction hint). Otherwise, or when the
// left half would not fit, the split falls at the byte midpoint.
func (t *Tree) splitPoint(sizes []int, ins int, ascending bool, keep int) int {
	last := len(sizes) - keep // the highest split point that leaves keep cells
	if ins == len(sizes)-1 || ascending {
		at, used := min(ins+1, last), 0
		for _, s := range sizes[:at] {
			used += s
		}
		if used <= t.pageSize-hdrEnd {
			return at
		}
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	at, acc := 0, 0
	for i, s := range sizes {
		acc += s
		if acc >= total/2 {
			at = i + 1
			break
		}
	}
	return min(max(at, 1), last)
}

// insertInterior records a child split in the parent: a new separator cell
// (sepKey, oldChild) at the child's slot, with the displaced pointer
// updated to the new right sibling.
func (t *Tree) insertInterior(txn Txn, pageNo uint32, slot int, oldChild uint32, sp *split) (*split, error) {
	buf, err := txn.GetMut(pageNo)
	if err != nil {
		return nil, err
	}
	p := page{buf: buf}
	cell := encodeInteriorCell(nil, sp.sepKey, oldChild)
	need := len(cell) + slotSize
	if p.freeSpace() < need {
		used, err := p.usedBytes()
		if err != nil {
			return nil, err
		}
		if len(buf)-hdrEnd-p.nCells()*slotSize-used >= need {
			if err := p.compact(t.pageSize); err != nil {
				return nil, err
			}
		}
	}
	if p.freeSpace() >= need {
		if slot == -1 {
			p.insertCell(p.nCells(), cell)
			p.setRight(sp.right)
		} else {
			p.insertCell(slot, cell)
			p.setInteriorChild(slot+1, sp.right)
		}
		return nil, nil
	}
	return t.splitInterior(txn, pageNo, p, slot, oldChild, sp)
}

// splitInterior splits a full interior node that must additionally absorb
// the pending separator cell.
func (t *Tree) splitInterior(txn Txn, pageNo uint32, p page, slot int, oldChild uint32, sp *split) (*split, error) {
	type icell struct {
		key   []byte
		child uint32
	}
	n := p.nCells()
	all := make([]icell, 0, n+1)
	for i := 0; i < n; i++ {
		k, child, err := p.interiorCell(i)
		if err != nil {
			return nil, err
		}
		all = append(all, icell{key: append([]byte(nil), k...), child: child})
	}
	rightMost := p.right()
	// Apply the pending insert to the in-memory copy.
	ins := slot
	if slot == -1 {
		ins = n
		all = append(all, icell{key: append([]byte(nil), sp.sepKey...), child: oldChild})
		rightMost = sp.right
	} else {
		all = append(all, icell{})
		copy(all[slot+1:], all[slot:])
		all[slot] = icell{key: append([]byte(nil), sp.sepKey...), child: oldChild}
		all[slot+1].child = sp.right
	}

	sizes := make([]int, len(all))
	for i, c := range all {
		sizes[i] = interiorCellSize(len(c.key)) + slotSize
	}
	mid := t.splitPoint(sizes, ins, p.ascendingAt(ins), 2)
	promoted := all[mid]

	rightNo, rightBuf, err := txn.Allocate()
	if err != nil {
		return nil, err
	}
	leftBuf, err := txn.GetMut(pageNo)
	if err != nil {
		return nil, err
	}
	left := page{buf: leftBuf}

	initPage(leftBuf, pageTypeInterior)
	for i := mid - 1; i >= 0; i-- {
		left.insertCell(0, encodeInteriorCell(nil, all[i].key, all[i].child))
	}
	left.setRight(promoted.child)

	initPage(rightBuf, pageTypeInterior)
	right := page{buf: rightBuf}
	for i := len(all) - 1; i > mid; i-- {
		right.insertCell(0, encodeInteriorCell(nil, all[i].key, all[i].child))
	}
	right.setRight(rightMost)

	return &split{sepKey: promoted.key, right: rightNo}, nil
}

// pathStep records the descent through one interior node: the page and the
// slot routing to the chosen child (-1 = the right pointer).
type pathStep struct {
	pageNo uint32
	slot   int
}

// Delete removes key, returning ErrNotFound if absent. A leaf emptied by
// the deletion is unlinked from the sibling chain, its routing entry is
// removed from the parent, and the freed pages return to the freelist —
// without this, bulk deletions (the rebuild path moves every row) would
// leave long chains of dead leaves that every range scan must traverse.
func (t *Tree) Delete(txn Txn, key []byte) error {
	var path []pathStep
	pageNo := t.root
	for {
		ro, err := txn.Get(pageNo)
		if err != nil {
			return err
		}
		p := page{buf: ro}
		switch p.typ() {
		case pageTypeLeaf:
			idx, found, err := p.search(key)
			if err != nil {
				return err
			}
			if !found {
				return ErrNotFound
			}
			buf, err := txn.GetMut(pageNo)
			if err != nil {
				return err
			}
			mp := page{buf: buf}
			_, _, ovf, _, err := mp.leafCell(idx)
			if err != nil {
				return err
			}
			mp.removeCell(idx)
			if ovf != 0 {
				if err := t.freeOverflow(txn, ovf); err != nil {
					return err
				}
			}
			if mp.nCells() == 0 && pageNo != t.root {
				return t.unlinkEmptyLeaf(txn, pageNo, path)
			}
			return nil
		case pageTypeInterior:
			child, slot, err := p.childFor(key)
			if err != nil {
				return err
			}
			path = append(path, pathStep{pageNo: pageNo, slot: slot})
			pageNo = child
		default:
			return fmt.Errorf("%w: page %d type %d", ErrCorrupt, pageNo, p.typ())
		}
	}
}

// unlinkEmptyLeaf splices an emptied leaf out of the doubly-linked chain,
// frees it, and removes its routing entry from the ancestors.
func (t *Tree) unlinkEmptyLeaf(txn Txn, leafNo uint32, path []pathStep) error {
	leafBuf, err := txn.Get(leafNo)
	if err != nil {
		return err
	}
	leaf := page{buf: leafBuf}
	prevNo, nextNo := leaf.prev(), leaf.right()
	if prevNo != 0 {
		buf, err := txn.GetMut(prevNo)
		if err != nil {
			return err
		}
		page{buf: buf}.setRight(nextNo)
	}
	if nextNo != 0 {
		buf, err := txn.GetMut(nextNo)
		if err != nil {
			return err
		}
		page{buf: buf}.setPrev(prevNo)
	}
	if err := txn.Free(leafNo); err != nil {
		return err
	}
	return t.removeRouting(txn, path)
}

// removeRouting deletes the deepest path step's routing entry and collapses
// ancestors that become childless.
func (t *Tree) removeRouting(txn Txn, path []pathStep) error {
	if len(path) == 0 {
		return nil
	}
	step := path[len(path)-1]
	buf, err := txn.GetMut(step.pageNo)
	if err != nil {
		return err
	}
	p := page{buf: buf}
	n := p.nCells()
	switch {
	case step.slot >= 0 && step.slot < n:
		// The separator cell routes to the dead child; dropping it
		// merges the (empty) key range into the next child.
		p.removeCell(step.slot)
	case step.slot == -1 && n > 0:
		// The dead child was the right pointer: promote the last cell's
		// child and drop that cell.
		_, child, err := p.interiorCell(n - 1)
		if err != nil {
			return err
		}
		p.setRight(child)
		p.removeCell(n - 1)
	default:
		// Interior node with no cells left: it routed everything to the
		// dead child. Collapse it into its parent (or reset the root).
		return t.collapseInterior(txn, step.pageNo, path[:len(path)-1])
	}
	return nil
}

// collapseInterior removes an interior node that lost its last child.
func (t *Tree) collapseInterior(txn Txn, pageNo uint32, path []pathStep) error {
	if pageNo == t.root {
		buf, err := txn.GetMut(pageNo)
		if err != nil {
			return err
		}
		initPage(buf, pageTypeLeaf)
		return nil
	}
	if err := txn.Free(pageNo); err != nil {
		return err
	}
	return t.removeRouting(txn, path)
}

// Drop frees every page of the tree except the root, which is reset to an
// empty leaf. Used when truncating or rebuilding a table.
func (t *Tree) Drop(txn Txn) error {
	if err := t.dropSubtree(txn, t.root, true); err != nil {
		return err
	}
	buf, err := txn.GetMut(t.root)
	if err != nil {
		return err
	}
	initPage(buf, pageTypeLeaf)
	return nil
}

func (t *Tree) dropSubtree(txn Txn, pageNo uint32, isRoot bool) error {
	buf, err := txn.Get(pageNo)
	if err != nil {
		return err
	}
	p := page{buf: buf}
	switch p.typ() {
	case pageTypeLeaf:
		for i := 0; i < p.nCells(); i++ {
			_, _, ovf, _, err := p.leafCell(i)
			if err != nil {
				return err
			}
			if ovf != 0 {
				if err := t.freeOverflow(txn, ovf); err != nil {
					return err
				}
				// Re-fetch: freeing may have invalidated our view.
				buf, err = txn.Get(pageNo)
				if err != nil {
					return err
				}
				p = page{buf: buf}
			}
		}
	case pageTypeInterior:
		children := make([]uint32, 0, p.nCells()+1)
		for i := 0; i < p.nCells(); i++ {
			_, child, err := p.interiorCell(i)
			if err != nil {
				return err
			}
			children = append(children, child)
		}
		if r := p.right(); r != 0 {
			children = append(children, r)
		}
		for _, c := range children {
			if err := t.dropSubtree(txn, c, false); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: page %d type %d", ErrCorrupt, pageNo, p.typ())
	}
	if !isRoot {
		return txn.Free(pageNo)
	}
	return nil
}

// Count walks the tree and returns the number of stored keys.
func (t *Tree) Count(txn ReadTxn) (int, error) {
	n := 0
	c, err := t.First(txn)
	if err != nil {
		return 0, err
	}
	for c.Valid() {
		n++
		if err := c.Next(); err != nil {
			return 0, err
		}
	}
	return n, nil
}
