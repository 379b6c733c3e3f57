// Package btree implements a disk-resident B+tree over the storage layer's
// transactional pages. Every MicroNN table and secondary index is one of
// these trees; the vector table's clustered primary key (partition id,
// vector id) is what gives IVF partitions their on-disk locality — a
// partition scan is a single contiguous leaf walk.
//
// Layout. Interior nodes hold separator keys and child pointers; leaves
// hold key/value cells and a right-sibling pointer for range scans. Keys
// and values are arbitrary byte strings ordered by bytes.Compare. Values
// too large to share a page with at least three other cells spill into an
// overflow page chain.
//
// Splits. A full page splits right after the pending cell when that cell
// sorts after every cell on the page (an append) or continues an ascending
// run of inserts at its slot: the left page stays full and the keys that
// follow start the new page. Any other insert splits at the byte midpoint.
// Ordered loads (vid-keyed tables, and each partition's rows arriving in
// vid order) therefore fill their leaves, while random inserts keep the
// balanced split.
//
// Deletion frees empty pages but does not rebalance underfull nodes; the
// index rebuild path (which rewrites partitions wholesale) reclaims space,
// matching how MicroNN actually maintains its tables.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Txn is the page-level transaction interface the tree runs on. The
// storage package's WriteTxn satisfies it; ReadTxn satisfies ReadTxn below.
type Txn interface {
	ReadTxn
	GetMut(pageNo uint32) ([]byte, error)
	Allocate() (uint32, []byte, error)
	Free(pageNo uint32) error
}

// ReadTxn is the read-only subset used by lookups and cursors.
type ReadTxn interface {
	Get(pageNo uint32) ([]byte, error)
}

// Page layout constants.
const (
	pageTypeLeaf     = 1
	pageTypeInterior = 2
	pageTypeOverflow = 3

	// Common header: type(1) + ncells(2) + right pointer(4) + cell data
	// start offset(2) + prev pointer(4). For leaves the right pointer is
	// the next sibling and prev the previous sibling (leaves form a
	// doubly-linked chain so emptied leaves can be unlinked); for
	// interior nodes right is the rightmost child and prev is unused.
	hdrType      = 0
	hdrNCells    = 1
	hdrRight     = 3
	hdrDataStart = 7
	hdrPrev      = 9
	hdrEnd       = 13

	slotSize = 2 // per-cell offset in the slot array

	// Cell flags.
	cellOverflow = 1
)

var (
	// ErrNotFound is returned by Get and Delete when the key is absent.
	ErrNotFound = errors.New("btree: key not found")
	// ErrCorrupt indicates an invalid on-page structure.
	ErrCorrupt = errors.New("btree: corrupt page")
)

// Tree is a handle to a B+tree rooted at Root. Trees are stateless: all
// data lives in pages, so a Tree can be freely recreated from its root.
type Tree struct {
	root     uint32
	pageSize int
}

// New creates an empty tree: it allocates a root leaf and returns the tree.
func New(txn Txn, pageSize int) (*Tree, error) {
	pageNo, buf, err := txn.Allocate()
	if err != nil {
		return nil, err
	}
	initPage(buf, pageTypeLeaf)
	return &Tree{root: pageNo, pageSize: pageSize}, nil
}

// Load returns a handle to an existing tree rooted at root.
func Load(root uint32, pageSize int) *Tree {
	return &Tree{root: root, pageSize: pageSize}
}

// Root returns the tree's root page number. The root page never changes
// after creation (splits grow the tree by moving the old root's content),
// so handles stay valid across mutations.
func (t *Tree) Root() uint32 { return t.root }

func initPage(buf []byte, typ byte) {
	for i := range buf[:hdrEnd] {
		buf[i] = 0
	}
	buf[hdrType] = typ
	binary.LittleEndian.PutUint16(buf[hdrNCells:], 0)
	binary.LittleEndian.PutUint32(buf[hdrRight:], 0)
	binary.LittleEndian.PutUint16(buf[hdrDataStart:], uint16(len(buf)))
}

// --- page accessors ---

type page struct {
	buf []byte
}

func (p page) typ() byte      { return p.buf[hdrType] }
func (p page) nCells() int    { return int(binary.LittleEndian.Uint16(p.buf[hdrNCells:])) }
func (p page) right() uint32  { return binary.LittleEndian.Uint32(p.buf[hdrRight:]) }
func (p page) dataStart() int { return int(binary.LittleEndian.Uint16(p.buf[hdrDataStart:])) }
func (p page) prev() uint32   { return binary.LittleEndian.Uint32(p.buf[hdrPrev:]) }

func (p page) setNCells(n int)    { binary.LittleEndian.PutUint16(p.buf[hdrNCells:], uint16(n)) }
func (p page) setRight(pg uint32) { binary.LittleEndian.PutUint32(p.buf[hdrRight:], pg) }
func (p page) setDataStart(v int) { binary.LittleEndian.PutUint16(p.buf[hdrDataStart:], uint16(v)) }
func (p page) setPrev(pg uint32)  { binary.LittleEndian.PutUint32(p.buf[hdrPrev:], pg) }

func (p page) slotOff(i int) int { return hdrEnd + i*slotSize }

func (p page) cellOffset(i int) int {
	return int(binary.LittleEndian.Uint16(p.buf[p.slotOff(i):]))
}

func (p page) setCellOffset(i, off int) {
	binary.LittleEndian.PutUint16(p.buf[p.slotOff(i):], uint16(off))
}

// freeSpace returns contiguous free bytes between slot array and cell data.
func (p page) freeSpace() int {
	return p.dataStart() - (hdrEnd + p.nCells()*slotSize)
}

// Leaf cell: flags(1) keyLen(2) key... then either
//   - inline: valLen(4) value...
//   - overflow (flags&cellOverflow): totalLen(4) firstOverflowPage(4)
//
// Interior cell: keyLen(2) key... child(4); child subtree holds keys < key
// (strictly), with page.right() holding keys >= the last separator.

func leafCellSize(keyLen, valLen int, overflow bool) int {
	if overflow {
		return 1 + 2 + keyLen + 4 + 4
	}
	return 1 + 2 + keyLen + 4 + valLen
}

func interiorCellSize(keyLen int) int { return 2 + keyLen + 4 }

// parseLeafCell returns the key, and either the inline value or the
// overflow descriptor.
func (p page) leafCell(i int) (key []byte, val []byte, ovfPage uint32, totalLen uint32, err error) {
	off := p.cellOffset(i)
	b := p.buf
	if off+3 > len(b) {
		return nil, nil, 0, 0, ErrCorrupt
	}
	flags := b[off]
	klen := int(binary.LittleEndian.Uint16(b[off+1:]))
	ko := off + 3
	if ko+klen+4 > len(b) {
		return nil, nil, 0, 0, ErrCorrupt
	}
	key = b[ko : ko+klen]
	if flags&cellOverflow != 0 {
		totalLen = binary.LittleEndian.Uint32(b[ko+klen:])
		ovfPage = binary.LittleEndian.Uint32(b[ko+klen+4:])
		return key, nil, ovfPage, totalLen, nil
	}
	vlen := int(binary.LittleEndian.Uint32(b[ko+klen:]))
	vo := ko + klen + 4
	if vo+vlen > len(b) {
		return nil, nil, 0, 0, ErrCorrupt
	}
	return key, b[vo : vo+vlen], 0, 0, nil
}

func (p page) interiorCell(i int) (key []byte, child uint32, err error) {
	off := p.cellOffset(i)
	b := p.buf
	if off+2 > len(b) {
		return nil, 0, ErrCorrupt
	}
	klen := int(binary.LittleEndian.Uint16(b[off:]))
	ko := off + 2
	if ko+klen+4 > len(b) {
		return nil, 0, ErrCorrupt
	}
	return b[ko : ko+klen], binary.LittleEndian.Uint32(b[ko+klen:]), nil
}

// key returns the key of cell i.
func (p page) key(i int) ([]byte, error) {
	return p.keyAt(i, p.keyOffset())
}

// keyOffset is where a cell's key starts past its offset: leaf cells carry
// a flags byte before the key length, interior cells start with it.
func (p page) keyOffset() int {
	if p.typ() == pageTypeLeaf {
		return 3
	}
	return 2
}

// keyAt returns the key of cell i, whose key starts ko bytes into the cell
// (see keyOffset), reading only the cell's key length and key.
func (p page) keyAt(i, ko int) ([]byte, error) {
	b := p.buf
	start := p.cellOffset(i) + ko
	if start > len(b) {
		return nil, ErrCorrupt
	}
	end := start + int(binary.LittleEndian.Uint16(b[start-2:]))
	if end > len(b) {
		return nil, ErrCorrupt
	}
	return b[start:end], nil
}

// search finds the first cell index whose key is >= key. Returns (idx,
// found) where found means an exact match at idx.
func (p page) search(key []byte) (int, bool, error) {
	ko := p.keyOffset()
	lo, hi := 0, p.nCells()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		k, err := p.keyAt(mid, ko)
		if err != nil {
			return 0, false, err
		}
		switch bytes.Compare(k, key) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true, nil
		case 1:
			hi = mid
		}
	}
	return lo, false, nil
}

// insertCell writes raw cell bytes at slot index i. Caller must have
// verified free space.
func (p page) insertCell(i int, cell []byte) {
	n := p.nCells()
	newStart := p.dataStart() - len(cell)
	copy(p.buf[newStart:], cell)
	// Shift slots [i, n) right by one.
	copy(p.buf[p.slotOff(i+1):p.slotOff(n+1)], p.buf[p.slotOff(i):p.slotOff(n)])
	p.setCellOffset(i, newStart)
	p.setNCells(n + 1)
	p.setDataStart(newStart)
}

// removeCell deletes slot i. Cell bytes become dead space reclaimed by
// compaction.
func (p page) removeCell(i int) {
	n := p.nCells()
	copy(p.buf[p.slotOff(i):p.slotOff(n-1)], p.buf[p.slotOff(i+1):p.slotOff(n)])
	p.setNCells(n - 1)
}

// cellBytes returns the raw encoded bytes of cell i.
func (p page) cellBytes(i int) ([]byte, error) {
	off := p.cellOffset(i)
	b := p.buf
	var size int
	if p.typ() == pageTypeLeaf {
		flags := b[off]
		klen := int(binary.LittleEndian.Uint16(b[off+1:]))
		if flags&cellOverflow != 0 {
			size = leafCellSize(klen, 0, true)
		} else {
			vlen := int(binary.LittleEndian.Uint32(b[off+3+klen:]))
			size = leafCellSize(klen, vlen, false)
		}
	} else {
		klen := int(binary.LittleEndian.Uint16(b[off:]))
		size = interiorCellSize(klen)
	}
	if off+size > len(b) {
		return nil, ErrCorrupt
	}
	return b[off : off+size], nil
}

// compact rewrites the page so all free space is contiguous.
func (p page) compact(pageSize int) error {
	n := p.nCells()
	cells := make([][]byte, n)
	for i := 0; i < n; i++ {
		cb, err := p.cellBytes(i)
		if err != nil {
			return err
		}
		c := make([]byte, len(cb))
		copy(c, cb)
		cells[i] = c
	}
	dataStart := pageSize
	for i := n - 1; i >= 0; i-- {
		dataStart -= len(cells[i])
		copy(p.buf[dataStart:], cells[i])
		p.setCellOffset(i, dataStart)
	}
	p.setDataStart(dataStart)
	return nil
}

// usedBytes is the total cell payload bytes (excluding slots/header).
func (p page) usedBytes() (int, error) {
	total := 0
	for i := 0; i < p.nCells(); i++ {
		cb, err := p.cellBytes(i)
		if err != nil {
			return 0, err
		}
		total += len(cb)
	}
	return total, nil
}

func encodeLeafCell(dst []byte, key, val []byte, ovfPage uint32, totalLen uint32, overflow bool) []byte {
	if overflow {
		dst = append(dst, cellOverflow)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	if overflow {
		dst = binary.LittleEndian.AppendUint32(dst, totalLen)
		dst = binary.LittleEndian.AppendUint32(dst, ovfPage)
	} else {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(val)))
		dst = append(dst, val...)
	}
	return dst
}

func encodeInteriorCell(dst []byte, key []byte, child uint32) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = binary.LittleEndian.AppendUint32(dst, child)
	return dst
}

// maxInlineValue: values larger than this spill to overflow pages. Chosen
// so a leaf always fits at least 4 cells with maximal keys.
func (t *Tree) maxInlineValue(keyLen int) int {
	quarter := (t.pageSize - hdrEnd) / 4
	m := quarter - leafCellSize(keyLen, 0, false) - slotSize
	if m < 0 {
		m = 0
	}
	return m
}

func (t *Tree) maxKeyLen() int {
	// Keys must allow 4 interior cells per page.
	return (t.pageSize-hdrEnd)/4 - interiorCellSize(0) - slotSize
}

// --- overflow chains ---

// Overflow page: next(4) + dataLen(2) + data.
func (t *Tree) writeOverflow(txn Txn, val []byte) (uint32, error) {
	chunk := t.pageSize - 6
	var first uint32
	var prevBuf []byte
	for off := 0; off < len(val); off += chunk {
		end := off + chunk
		if end > len(val) {
			end = len(val)
		}
		pageNo, buf, err := txn.Allocate()
		if err != nil {
			return 0, err
		}
		binary.LittleEndian.PutUint32(buf[0:], 0) // next pointer, fixed up below
		binary.LittleEndian.PutUint16(buf[4:], uint16(end-off))
		copy(buf[6:], val[off:end])
		if prevBuf != nil {
			binary.LittleEndian.PutUint32(prevBuf[0:], pageNo)
		} else {
			first = pageNo
		}
		prevBuf = buf
	}
	return first, nil
}

func readOverflow(txn ReadTxn, first uint32, totalLen uint32) ([]byte, error) {
	out := make([]byte, 0, totalLen)
	pageNo := first
	for pageNo != 0 {
		buf, err := txn.Get(pageNo)
		if err != nil {
			return nil, err
		}
		next := binary.LittleEndian.Uint32(buf[0:])
		n := int(binary.LittleEndian.Uint16(buf[4:]))
		if 6+n > len(buf) {
			return nil, ErrCorrupt
		}
		out = append(out, buf[6:6+n]...)
		pageNo = next
	}
	if uint32(len(out)) != totalLen {
		return nil, fmt.Errorf("%w: overflow chain length %d, want %d", ErrCorrupt, len(out), totalLen)
	}
	return out, nil
}

func (t *Tree) freeOverflow(txn Txn, first uint32) error {
	pageNo := first
	for pageNo != 0 {
		buf, err := txn.Get(pageNo)
		if err != nil {
			return err
		}
		next := binary.LittleEndian.Uint32(buf[0:])
		if err := txn.Free(pageNo); err != nil {
			return err
		}
		pageNo = next
	}
	return nil
}
