package ivf

import (
	"cmp"
	"slices"

	"micronn/internal/btree"
	"micronn/internal/fts"
	"micronn/internal/reldb"
	"micronn/internal/vec"
)

// lookups are one goroutine's point reads by vid at one snapshot, through
// path-keeping seekers (reldb.Seeker): vids rows for filters and asset
// ids, rawvecs rows for exact vectors, and each full-text index's postings
// for MATCH probes. Callers read in ascending vid order where they can, so
// a lookup mostly searches the leaf the previous one found. Bind before
// use; release drops every page the seekers hold.
type lookups struct {
	ix       *Index
	txn      btree.ReadTxn
	vids     reldb.Seeker
	rawvecs  reldb.Seeker // bound on a quantized index only
	postings map[*fts.Index]*reldb.Seeker
	// vidsReads counts the vids rows filterColumns has read.
	vidsReads int64
}

// bind points lk at ix's tables at txn and drops every kept path.
func (lk *lookups) bind(ix *Index, txn btree.ReadTxn) {
	lk.ix, lk.txn = ix, txn
	lk.vids.Reset(ix.vids, txn)
	if ix.rawvecs != nil {
		lk.rawvecs.Reset(ix.rawvecs, txn)
	}
	for f, s := range lk.postings {
		f.BindPostings(s, txn)
	}
}

// release unbinds lk, so a pooled lookups pins no pages or transaction.
func (lk *lookups) release() {
	lk.ix, lk.txn = nil, nil
	lk.vids.Reset(nil, nil)
	lk.rawvecs.Reset(nil, nil)
	for _, s := range lk.postings {
		s.Reset(nil, nil)
	}
}

// postingsOf returns lk's seeker over f's postings, binding it on first
// use.
func (lk *lookups) postingsOf(f *fts.Index) *reldb.Seeker {
	s, ok := lk.postings[f]
	if !ok {
		if lk.postings == nil {
			lk.postings = make(map[*fts.Index]*reldb.Seeker)
		}
		s = new(reldb.Seeker)
		f.BindPostings(s, lk.txn)
		lk.postings[f] = s
	}
	return s
}

// assetOf reads vid's asset id from its vids row in place, without decoding
// the attributes behind it.
func (lk *lookups) assetOf(vid int64) (string, error) {
	val, err := lk.vids.GetBorrowed(reldb.I(vid))
	if err != nil {
		return "", err
	}
	asset, _, err := reldb.RowBytes(val)
	return string(asset), err
}

// borrowedRawBlob returns vid's exact float32 blob from a seeker over the
// raw store, aliasing page memory.
func borrowedRawBlob(seek *reldb.Seeker, vid int64) ([]byte, error) {
	val, err := seek.GetBorrowed(reldb.I(vid))
	if err != nil {
		return nil, err
	}
	blob, _, err := reldb.RowBytes(val)
	return blob, err
}

// borrowedVectorRow returns the asset id, payload and encoded attribute
// copies of k's row from a seeker over the vectors table, all aliasing page
// memory.
func borrowedVectorRow(seek *reldb.Seeker, k partVid) (asset, payload, copies []byte, err error) {
	val, err := seek.GetBorrowed(reldb.I(k.part), reldb.I(k.vid))
	if err != nil {
		return nil, nil, nil, err
	}
	return vectorValue(val)
}

// readRawVector decodes vid's exact float32 vector from the raw store into
// x straight from the page, without building a row, and returns the blob's
// byte length. Write paths that hold the blob across later writes keep the
// copying rawVector instead: a write can rewrite the page under a borrowed
// view.
func (lk *lookups) readRawVector(vid int64, x []float32) (int, error) {
	blob, err := borrowedRawBlob(&lk.rawvecs, vid)
	if err != nil {
		return 0, err
	}
	vec.FromBlob(x, blob)
	return len(blob), nil
}

// readExactVector decodes vid's exact float32 vector into x and returns the
// blob's byte length: from the raw store on a quantized index (the parity
// path exact results rely on), otherwise from vid's row in the partition
// the assets table records for asset (an unquantized index has no raw
// store).
func (lk *lookups) readExactVector(vid int64, asset string, x []float32) (int, error) {
	ix := lk.ix
	if ix.rawvecs != nil {
		return lk.readRawVector(vid, x)
	}
	part, err := ix.partOf(lk.txn, asset)
	if err != nil {
		return 0, err
	}
	val, err := ix.vectors.GetBorrowed(lk.txn, reldb.I(part), reldb.I(vid))
	if err != nil {
		return 0, err
	}
	_, blob, _, err := vectorValue(val)
	if err != nil {
		return 0, err
	}
	vec.FromBlob(x, blob)
	return len(blob), nil
}

// keyOrder returns the indexes of n items ordered by key(i): by vid, say,
// the order in which lookups read the most from the leaves they hold.
func keyOrder(n int, key func(i int) int64) []int {
	type entry struct {
		key int64
		i   int
	}
	es := make([]entry, n)
	for i := range es {
		es[i] = entry{key(i), i}
	}
	slices.SortFunc(es, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	order := make([]int, n)
	for k, e := range es {
		order[k] = e.i
	}
	return order
}
