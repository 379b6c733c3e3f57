package ivf

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"micronn/internal/quant"
	"micronn/internal/reldb"
	"micronn/internal/storage"
	"micronn/internal/vec"
)

// TestCheckInvariantsCatchesCorruption applies one corruption per check
// that the vid-keyed row makes possible to a small built index, with an
// int and a full-text attribute, and asserts that CheckInvariants reports
// it. The uncorrupted index passes.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		corrupt func(e *testEnv, wt *storage.WriteTxn) error
	}{
		{"vids row without a vector row", "does not match vector rows", func(e *testEnv, wt *storage.WriteTxn) error {
			return e.ix.vids.Put(wt, reldb.Row{reldb.I(1 << 40), reldb.S("ghost"), reldb.Null(), reldb.Null()})
		}},
		{"vids row with another asset", "does not match vector rows", func(e *testEnv, wt *storage.WriteTxn) error {
			row, err := e.ix.vids.Get(wt, reldb.I(3))
			if err != nil {
				return err
			}
			row[1] = reldb.S("asset-999")
			return e.ix.vids.Put(wt, row)
		}},
		{"vector row without a vids row", "vid rows", func(e *testEnv, wt *storage.WriteTxn) error {
			return e.ix.vids.Delete(wt, reldb.I(3))
		}},
		{"attribute of the wrong type", "declared", func(e *testEnv, wt *storage.WriteTxn) error {
			// Put validates types against the schema, so widen the
			// schema for this one write.
			col := &e.ix.vids.Schema().Cols[1]
			col.Type = reldb.TypeText
			defer func() { col.Type = reldb.TypeInt64 }()
			row, err := e.ix.vids.Get(wt, reldb.I(3))
			if err != nil {
				return err
			}
			row[e.ix.attrPos["n"]] = reldb.S("three")
			return e.ix.vids.Put(wt, row)
		}},
		{"attribute copy that differs from its vids row", "copies attribute n", func(e *testEnv, wt *storage.WriteTxn) error {
			a, err := e.ix.assets.Get(wt, reldb.S("asset-3"))
			if err != nil {
				return err
			}
			row, err := e.ix.vectors.Get(wt, a[1], a[2])
			if err != nil {
				return err
			}
			row[4] = reldb.I(row[4].Int + 1)
			return e.ix.vectors.Put(wt, row)
		}},
		{"centroid id at NextPartID", "NextPartID", func(e *testEnv, wt *storage.WriteTxn) error {
			st, err := e.ix.getState(wt)
			if err != nil {
				return err
			}
			st.NextPartID = 1
			return e.ix.putState(wt, st)
		}},
		{"doc length for a dead vid", "has no vector row", func(e *testEnv, wt *storage.WriteTxn) error {
			doclen, err := e.db.Table(doclenTable)
			if err != nil {
				return err
			}
			return doclen.Put(wt, reldb.Row{reldb.I(1 << 40), reldb.I(1)})
		}},
		{"doc lengths disagree with #docs", "#docs", func(e *testEnv, wt *storage.WriteTxn) error {
			doclen, err := e.db.Table(doclenTable)
			if err != nil {
				return err
			}
			return doclen.Delete(wt, reldb.I(3))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newInvariantEnv(t)
			if err := e.store.Update(func(wt *storage.WriteTxn) error { return c.corrupt(e, wt) }); err != nil {
				t.Fatal(err)
			}
			err := e.store.View(func(rt *storage.ReadTxn) error { return e.ix.CheckInvariants(rt) })
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// doclenTable is the doc-length table of newInvariantEnv's full-text
// attribute.
const doclenTable = "__fts_attr_tags_doclen"

// newInvariantEnv builds a 60-vector index with an int attribute n and a
// full-text attribute tags and checks that it passes CheckInvariants.
func newInvariantEnv(t *testing.T) *testEnv {
	t.Helper()
	e := newEnv(t, Config{Dim: 4, TargetPartitionSize: 10, Seed: 1, Attributes: []AttributeDef{
		{Name: "n", Type: reldb.TypeInt64},
		{Name: "tags", Type: reldb.TypeText, FullText: true},
	}})
	e.upsertAll(t, clusteredData(1, 60, 4, 4), func(i int) map[string]reldb.Value {
		return map[string]reldb.Value{"n": reldb.I(int64(i)), "tags": reldb.S(fmt.Sprintf("t%d common", i%5))}
	})
	e.rebuild(t)
	e.checkInvariants(t)
	return e
}

// TestVectorRowBytes: a vectors row's value is the asset id and payload
// followed by copies of the int64 and float64 attributes in schema order,
// so an index without such attributes writes exactly (asset, payload). The
// rows Upsert writes into the delta and the rows Rebuild, FlushDelta, a
// split and a merge move are checked against the values vids holds.
func TestVectorRowBytes(t *testing.T) {
	text := AttributeDef{Name: "tags", Type: reldb.TypeText, FullText: true}
	for _, c := range []struct {
		name  string
		attrs []AttributeDef
	}{
		{"none", nil},
		{"text-and-blob", []AttributeDef{text, {Name: "raw", Type: reldb.TypeBlob}}},
		{"int-and-float", []AttributeDef{{Name: "n", Type: reldb.TypeInt64}, text, {Name: "x", Type: reldb.TypeFloat64}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := newEnv(t, Config{Dim: 4, TargetPartitionSize: 10, Seed: 1, Quantization: quant.SQ8, Attributes: c.attrs})
			values := map[string]func(i int) reldb.Value{
				"tags": func(i int) reldb.Value { return reldb.S(fmt.Sprintf("t%d", i%3)) },
				"raw":  func(i int) reldb.Value { return reldb.B([]byte{byte(i)}) },
				"n":    func(i int) reldb.Value { return reldb.I(int64(i * 7)) },
				"x":    func(i int) reldb.Value { return reldb.F(float64(i) / 3) },
			}
			attrs := func(i int) map[string]reldb.Value {
				m := make(map[string]reldb.Value)
				for _, a := range c.attrs {
					if i%5 != 0 { // every 5th vector leaves its attributes NULL
						m[a.Name] = values[a.Name](i)
					}
				}
				return m
			}
			data := clusteredData(2, 80, 4, 4)
			e.upsertAll(t, &vec.Matrix{Data: data.Data[:60*4], Rows: 60, Dim: 4}, attrs)
			check := func(stage string) {
				t.Helper()
				err := e.store.View(func(rt *storage.ReadTxn) error {
					return e.ix.vectors.ScanBorrowed(rt, nil, func(key, val []byte) error {
						r, _, err := readRowView(key, val)
						if err != nil {
							return err
						}
						vidRow, err := e.ix.vids.Get(rt, reldb.I(r.vid))
						if err != nil {
							return err
						}
						want := reldb.EncodeRow(nil, reldb.Row{vidRow[1], reldb.B(r.payload)})
						for i, a := range c.attrs {
							if a.Type == reldb.TypeInt64 || a.Type == reldb.TypeFloat64 {
								want = reldb.AppendRowValue(want, vidRow[vidsAttrBase+i])
							}
						}
						if !bytes.Equal(val, want) {
							t.Fatalf("%s: vid %d row value %x, want %x", stage, r.vid, val, want)
						}
						return nil
					})
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			check("delta")
			e.rebuild(t)
			check("rebuild")
			err := e.store.Update(func(wt *storage.WriteTxn) error {
				for i := 60; i < 80; i++ {
					if err := e.ix.Upsert(wt, fmt.Sprintf("asset-%d", i), data.Row(i), attrs(i)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			check("delta after rebuild")
			e.flush(t)
			check("flush")
			var parts []int64
			err = e.store.View(func(rt *storage.ReadTxn) error {
				parts, err = e.ix.PartitionIDs(rt)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.applySplit(e.prepareSplit(t, parts[0])); err != nil {
				t.Fatal(err)
			}
			check("split")
			err = e.store.Update(func(wt *storage.WriteTxn) error {
				_, err := e.ix.MergePartitions(wt, parts[1])
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			check("merge")
			e.checkInvariants(t)
		})
	}
}
