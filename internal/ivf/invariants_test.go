package ivf

import (
	"fmt"
	"strings"
	"testing"

	"micronn/internal/reldb"
	"micronn/internal/storage"
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
