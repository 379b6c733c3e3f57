package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"micronn/internal/storage"
	"micronn/internal/storage/storagetest"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	s, err := storage.Open(filepath.Join(t.TempDir(), "t.db"), storage.Options{
		Sync: storage.SyncOff, CheckpointFrames: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func photosSchema() *Schema {
	return &Schema{
		Name: "photos",
		Key:  []Column{{Name: "id", Type: TypeInt64}},
		Cols: []Column{
			{Name: "location", Type: TypeText},
			{Name: "ts", Type: TypeInt64},
			{Name: "score", Type: TypeFloat64},
		},
	}
}

func createPhotos(t *testing.T, db *DB) *Table {
	t.Helper()
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateTable(wt, photosSchema()); err != nil {
			return err
		}
		return db.CreateIndex(wt, "photos_location", "photos", "location")
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("photos")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateTableDuplicate(t *testing.T) {
	db := testDB(t)
	createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		return db.CreateTable(wt, photosSchema())
	})
	if !errors.Is(err, ErrExists) {
		t.Errorf("duplicate CreateTable = %v, want ErrExists", err)
	}
}

func TestPutGetDelete(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		return tbl.Put(wt, Row{I(1), S("Seattle"), I(1000), F(0.9)})
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		row, err := tbl.Get(rt, I(1))
		if err != nil {
			return err
		}
		if row[1].Str != "Seattle" || row[2].Int != 1000 || row[3].Flt != 0.9 {
			t.Errorf("row = %v", row)
		}
		if _, err := tbl.Get(rt, I(2)); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(2) = %v, want ErrNotFound", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := tbl.Delete(wt, I(1)); err != nil {
			return err
		}
		if err := tbl.Delete(wt, I(1)); !errors.Is(err, ErrNotFound) {
			t.Errorf("double delete = %v, want ErrNotFound", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRowValidation(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := tbl.Put(wt, Row{I(1), S("x")}); err == nil {
			t.Error("arity mismatch accepted")
		}
		if err := tbl.Put(wt, Row{S("wrong"), S("x"), I(0), F(0)}); err == nil {
			t.Error("key type mismatch accepted")
		}
		if err := tbl.Put(wt, Row{I(1), I(99), I(0), F(0)}); err == nil {
			t.Error("column type mismatch accepted")
		}
		// Nulls allowed in value columns.
		if err := tbl.Put(wt, Row{I(1), Null(), Null(), Null()}); err != nil {
			t.Errorf("nullable columns rejected: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpsertReplacesAndReindexes(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := tbl.Put(wt, Row{I(1), S("Seattle"), I(1), F(0)}); err != nil {
			return err
		}
		return tbl.Put(wt, Row{I(1), S("NewYork"), I(2), F(0)})
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index("photos_location")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		n, err := ix.Count(rt)
		if err != nil {
			return err
		}
		if n != 1 {
			t.Errorf("index entries = %d, want 1 (stale entry not removed)", n)
		}
		var hits int
		err = ix.Scan(rt, []Value{S("NewYork")}, func(vals, pk Row) error {
			hits++
			if pk[0].Int != 1 {
				t.Errorf("pk = %v", pk)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if hits != 1 {
			t.Errorf("NewYork hits = %d", hits)
		}
		hits = 0
		err = ix.Scan(rt, []Value{S("Seattle")}, func(vals, pk Row) error {
			hits++
			return nil
		})
		if hits != 0 {
			t.Errorf("stale Seattle hits = %d", hits)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanPrefix(t *testing.T) {
	db := testDB(t)
	// Composite-key table: (partition, vec) like the vector table.
	schema := &Schema{
		Name: "vectors",
		Key:  []Column{{Name: "part", Type: TypeInt64}, {Name: "vec", Type: TypeInt64}},
		Cols: []Column{{Name: "blob", Type: TypeBlob}},
	}
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateTable(wt, schema); err != nil {
			return err
		}
		tbl, err := db.Table("vectors")
		if err != nil {
			return err
		}
		for part := int64(0); part < 5; part++ {
			for v := int64(0); v < 20; v++ {
				if err := tbl.Put(wt, Row{I(part), I(v), B([]byte{byte(part), byte(v)})}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("vectors")
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		var rows int
		var lastVec int64 = -1
		err := tbl.Scan(rt, []Value{I(3)}, func(row Row) error {
			if row[0].Int != 3 {
				t.Errorf("partition %d leaked into prefix scan", row[0].Int)
			}
			if row[1].Int <= lastVec {
				t.Errorf("scan out of order: %d after %d", row[1].Int, lastVec)
			}
			lastVec = row[1].Int
			rows++
			return nil
		})
		if err != nil {
			return err
		}
		if rows != 20 {
			t.Errorf("prefix scan rows = %d, want 20", rows)
		}
		// Early stop.
		rows = 0
		err = tbl.Scan(rt, nil, func(row Row) error {
			rows++
			if rows == 7 {
				return ErrStopScan
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rows != 7 {
			t.Errorf("early-stop rows = %d, want 7", rows)
		}
		// ScanKeys sees only keys.
		rows = 0
		err = tbl.ScanKeys(rt, []Value{I(1)}, func(key Row) error {
			if len(key) != 2 {
				t.Errorf("key row = %v", key)
			}
			rows++
			return nil
		})
		if rows != 20 {
			t.Errorf("ScanKeys rows = %d", rows)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexRangeScan(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateIndex(wt, "photos_ts", "photos", "ts"); err != nil {
			return err
		}
		for i := int64(0); i < 100; i++ {
			loc := "Seattle"
			if i%10 == 0 {
				loc = "NewYork"
			}
			if err := tbl.Put(wt, Row{I(i), S(loc), I(i * 10), F(float64(i))}); err != nil {
				return err
			}
		}
		// One row with a NULL ts: must never appear in range scans.
		return tbl.Put(wt, Row{I(1000), S("Seattle"), Null(), F(0)})
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index("photos_ts")
	if err != nil {
		t.Fatal(err)
	}
	type rangeCase struct {
		lo, hi       Value
		loInc, hiInc bool
		want         int
	}
	cases := []rangeCase{
		{Null(), Null(), false, false, 100}, // unbounded: all non-null
		{I(500), Null(), true, false, 50},   // ts >= 500
		{I(500), Null(), false, false, 49},  // ts > 500
		{Null(), I(500), false, false, 50},  // ts < 500
		{Null(), I(500), false, true, 51},   // ts <= 500
		{I(100), I(200), true, true, 11},    // 100 <= ts <= 200
		{I(2000), Null(), true, false, 0},   // beyond range
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		for i, c := range cases {
			var n int
			err := ix.ScanRange(rt, c.lo, c.hi, c.loInc, c.hiInc, func(vals, pk Row) error {
				if vals[0].IsNull() {
					t.Errorf("case %d: null leaked into range scan", i)
				}
				n++
				return nil
			})
			if err != nil {
				return err
			}
			if n != c.want {
				t.Errorf("case %d (%v..%v inc=%v,%v): n = %d, want %d", i, c.lo, c.hi, c.loInc, c.hiInc, n, c.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCreateIndexBackfills(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		for i := int64(0); i < 50; i++ {
			if err := tbl.Put(wt, Row{I(i), S("L"), I(i), F(0)}); err != nil {
				return err
			}
		}
		// Index created after rows exist.
		return db.CreateIndex(wt, "photos_score", "photos", "score")
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.Index("photos_score")
	if err != nil {
		t.Fatal(err)
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		n, err := ix.Count(rt)
		if err != nil {
			return err
		}
		if n != 50 {
			t.Errorf("backfilled entries = %d, want 50", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCatalogPersistsAcrossReopen(t *testing.T) {
	storagetest.SkipIfEphemeral(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "t.db")
	opts := storage.Options{Sync: storage.SyncOff, CheckpointFrames: -1}
	s, err := storage.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateTable(wt, photosSchema()); err != nil {
			return err
		}
		if err := db.CreateIndex(wt, "photos_location", "photos", "location"); err != nil {
			return err
		}
		tbl, err := db.Table("photos")
		if err != nil {
			return err
		}
		return tbl.Put(wt, Row{I(7), S("Kyoto"), I(5), F(1)})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := storage.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	db2, err := Open(s2)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db2.Table("photos")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db2.Index("photos_location")
	if err != nil {
		t.Fatal(err)
	}
	err = s2.View(func(rt *storage.ReadTxn) error {
		row, err := tbl.Get(rt, I(7))
		if err != nil {
			return err
		}
		if row[1].Str != "Kyoto" {
			t.Errorf("row = %v", row)
		}
		var hits int
		err = ix.Scan(rt, []Value{S("Kyoto")}, func(vals, pk Row) error {
			hits++
			return nil
		})
		if hits != 1 {
			t.Errorf("index hits = %d", hits)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		for i := int64(0); i < 100; i++ {
			if err := tbl.Put(wt, Row{I(i), S("L"), I(i), F(0)}); err != nil {
				return err
			}
		}
		return tbl.Truncate(wt)
	})
	if err != nil {
		t.Fatal(err)
	}
	ix, _ := db.Index("photos_location")
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		n, err := tbl.Count(rt)
		if err != nil {
			return err
		}
		if n != 0 {
			t.Errorf("Count after truncate = %d", n)
		}
		in, err := ix.Count(rt)
		if err != nil {
			return err
		}
		if in != 0 {
			t.Errorf("index count after truncate = %d", in)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeBlobValues(t *testing.T) {
	db := testDB(t)
	schema := &Schema{
		Name: "blobs",
		Key:  []Column{{Name: "id", Type: TypeInt64}},
		Cols: []Column{{Name: "data", Type: TypeBlob}},
	}
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateTable(wt, schema); err != nil {
			return err
		}
		tbl, err := db.Table("blobs")
		if err != nil {
			return err
		}
		// A 960-dim float32 vector blob is 3840 bytes: will use overflow.
		big := make([]byte, 3840)
		for i := range big {
			big[i] = byte(i)
		}
		return tbl.Put(wt, Row{I(1), B(big)})
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("blobs")
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		row, err := tbl.Get(rt, I(1))
		if err != nil {
			return err
		}
		if len(row[1].Bts) != 3840 {
			t.Fatalf("blob len = %d", len(row[1].Bts))
		}
		for i, b := range row[1].Bts {
			if b != byte(i) {
				t.Fatalf("blob[%d] = %d", i, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRowsAcrossTransactions(t *testing.T) {
	db := testDB(t)
	tbl := createPhotos(t, db)
	const n = 2000
	for batch := 0; batch < 4; batch++ {
		err := db.Store().Update(func(wt *storage.WriteTxn) error {
			for i := batch * n / 4; i < (batch+1)*n/4; i++ {
				row := Row{I(int64(i)), S(fmt.Sprintf("loc%d", i%7)), I(int64(i)), F(float64(i))}
				if err := tbl.Put(wt, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ix, _ := db.Index("photos_location")
	err := db.Store().View(func(rt *storage.ReadTxn) error {
		cnt, err := tbl.Count(rt)
		if err != nil {
			return err
		}
		if cnt != n {
			t.Errorf("Count = %d, want %d", cnt, n)
		}
		var hits int
		err = ix.Scan(rt, []Value{S("loc3")}, func(vals, pk Row) error {
			hits++
			return nil
		})
		if err != nil {
			return err
		}
		want := 0
		for i := 0; i < n; i++ {
			if i%7 == 3 {
				want++
			}
		}
		if hits != want {
			t.Errorf("loc3 hits = %d, want %d", hits, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScanBorrowedMatchesScan: the borrowed iterator and the field readers
// see exactly what Scan decodes. Each borrowed (key, val) pair, re-decoded
// inside the callback, must equal Scan's row, over inline and overflow
// values, text holding 0x00, prefix boundaries and an early ErrStopScan;
// KeyInt/RowBytes must read the same fields and GetBorrowed the same value
// bytes.
func TestScanBorrowedMatchesScan(t *testing.T) {
	db := testDB(t)
	schema := &Schema{
		Name: "mixed",
		Key:  []Column{{Name: "part", Type: TypeInt64}, {Name: "name", Type: TypeText}},
		Cols: []Column{{Name: "note", Type: TypeText}, {Name: "data", Type: TypeBlob}},
	}
	names := []string{"", "a", "a\x00", "a\x00b", "ab", "b\x00\x00", "\x00"}
	err := db.Store().Update(func(wt *storage.WriteTxn) error {
		if err := db.CreateTable(wt, schema); err != nil {
			return err
		}
		tbl, err := db.Table("mixed")
		if err != nil {
			return err
		}
		for part := int64(-1); part < 4; part++ {
			for i, name := range names {
				data := []byte{byte(part), byte(i), 0x00}
				if i%3 == 0 {
					data = make([]byte, 3*storage.DefaultPageSize+i) // overflow
					for j := range data {
						data[j] = byte(j * (i + 1))
					}
				}
				note := S(fmt.Sprintf("n\x00%d", i))
				if i == 4 {
					note = Null()
				}
				if err := tbl.Put(wt, Row{I(part), S(name), note, B(data)}); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("mixed")

	cases := []struct {
		name   string
		prefix []Value
		stopAt int // stop with ErrStopScan after this many rows; 0 = never
		rows   int // rows Scan must yield
	}{
		{"all", nil, 0, 5 * len(names)},
		{"part", []Value{I(2)}, 0, len(names)},
		{"negative part", []Value{I(-1)}, 0, len(names)},
		{"text prefix", []Value{I(1), S("a")}, 0, 1},
		{"text prefix with 0x00", []Value{I(3), S("a\x00")}, 0, 1},
		{"empty prefix match", []Value{I(9)}, 0, 0},
		{"stop", nil, 9, 9},
		{"stop in prefix", []Value{I(0)}, 2, 2},
	}
	err = db.Store().View(func(rt *storage.ReadTxn) error {
		for _, tc := range cases {
			var want []Row
			err := tbl.Scan(rt, tc.prefix, func(row Row) error {
				want = append(want, row)
				if len(want) == tc.stopAt {
					return ErrStopScan
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s: Scan: %w", tc.name, err)
			}
			if len(want) != tc.rows {
				t.Errorf("%s: Scan saw %d rows, want %d", tc.name, len(want), tc.rows)
			}
			var got []Row
			err = tbl.ScanBorrowed(rt, tc.prefix, func(key, val []byte) error {
				k, err := DecodeKey(key, 2)
				if err != nil {
					return err
				}
				v, err := DecodeRow(val, 2)
				if err != nil {
					return err
				}
				row := append(k, v...)
				got = append(got, row)

				part, _, err := KeyInt(key)
				if err != nil || part != row[0].Int {
					t.Errorf("%s: KeyInt = %d, %v; want %d", tc.name, part, err, row[0].Int)
				}
				note, rest, err := RowBytes(val)
				if err != nil || string(note) != row[2].Str {
					t.Errorf("%s: RowBytes(note) = %q, %v; want %q", tc.name, note, err, row[2].Str)
				}
				data, rest, err := RowBytes(rest)
				if err != nil || !bytes.Equal(data, row[3].Bts) || len(rest) != 0 {
					t.Errorf("%s: RowBytes(data) = %d bytes, %v, %d left; want %d bytes", tc.name, len(data), err, len(rest), len(row[3].Bts))
				}
				pointVal, err := tbl.GetBorrowed(rt, row[0], row[1])
				if err != nil || !bytes.Equal(pointVal, val) {
					t.Errorf("%s: GetBorrowed(%v) differs from the scanned value (%v)", tc.name, row[:2], err)
				}
				if len(got) == tc.stopAt {
					return ErrStopScan
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("%s: ScanBorrowed: %w", tc.name, err)
			}
			if len(got) != len(want) {
				t.Errorf("%s: ScanBorrowed saw %d rows, Scan %d", tc.name, len(got), len(want))
				continue
			}
			for i := range want {
				for c := range want[i] {
					if !valueEqual(got[i][c], want[i][c]) {
						t.Errorf("%s: row %d column %d: borrowed %v, Scan %v", tc.name, i, c, got[i][c], want[i][c])
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
