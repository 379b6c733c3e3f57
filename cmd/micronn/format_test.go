package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"micronn"
	"micronn/internal/reldb"
	"micronn/internal/storage"
)

// TestOpenRefusesUnsupportedFormat crafts stores in three formats this
// version does not read — no format marker, the previous format version,
// and the sealed-runs state row of a pre-release format — as single stores,
// as two-shard directories and as two-shard directories whose first shard
// is current, each once with an empty WAL and once with committed frames
// still in the WAL. Open and OpenSharded must refuse every one with
// ErrUnsupportedFormat, the CLI must exit with code 7, and no data or WAL
// file may change by a byte.
func TestOpenRefusesUnsupportedFormat(t *testing.T) {
	skipIfEphemeralBackend(t)
	olds := []struct {
		name string
		edit func(wt *storage.WriteTxn, meta *reldb.Table) error
	}{
		{"no-marker", func(wt *storage.WriteTxn, meta *reldb.Table) error {
			return meta.Delete(wt, reldb.S("format"))
		}},
		{"previous-version", func(wt *storage.WriteTxn, meta *reldb.Table) error {
			row, err := meta.Get(wt, reldb.S("format"))
			if err != nil {
				return err
			}
			v, err := strconv.Atoi(string(row[1].Bts))
			if err != nil {
				return err
			}
			return meta.Put(wt, reldb.Row{reldb.S("format"), reldb.B([]byte(strconv.Itoa(v - 1)))})
		}},
		{"sealed-runs", func(wt *storage.WriteTxn, meta *reldb.Table) error {
			if err := meta.Delete(wt, reldb.S("format")); err != nil {
				return err
			}
			row, err := meta.Get(wt, reldb.S("state"))
			if err != nil {
				return err
			}
			var st map[string]any
			if err := json.Unmarshal(row[1].Bts, &st); err != nil {
				return err
			}
			st["runs"] = []map[string]int64{{"id": 1, "rows": 3, "dead": 1}}
			st["next_run_id"] = 2
			blob, err := json.Marshal(st)
			if err != nil {
				return err
			}
			return meta.Put(wt, reldb.Row{reldb.S("state"), reldb.B(blob)})
		}},
	}
	topologies := []struct {
		name   string
		shards int
		mixed  bool
	}{{"single", 0, false}, {"sharded", 2, false}, {"mixed-shards", 2, true}}
	for _, old := range olds {
		for _, top := range topologies {
			for _, walFrames := range []bool{false, true} {
				shards := top.shards
				name := fmt.Sprintf("%s/%s/wal=%v", old.name, top.name, walFrames)
				t.Run(name, func(t *testing.T) {
					path, files := craftStore(t, shards, walFrames, top.mixed, old.edit)
					before := readFiles(t, files)
					var err error
					if shards == 0 {
						var db *micronn.DB
						if db, err = micronn.Open(path, micronn.Options{}); err == nil {
							db.Close()
						}
					} else {
						var sdb *micronn.ShardedDB
						if sdb, err = micronn.OpenSharded(path, micronn.Options{}); err == nil {
							sdb.Close()
						}
					}
					if !errors.Is(err, micronn.ErrUnsupportedFormat) {
						t.Fatalf("open: %v, want ErrUnsupportedFormat", err)
					}
					if code := exitCode(cmdStats(path)); code != exitFormat {
						t.Fatalf("micronn stats exit code %d, want %d", code, exitFormat)
					}
					after := readFiles(t, files)
					for i, f := range files {
						if !bytes.Equal(before[i], after[i]) {
							t.Errorf("refused open changed %s (%d -> %d bytes)", filepath.Base(f), len(before[i]), len(after[i]))
						}
					}
				})
			}
		}
	}
}

// craftStore creates a store (a single file, or a directory of shards when
// shards > 0) with a few vectors, applies edit to every store's meta table
// (only to the last one when mixed is set; the others commit an empty
// transaction) and closes it: with a checkpoint, or with the new frames
// left in the WAL when walFrames is set. It returns the path to open and
// every data and WAL file.
func craftStore(t *testing.T, shards int, walFrames, mixed bool, edit func(*storage.WriteTxn, *reldb.Table) error) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	var path string
	var stores []string
	items := make([]micronn.Item, 20)
	for i := range items {
		items[i] = micronn.Item{ID: fmt.Sprintf("v%02d", i), Vector: []float32{float32(i), 1, 0, float32(-i)}}
	}
	if shards == 0 {
		path = filepath.Join(dir, "old.mnn")
		db, err := micronn.Open(path, micronn.Options{Dim: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		stores = []string{path}
	} else {
		path = filepath.Join(dir, "old.d")
		sdb, err := micronn.OpenSharded(path, micronn.Options{Dim: 4, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := sdb.UpsertBatch(items); err != nil {
			t.Fatal(err)
		}
		if err := sdb.Close(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shards; i++ {
			stores = append(stores, storage.ShardDBPath(path, i))
		}
	}
	var files []string
	for i, p := range stores {
		s, err := storage.Open(p, storage.Options{Sync: storage.SyncOff, CheckpointFrames: -1})
		if err != nil {
			t.Fatal(err)
		}
		rdb, err := reldb.Open(s)
		if err != nil {
			t.Fatal(err)
		}
		meta, err := rdb.Table("meta")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Update(func(wt *storage.WriteTxn) error {
			if mixed && i < len(stores)-1 {
				return nil
			}
			return edit(wt, meta)
		}); err != nil {
			t.Fatal(err)
		}
		if walFrames {
			err = s.CloseWithoutCheckpoint()
		} else {
			err = s.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, p, p+"-wal")
	}
	if walFrames {
		if st, err := os.Stat(files[1]); err != nil || st.Size() <= 16 {
			t.Fatalf("WAL holds no frames: %v, %v", st, err)
		}
	}
	return path, files
}

// readFiles returns the contents of every file.
func readFiles(t *testing.T, files []string) [][]byte {
	t.Helper()
	out := make([][]byte, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}
