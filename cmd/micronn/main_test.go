package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"micronn"
	"micronn/internal/storage"
	"micronn/internal/storage/storagetest"
)

// skipIfEphemeralBackend: every CLI command opens the database anew, so a
// multi-command workflow needs persistence between invocations. Under the
// MICRONN_TEST_BACKEND=memory matrix leg these workflows are skipped
// explicitly (the memory backend discards the store at command exit).
func skipIfEphemeralBackend(t *testing.T) {
	storagetest.SkipIfEphemeral(t)
}

func TestCLIWorkflow(t *testing.T) {
	skipIfEphemeralBackend(t)
	db := filepath.Join(t.TempDir(), "cli.mnn")

	if err := cmdCreate(db, []string{"-dim", "16", "-metric", "L2", "-partition-size", "50"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cmdLoad(db, []string{"-n", "500", "-seed", "7"}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := cmdRebuild(db); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := cmdSearch(db, []string{"-id", "v00000042", "-k", "5"}); err != nil {
		t.Fatalf("search by id: %v", err)
	}
	if err := cmdSearch(db, []string{"-vec", "1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0", "-k", "3", "-exact"}); err != nil {
		t.Fatalf("search by vector: %v", err)
	}
	if err := cmdStats(db); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := cmdDelete(db, []string{"-id", "v00000042"}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cmdDelete(db, []string{"-id", "v00000042"}); err == nil {
		t.Fatal("double delete should fail")
	}
	if err := cmdFlush(db); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Load past the split bound and let incremental maintenance absorb it.
	if err := cmdLoad(db, []string{"-n", "800", "-seed", "9"}); err != nil {
		t.Fatalf("load more: %v", err)
	}
	if err := cmdMaintain(db, []string{"-flush-threshold", "50", "-max", "100"}); err != nil {
		t.Fatalf("maintain: %v", err)
	}
}

// TestCLIShardedWorkflow drives every command against a sharded database
// directory: create -shards writes the manifest, and all later commands
// detect it and route through the sharded API.
func TestCLIShardedWorkflow(t *testing.T) {
	skipIfEphemeralBackend(t)
	db := filepath.Join(t.TempDir(), "cli.d")

	if err := cmdCreate(db, []string{"-dim", "16", "-partition-size", "50", "-shards", "3"}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := cmdLoad(db, []string{"-n", "600", "-seed", "7"}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := cmdRebuild(db); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := cmdSearch(db, []string{"-id", "v00000042", "-k", "5"}); err != nil {
		t.Fatalf("search by id: %v", err)
	}
	if err := cmdStats(db); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := cmdDelete(db, []string{"-id", "v00000042"}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if err := cmdDelete(db, []string{"-id", "v00000042"}); err == nil {
		t.Fatal("double delete should fail")
	}
	if err := cmdMaintain(db, []string{"-flush-threshold", "50", "-max", "100"}); err != nil {
		t.Fatalf("maintain: %v", err)
	}
}

// TestCLIBackendWorkflow creates an mmap-backed database and drives the
// usual commands against it: every later command must auto-detect the
// backend from the store header (no flag needed after create).
func TestCLIBackendWorkflow(t *testing.T) {
	skipIfEphemeralBackend(t)
	if !storage.MmapSupported() {
		t.Skip("mmap backend not supported on this platform")
	}
	db := filepath.Join(t.TempDir(), "cli-mmap.mnn")
	if err := cmdCreate(db, []string{"-dim", "16", "-backend", "mmap", "-partition-size", "50"}); err != nil {
		t.Fatalf("create -backend mmap: %v", err)
	}
	if err := cmdLoad(db, []string{"-n", "400", "-seed", "3"}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := cmdRebuild(db); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if err := cmdSearch(db, []string{"-id", "v00000007", "-k", "5"}); err != nil {
		t.Fatalf("search: %v", err)
	}
	if err := cmdStats(db); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := cmdCreate(db, []string{"-dim", "16", "-backend", "tape"}); err == nil {
		t.Error("create with unknown backend should fail")
	}
}

func TestCLIValidation(t *testing.T) {
	db := filepath.Join(t.TempDir(), "v.mnn")
	if err := cmdCreate(db, nil); err == nil {
		t.Error("create without -dim should fail")
	}
	if err := cmdCreate(db, []string{"-dim", "4", "-metric", "bogus"}); err == nil {
		t.Error("create with bad metric should fail")
	}
	if err := cmdCreate(db, []string{"-dim", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSearch(db, []string{"-k", "3"}); err == nil {
		t.Error("search without -id/-vec should fail")
	}
	if err := cmdSearch(db, []string{"-vec", "1,oops", "-k", "3"}); err == nil {
		t.Error("search with bad vector should fail")
	}
	if err := cmdDelete(db, nil); err == nil {
		t.Error("delete without -id should fail")
	}
}

// TestExitCodes pins the CLI contract: each typed sentinel maps to its own
// process exit code so scripts can branch on the failure class.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{micronn.ErrNotFound, exitNotFound},
		{micronn.ErrBadRequest, exitBadRequest},
		{micronn.ErrDimMismatch, exitDimMismatch},
		{micronn.ErrClosed, exitClosed},
		{micronn.ErrUnsupportedFormat, exitFormat},
		{fmt.Errorf("wrapped: %w", micronn.ErrNotFound), exitNotFound},
		{fmt.Errorf("vector has dim 2, index has 4: %w", micronn.ErrDimMismatch), exitDimMismatch},
		{errors.New("plain failure"), exitErr},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestCLIQuantFlags drives create -quant sq4 -clip end to end and checks
// that stats surfaces the scheme.
func TestCLIQuantFlags(t *testing.T) {
	skipIfEphemeralBackend(t)
	db := filepath.Join(t.TempDir(), "q.mnn")
	if err := cmdCreate(db, []string{"-dim", "8", "-quant", "sq4", "-clip", "0.01"}); err != nil {
		t.Fatalf("create -quant sq4: %v", err)
	}
	if err := cmdLoad(db, []string{"-n", "100", "-seed", "3"}); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := cmdStats(db); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := cmdCreate(filepath.Join(t.TempDir(), "bad.mnn"), []string{"-dim", "8", "-quant", "sq2"}); err == nil {
		t.Error("create with unknown -quant should fail")
	}
}
