package main

import (
	"bytes"
	"strings"
	"testing"

	"micronn/internal/bench"
)

// TestFlagValidation pins the usage contract: an out-of-range flag prints
// the error and usage and exits 2 before any experiment runs. Every case
// carries -list, so a value that slipped through would list experiments
// and exit 0 instead of starting a run.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want int
	}{
		{[]string{"-queries", "-5"}, 2},
		{[]string{"-queries", "0"}, 2},
		{[]string{"-scale", "-1"}, 2},
		{[]string{"-scale", "0"}, 2},
		{[]string{"-scale", "1.5"}, 2},
		{[]string{"-scale", "NaN"}, 2},
		{[]string{"-k", "0"}, 2},
		{[]string{"-k", "-3"}, 2},
		{[]string{"-recall", "0"}, 2},
		{[]string{"-recall", "1.1"}, 2},
		{[]string{"-recall", "NaN"}, 2},
		{[]string{"-queries", "x"}, 2},
		{nil, 0},
		{[]string{"-scale", "1", "-queries", "1", "-k", "1", "-recall", "1"}, 0},
		{[]string{"-scale", "0.0005", "-recall", "0.5"}, 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		got := run(append([]string{"-list"}, c.args...), &stdout, &stderr)
		if got != c.want {
			t.Errorf("%v: exit %d, want %d (stderr %q)", c.args, got, c.want, stderr.String())
			continue
		}
		if c.want == 2 && !strings.Contains(stderr.String(), "Usage") {
			t.Errorf("%v: exit 2 without usage on stderr: %q", c.args, stderr.String())
		}
		if c.want == 0 && strings.Count(stdout.String(), "\n") != len(bench.Experiments) {
			t.Errorf("%v: -list printed %q, want one line per experiment", c.args, stdout.String())
		}
	}
}
