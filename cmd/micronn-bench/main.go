// Command micronn-bench regenerates the tables and figures of the MicroNN
// paper's evaluation on synthetic workloads.
//
// Usage:
//
//	micronn-bench -exp fig4              # one experiment
//	micronn-bench -exp all -scale 0.02   # everything, 2% of paper scale
//	micronn-bench -list                  # list experiments
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"micronn/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the selected experiments and returns the process
// exit code: 0 on success, 1 when an experiment fails, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("micronn-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment to run (see -list), or 'all'")
		scale    = fs.Float64("scale", 0.01, "dataset scale relative to the paper (0 < scale <= 1; 1.0 = full)")
		datasets = fs.String("datasets", "", "comma-separated dataset subset (default: representative set)")
		k        = fs.Int("k", 100, "result list size (paper reports top-100)")
		recall   = fs.Float64("recall", 0.9, "target recall for nprobe selection (0 < recall <= 1)")
		queries  = fs.Int("queries", 50, "timed queries per configuration (>= 1)")
		dir      = fs.String("dir", "", "scratch directory for database files (default: temp)")
		list     = fs.Bool("list", false, "list experiments and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set already printed the error and usage
	}
	if err := checkFlags(*scale, *queries, *k, *recall); err != nil {
		fmt.Fprintln(stderr, "micronn-bench:", err)
		fs.Usage()
		return 2
	}

	if *list {
		for _, e := range bench.Experiments {
			fmt.Fprintf(stdout, "  %-20s %s\n", e.Name, e.Desc)
		}
		return 0
	}

	cfg := bench.Config{
		Out:          stdout,
		Scale:        *scale,
		K:            *k,
		TargetRecall: *recall,
		QuerySample:  *queries,
		Dir:          *dir,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	var err error
	if *exp == "all" {
		err = bench.RunAll(cfg)
	} else {
		var e bench.Experiment
		e, err = bench.Lookup(*exp)
		if err == nil {
			err = e.Run(cfg)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "micronn-bench:", err)
		return 1
	}
	return 0
}

// checkFlags rejects out-of-range values before any experiment starts: a
// non-positive query count would size a negative slice, and a
// non-positive scale would silently run at full paper scale.
func checkFlags(scale float64, queries, k int, recall float64) error {
	switch {
	case !(scale > 0 && scale <= 1):
		return fmt.Errorf("-scale %v out of range: want 0 < scale <= 1", scale)
	case queries < 1:
		return fmt.Errorf("-queries %d out of range: want >= 1", queries)
	case k < 1:
		return fmt.Errorf("-k %d out of range: want >= 1", k)
	case !(recall > 0 && recall <= 1):
		return fmt.Errorf("-recall %v out of range: want 0 < recall <= 1", recall)
	}
	return nil
}
