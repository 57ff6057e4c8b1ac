// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-workers N] [-ci W] [-independent] [-list] [-run E1,E7,...|all]
//
// Each experiment prints the claim it reproduces followed by the measured
// table; EXPERIMENTS.md records the expected shapes. Monte-Carlo sweeps
// run on the deterministic parallel engine (internal/parallel): for a
// fixed -seed the tables are bit-identical for every -workers value.
// Every trial runs the Theorem 2 pipeline on the delta engine
// (core.Session); the dense whole-host pipeline is the test oracle it is
// pinned against, not a mode of this command.
// -ci sets an early-stopping target (95% Wilson interval width); with the
// coupled curve engine (internal/sweep) each rung of a rate ladder stops
// on its own. -independent disables the nested coupling for ablation:
// every rung and threshold probe then draws fresh samples, as the suite
// did before the sweep engine, and E17 simulates each repair rate on its
// own event stream.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ftnet/internal/experiments"
	"ftnet/internal/validate"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run parses args, validates the numeric flags and runs the selected
// experiments, printing their tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "smaller sweeps and trial counts")
	seed := fs.Uint64("seed", 20250611, "master seed for all Monte-Carlo trials")
	runIDs := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	list := fs.Bool("list", false, "list experiments and exit")
	workers := fs.Int("workers", 0, "Monte-Carlo worker pool size (0 = GOMAXPROCS); results do not depend on it")
	ci := fs.Float64("ci", 0, "early-stop once the 95% CI is narrower than this width (0 = run all trials)")
	indep := fs.Bool("independent", false, "disable rate-ladder coupling: every sweep rung and threshold probe draws fresh independent samples (ablation)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A negative worker count would silently fall back to GOMAXPROCS, and
	// a negative or NaN -ci would silently disable early stopping.
	if err := validate.Min("-workers", *workers, 0); err != nil {
		return err
	}
	if err := validate.Rate("-ci", *ci); err != nil {
		return err
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-4s %s\n     %s\n", e.ID, e.Title, e.PaperClaim)
		}
		return nil
	}

	cfg := experiments.Config{Out: stdout, Quick: *quick, Seed: *seed, Parallel: *workers,
		TargetCI: *ci, Independent: *indep}
	ids := strings.Split(*runIDs, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	return experiments.Run(cfg, ids...)
}
