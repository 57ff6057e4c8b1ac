// Package experiments regenerates every quantitative claim of the paper:
// the resource/tolerance statements of Theorems 1-3 (and 13), the
// healthiness analysis of Lemma 4, the comparisons against FKP93 and
// BCH93b from the introduction, the Section 5 expander baseline, and the
// two figures. Each experiment is a self-contained driver printing a
// table (or figure) to the configured writer; EXPERIMENTS.md records the
// paper-vs-measured outcome for each.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"ftnet/internal/parallel"
	"ftnet/internal/rng"
	"ftnet/internal/sweep"
)

// Config tunes an experiment run.
type Config struct {
	Out      io.Writer
	Quick    bool   // smaller sweeps and trial counts
	Seed     uint64 // master seed; per-trial PCG streams derive deterministically
	Parallel int    // worker bound for Monte-Carlo trials (0 = GOMAXPROCS)
	// TargetCI, when positive, lets every Monte-Carlo sweep stop early
	// once its 95% Wilson interval is narrower than this width.
	TargetCI float64
	// Independent disables the nested coupling of the rate-ladder sweeps
	// and threshold searches (internal/sweep): every rung or probe then
	// draws fresh independent samples, reproducing the legacy
	// one-Monte-Carlo-cell-per-rate behavior. Ablation flag.
	Independent bool
}

func (c Config) trials(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// cellSeed derives the Monte-Carlo seed of one table cell by hashing the
// master seed with the experiment ID and the cell's coordinates
// (rng.Hash64). Every driver must use it instead of ad-hoc arithmetic
// like Seed+uint64(prob*1e9), whose truncations can collide across cells
// and whose nearby seeds rely on the generator's seeding avalanche.
func (c Config) cellSeed(expID string, cells ...uint64) uint64 {
	var idHash uint64
	for _, ch := range []byte(expID) {
		idHash = idHash<<8 | uint64(ch)
	}
	parts := make([]uint64, 0, 8)
	parts = append(parts, c.Seed, idHash)
	parts = append(parts, cells...)
	return rng.Hash64(parts...)
}

// monteCarlo runs one Monte-Carlo table cell on the parallel engine with
// the experiment-level worker bound and early-stopping target. Results
// are bit-identical for every worker count (see internal/parallel).
func (c Config) monteCarlo(trials int, seed uint64, newScratch func() any, fn parallel.Trial) (parallel.Report, error) {
	return parallel.Run(trials, seed, parallel.Options{
		Workers:    c.Parallel,
		NewScratch: newScratch,
		TargetCI:   c.TargetCI,
	}, fn)
}

// ladder runs one coupled vector cell (rungs sharing trials) with the
// experiment-level worker bound and per-rung early stopping.
func (c Config) ladder(trials, k int, seed uint64, newScratch func() any, fn parallel.LadderTrial) (parallel.LadderReport, error) {
	return parallel.RunLadder(trials, k, seed, parallel.Options{
		Workers:    c.Parallel,
		NewScratch: newScratch,
		TargetCI:   c.TargetCI,
	}, fn)
}

// sweepConfig maps the experiment configuration onto the curve engine's.
func (c Config) sweepConfig() sweep.Config {
	return sweep.Config{
		Workers:     c.Parallel,
		TargetCI:    c.TargetCI,
		Independent: c.Independent,
	}
}

// Experiment is a runnable reproduction of one paper claim.
type Experiment struct {
	ID         string
	Title      string
	PaperClaim string
	Run        func(Config) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiments with the given IDs ("all" runs everything).
func Run(cfg Config, ids ...string) error {
	var todo []Experiment
	if len(ids) == 1 && ids[0] == "all" {
		todo = All()
	} else {
		for _, id := range ids {
			e, ok := Lookup(id)
			if !ok {
				return fmt.Errorf("experiments: unknown id %q", id)
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		fmt.Fprintf(cfg.Out, "== %s: %s ==\n", e.ID, e.Title)
		fmt.Fprintf(cfg.Out, "paper: %s\n", e.PaperClaim)
		if err := e.Run(cfg); err != nil {
			return fmt.Errorf("experiments: %s: %w", e.ID, err)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}
