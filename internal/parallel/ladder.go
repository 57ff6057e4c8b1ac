package parallel

import (
	"fmt"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// LadderTrial runs one Monte-Carlo trial across all k rungs of a ladder,
// writing one outcome per rung into out (len(out) == k). t, stream and
// scratch follow the Trial contract. stopped[r] reports whether rung r's
// result is already committed (its Wilson interval met the target over an
// earlier shard prefix): the trial MAY skip the work for such a rung —
// its out entry is discarded — but everything it does for later rungs
// must be bit-identical whether or not earlier rungs were evaluated.
// Coupled sweep trials satisfy this by drawing all randomness during
// rung-independent sampling and keeping each rung's evaluation a pure
// function of the sampled state (core.Session's equivalence contract).
type LadderTrial func(t int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error

// RungReport is one rung's aggregated result.
type RungReport struct {
	stats.Result
	// Shards is the number of shards committed for this rung.
	Shards int
	// EarlyStopped reports whether TargetCI cut this rung short.
	EarlyStopped bool
}

// LadderReport aggregates a RunLadder execution.
type LadderReport struct {
	Rungs []RungReport
	// Requested is the trial count passed to RunLadder.
	Requested int
	// Workers is the worker count actually used.
	Workers int
}

// RunLadder executes trials 0..trials-1, each evaluating all k rungs, and
// aggregates per-rung outcomes. Each rung's committed prefix is the
// shortest shard prefix whose 95% Wilson interval is narrower than
// opts.TargetCI (once opts.MinTrials trials are in). Rungs that have
// stopped are advertised to later-claimed shards via the stopped
// snapshot, so a coupled sweep trial can skip their pipeline work;
// outcomes reported for stopped rungs are discarded. The run ends when
// every rung has stopped or the trial budget is exhausted.
func RunLadder(trials, k int, rootSeed uint64, opts Options, fn LadderTrial) (LadderReport, error) {
	if trials <= 0 || k <= 0 {
		return LadderReport{}, fmt.Errorf("parallel: trials = %d, rungs = %d", trials, k)
	}
	p := newPlan(trials, rootSeed, opts)
	var (
		hints   = make([]bool, p.workers*k)          // per worker: the claimed shard's stopped snapshot
		outs    = make([]stats.Outcome, p.workers*k) // per worker: the running trial's outcomes
		succ    = make([]int, p.shards*k)            // per shard and rung: successes
		ran     = make([]int, p.shards*k)            // per shard and rung: evaluated trials
		sumSucc = make([]int, k)                     // per rung: committed successes
		sumRan  = make([]int, k)                     // per rung: committed trials
		commit  = make([]int, k)                     // per rung: committed shard count; -1 = open
		open    = k
	)
	for r := range commit {
		commit[r] = -1
	}
	claim := func(w int) {
		for r, c := range commit {
			hints[w*k+r] = c >= 0
		}
	}
	trial := func(w, s, t int, stream *rng.PCG, scratch any) error {
		stopped, out := hints[w*k:(w+1)*k], outs[w*k:(w+1)*k]
		if err := fn(t, stream, scratch, stopped, out); err != nil {
			return err
		}
		for r, o := range out {
			if !stopped[r] {
				ran[s*k+r]++
				if o == stats.Success {
					succ[s*k+r]++
				}
			}
		}
		return nil
	}
	fold := func(s int) bool {
		for r, c := range commit {
			if c >= 0 {
				continue
			}
			sumSucc[r] += succ[s*k+r]
			sumRan[r] += ran[s*k+r]
			if opts.TargetCI > 0 && sumRan[r] >= p.minTrials &&
				stats.NewResult(sumSucc[r], sumRan[r]).Width() <= opts.TargetCI {
				commit[r] = s + 1
				open--
			}
		}
		return open == 0
	}
	folded, err := p.schedule(claim, trial, fold)
	if err != nil {
		return LadderReport{}, err
	}
	rep := LadderReport{Rungs: make([]RungReport, k), Requested: trials, Workers: p.workers}
	for r, c := range commit {
		rung := RungReport{Result: stats.NewResult(sumSucc[r], sumRan[r]), Shards: folded}
		if c >= 0 {
			rung.Shards, rung.EarlyStopped = c, c < p.shards
		}
		rep.Rungs[r] = rung
	}
	return rep, nil
}
