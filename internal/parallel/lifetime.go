package parallel

import (
	"fmt"
	"math"

	"ftnet/internal/rng"
)

// LifetimeTrial runs one Monte-Carlo trial with a vector-valued outcome,
// writing one real metric per component into out (len(out) == dims,
// zeroed before every trial). t, stream and scratch follow the Trial
// contract. Unlike LadderTrial's per-rung successes, the components are
// arbitrary reals — lifetimes, fault counts at death, availability
// fractions — which is what the churn workloads produce.
type LifetimeTrial func(t int, stream *rng.PCG, scratch any, out []float64) error

// LifetimeReport aggregates a RunLifetime execution: per-component mean
// and standard error over the committed trial prefix.
type LifetimeReport struct {
	// Trials is the number of committed trials.
	Trials int
	// Requested is the trial count passed to RunLifetime.
	Requested int
	// Workers is the worker count actually used.
	Workers int
	// Shards is the number of committed shards.
	Shards int
	// EarlyStopped reports whether TargetCI cut the run short.
	EarlyStopped bool
	// Mean[c] is the sample mean of component c over the committed trials.
	Mean []float64
	// StdErr[c] is the standard error of Mean[c] (sample std / sqrt(n));
	// 0 when fewer than two trials committed.
	StdErr []float64
}

// RunLifetime executes trials 0..trials-1, each producing a dims-vector
// of real metrics, and aggregates per-component means and standard
// errors. Each shard's sums are folded in shard order, so the
// floating-point rounding is as worker-count independent as the rest of
// the report.
//
// When opts.TargetCI is positive the run stops at the shortest shard
// prefix (of at least opts.MinTrials trials) on which EVERY component
// with a nonzero mean has relative 95% precision TargetCI:
// 1.96·stderr <= TargetCI·|mean|. Requiring all components prevents a
// degenerate metric from stopping the run — in a no-death churn regime
// the death time is constantly the horizon (stderr 0), and keying on it
// alone would commit the minimum trial count with the availability
// still unresolved. Zero-mean components are exempt (their relative
// precision is undefined; an all-zero metric is already exact).
func RunLifetime(trials, dims int, rootSeed uint64, opts Options, fn LifetimeTrial) (LifetimeReport, error) {
	if trials <= 0 || dims <= 0 {
		return LifetimeReport{}, fmt.Errorf("parallel: trials = %d, dims = %d", trials, dims)
	}
	p := newPlan(trials, rootSeed, opts)
	var (
		outs   = make([]float64, p.workers*dims) // per worker: the running trial's outcome
		sums   = make([]float64, p.shards*dims)  // per shard and component: sum
		sumSqs = make([]float64, p.shards*dims)  // per shard and component: sum of squares
		ran    = make([]int, p.shards)           // per shard: trials
		sum    = make([]float64, dims)           // per component: committed sum
		sumSq  = make([]float64, dims)           // per component: committed sum of squares
		n      int                               // committed trials
	)
	trial := func(w, s, t int, stream *rng.PCG, scratch any) error {
		out := outs[w*dims : (w+1)*dims]
		clear(out)
		if err := fn(t, stream, scratch, out); err != nil {
			return err
		}
		ran[s]++
		for c, v := range out {
			sums[s*dims+c] += v
			sumSqs[s*dims+c] += v * v
		}
		return nil
	}
	fold := func(s int) bool {
		n += ran[s]
		for c := range sum {
			sum[c] += sums[s*dims+c]
			sumSq[c] += sumSqs[s*dims+c]
		}
		if opts.TargetCI <= 0 || n < p.minTrials {
			return false
		}
		for c := range sum {
			mean, se := meanStdErr(sum[c], sumSq[c], n)
			if mean != 0 && 1.96*se > opts.TargetCI*math.Abs(mean) {
				return false
			}
		}
		return true
	}
	folded, err := p.schedule(nil, trial, fold)
	if err != nil {
		return LifetimeReport{}, err
	}
	rep := LifetimeReport{
		Trials:       n,
		Requested:    trials,
		Workers:      p.workers,
		Shards:       folded,
		EarlyStopped: folded < p.shards,
		Mean:         make([]float64, dims),
		StdErr:       make([]float64, dims),
	}
	for c := range sum {
		rep.Mean[c], rep.StdErr[c] = meanStdErr(sum[c], sumSq[c], n)
	}
	return rep, nil
}

// meanStdErr derives (mean, standard error of the mean) from running
// sums. The variance clamp absorbs the tiny negative residues of
// catastrophic cancellation when all samples are (near-)identical.
func meanStdErr(sum, sumSq float64, n int) (mean, se float64) {
	if n == 0 {
		return 0, 0
	}
	mean = sum / float64(n)
	if n < 2 {
		return mean, 0
	}
	variance := (sumSq - sum*sum/float64(n)) / float64(n-1)
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance / float64(n))
}
