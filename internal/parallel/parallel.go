// Package parallel is the Monte-Carlo trial engine for the experiment
// suite. One private scheduler executes every run; its three entry
// points differ only in how a finished shard folds into the running
// totals and when those totals decide the run:
//
//   - Run: survival counts, stopping on the 95% Wilson interval width
//     (a one-rung RunLadder);
//   - RunLadder: one count per rung of a coupled rate ladder, each rung
//     stopping on its own Wilson interval;
//   - RunLifetime: real-valued metric vectors, stopping when every
//     nonzero-mean component reaches a relative precision.
//
// Determinism. The trial space is split into fixed-size shards that are
// dispatched to workers in index order. Every trial t draws randomness
// only from its private PCG stream keyed by (root seed, t)
// (rng.NewPCG), and shards are folded in index order along a commit
// frontier, so every reported number — including the early-stopping
// decision and floating-point rounding — is bit-identical for every
// worker count and GOMAXPROCS setting. The TestParallelDeterminism*
// tests pin this contract.
//
// Bounded memory. Each worker owns one scratch value created by
// Options.NewScratch and hands it to every trial it runs, so per-trial
// allocations (fault bitsets, band/extraction buffers via core.Scratch)
// are paid once per worker, not once per trial.
//
// Early stopping. When Options.TargetCI is set, the run commits the
// shortest shard prefix on which its stopping rule holds (once four
// shards' worth of trials are in). The stopping point is a pure
// function of outcomes in shard order, so it too is worker-count
// independent; shards that finished beyond the committed prefix are
// discarded.
//
// Errors. A failed trial stops dispatch. The run returns the error of
// the smallest failing trial index the frontier reaches before the
// stopping rule decides; failures beyond that point are discarded, as a
// serial run would never have executed those trials.
package parallel

import (
	"fmt"
	"runtime"
	"sync"

	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// Trial runs one Monte-Carlo trial. t is the global trial index and
// stream is the trial's private random stream, a pure function of the
// engine's root seed and t — draw all randomness from it. scratch is
// the executing worker's scratch value (nil unless Options.NewScratch
// is set); it is never shared between concurrently running trials, so
// buffers inside it can be reused freely. A non-nil error from a trial
// in the committed prefix aborts the whole run: errors mean bugs, not
// survival failures. Errors from trials beyond an early-stop commit
// point are discarded by design — a serial run would never have
// executed those trials, and reporting them would make the outcome
// depend on the worker count.
type Trial func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error)

// Options tunes an engine run. The zero value runs all trials on
// GOMAXPROCS workers with no scratch and no early stopping.
type Options struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of consecutive trials a worker claims at
	// once; 0 picks DefaultShardSize, doubled as needed so the shard
	// table stays bounded (maxAutoShards) for huge trial budgets — a
	// deterministic function of the trial count. Results are independent
	// of the shard size only in the no-early-stop case: TargetCI commits
	// whole shards, so changing ShardSize can move the stopping point
	// (it never affects which stream trial t sees).
	ShardSize int
	// NewScratch, if set, is called once per worker to build its
	// scratch value.
	NewScratch func() any
	// TargetCI, if positive, stops the run once the 95% Wilson interval
	// over the committed prefix is narrower than this width.
	TargetCI float64
}

// DefaultShardSize is the trials-per-shard granularity when
// Options.ShardSize is 0: small enough to load-balance trial counts in
// the tens, large enough that shard bookkeeping is noise.
const DefaultShardSize = 8

// maxAutoShards caps the shard table when the engine picks the shard
// size itself, so a huge trial budget (the natural pattern with
// TargetCI: "ask for millions, stop when tight") costs megabytes of
// bookkeeping, not gigabytes. Explicit Options.ShardSize is honored
// as given.
const maxAutoShards = 1 << 16

// Report is the outcome of a Run: the aggregated statistics plus how
// the engine got them.
type Report struct {
	stats.Result
	// Requested is the trial count passed to Run; Result.Trials can be
	// smaller when early stopping triggered.
	Requested int
	// Workers is the worker count actually used.
	Workers int
	// Shards is the number of committed shards.
	Shards int
	// EarlyStopped reports whether TargetCI cut the run short.
	EarlyStopped bool
}

// Run executes trials 0..trials-1 and aggregates their outcomes, as a
// one-rung RunLadder. See the package comment for the determinism and
// error contract.
func Run(trials int, rootSeed uint64, opts Options, fn Trial) (Report, error) {
	// A single rung is never advertised as stopped: its commit decides
	// the run, so no shard is claimed after it.
	rep, err := RunLadder(trials, 1, rootSeed, opts, func(t int, stream *rng.PCG, scratch any, _ []bool, out []stats.Outcome) (err error) {
		out[0], err = fn(t, stream, scratch)
		return err
	})
	if err != nil {
		return Report{}, err
	}
	rung := rep.Rungs[0]
	return Report{
		Result:       rung.Result,
		Requested:    rep.Requested,
		Workers:      rep.Workers,
		Shards:       rung.Shards,
		EarlyStopped: rung.EarlyStopped,
	}, nil
}

// plan is one run's shard geometry and option defaults, fixed before
// any trial runs.
type plan struct {
	seed       uint64
	trials     int
	shardSize  int
	shards     int
	workers    int
	minTrials  int // committed trials before early stopping may trigger
	newScratch func() any
}

func newPlan(trials int, seed uint64, opts Options) plan {
	p := plan{seed: seed, trials: trials, shardSize: opts.ShardSize, workers: opts.Workers,
		newScratch: opts.NewScratch}
	if p.shardSize <= 0 {
		p.shardSize = DefaultShardSize
		for (trials+p.shardSize-1)/p.shardSize > maxAutoShards {
			p.shardSize *= 2
		}
	}
	p.shards = (trials + p.shardSize - 1) / p.shardSize
	if p.workers <= 0 {
		p.workers = runtime.GOMAXPROCS(0)
	}
	p.workers = min(p.workers, p.shards)
	p.minTrials = 4 * p.shardSize
	return p
}

// shardState is one shard's completion, written once by the worker
// that ran it and read by the commit frontier.
type shardState struct {
	done bool
	err  error
}

// schedule runs the plan's shards on p.workers goroutines, each with
// one NewScratch value, and folds them in index order.
//
//   - claim, if set, runs under the lock when worker w claims a shard,
//     before its trials start.
//   - trial runs trial t of shard s on worker w. It records the outcome
//     in per-run storage owned by shard s, which fold may read once the
//     shard is done.
//   - fold runs under the lock for each error-free shard in index order
//     and reports whether the run is decided; nothing is dispatched or
//     folded after that.
//
// It returns the folded shard count and the error of the first failed
// shard the frontier reached undecided. A failure stops dispatch at
// once; every earlier shard was already claimed, so the frontier still
// reaches the failure or a decision before it.
func (p plan) schedule(claim func(w int), trial func(w, s, t int, stream *rng.PCG, scratch any) error, fold func(s int) bool) (int, error) {
	shards := make([]shardState, p.shards)
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int  // next shard to dispatch
		frontier int  // first shard not yet folded
		stop     bool // no further dispatch
		decided  bool // no further folding
		fatal    error
	)
	for w := 0; w < p.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch any
			if p.newScratch != nil {
				scratch = p.newScratch()
			}
			for {
				mu.Lock()
				if stop || next >= p.shards {
					mu.Unlock()
					return
				}
				s := next
				next++
				if claim != nil {
					claim(w)
				}
				mu.Unlock()

				var err error
				for t, hi := s*p.shardSize, min((s+1)*p.shardSize, p.trials); t < hi; t++ {
					if err = trial(w, s, t, rng.NewPCG(p.seed, uint64(t)), scratch); err != nil {
						err = fmt.Errorf("trial %d: %w", t, err)
						break
					}
				}

				mu.Lock()
				shards[s] = shardState{done: true, err: err}
				if err != nil {
					stop = true
				}
				for !decided && frontier < p.shards && shards[frontier].done {
					if fatal = shards[frontier].err; fatal != nil {
						decided, stop = true, true
						break
					}
					frontier++
					if fold(frontier - 1) {
						decided, stop = true, true
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return frontier, fatal
}
