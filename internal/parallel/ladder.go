package parallel

import (
	"fmt"
	"runtime"
	"sync"

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

// ladderShard is one shard's per-rung outcome tallies.
type ladderShard struct {
	successes []int
	trials    []int
	err       error
	done      bool
}

// RunLadder executes trials 0..trials-1, each evaluating all k rungs, and
// aggregates per-rung outcomes. It extends Run's determinism contract to
// vectors: shards are dispatched in index order, trial t draws only from
// its private (rootSeed, t) PCG stream, and each rung's committed prefix
// is the shortest shard prefix whose 95% Wilson interval is narrower than
// opts.TargetCI (once opts.MinTrials trials are in) — a pure function of
// outcomes in shard order, hence bit-identical for every worker count.
// Rungs that have stopped are advertised to later-dispatched trials via
// the stopped snapshot, so a coupled sweep trial can skip their pipeline
// work; outcomes reported for stopped rungs are discarded. The run ends
// when every rung has stopped or the trial budget is exhausted.
func RunLadder(trials, k int, rootSeed uint64, opts Options, fn LadderTrial) (LadderReport, error) {
	if trials <= 0 || k <= 0 {
		return LadderReport{}, fmt.Errorf("parallel: trials = %d, rungs = %d", trials, k)
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
		for (trials+shardSize-1)/shardSize > maxAutoShards {
			shardSize *= 2
		}
	}
	numShards := (trials + shardSize - 1) / shardSize
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numShards {
		workers = numShards
	}
	minTrials := opts.MinTrials
	if minTrials <= 0 {
		minTrials = 4 * shardSize
	}

	shards := make([]ladderShard, numShards)
	commit := make([]int, k) // per-rung committed shard count; -1 = run to the end
	for r := range commit {
		commit[r] = -1
	}
	var (
		mu           sync.Mutex
		nextShard    int
		frontier     int
		prefixSucc   = make([]int, k)
		prefixTrials = make([]int, k)
		open         = k // rungs without a commit decision
		stopDispatch bool
		fatal        error
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch any
			if opts.NewScratch != nil {
				scratch = opts.NewScratch()
			}
			stopped := make([]bool, k)
			out := make([]stats.Outcome, k)
			for {
				mu.Lock()
				if stopDispatch || nextShard >= numShards {
					mu.Unlock()
					return
				}
				s := nextShard
				nextShard++
				// Snapshot the per-rung stop state for this shard: purely a
				// cost hint, never part of the committed result.
				for r := range stopped {
					stopped[r] = commit[r] >= 0
				}
				mu.Unlock()

				lo := s * shardSize
				hi := lo + shardSize
				if hi > trials {
					hi = trials
				}
				st := ladderShard{successes: make([]int, k), trials: make([]int, k)}
				for t := lo; t < hi; t++ {
					if err := fn(t, rng.NewPCG(rootSeed, uint64(t)), scratch, stopped, out); err != nil {
						st.err = fmt.Errorf("trial %d: %w", t, err)
						break
					}
					for r := 0; r < k; r++ {
						if stopped[r] {
							continue
						}
						st.trials[r]++
						if out[r] == stats.Success {
							st.successes[r]++
						}
					}
				}
				st.done = true

				mu.Lock()
				shards[s] = st
				if st.err != nil {
					stopDispatch = true
				}
				for frontier < numShards && shards[frontier].done && open > 0 && fatal == nil {
					if err := shards[frontier].err; err != nil {
						// The erroring shard would have contributed to every
						// still-open rung; abort the run with it.
						fatal = err
						stopDispatch = true
						break
					}
					for r := 0; r < k; r++ {
						if commit[r] >= 0 {
							continue
						}
						prefixSucc[r] += shards[frontier].successes[r]
						prefixTrials[r] += shards[frontier].trials[r]
					}
					frontier++
					if opts.TargetCI > 0 {
						for r := 0; r < k; r++ {
							if commit[r] >= 0 || prefixTrials[r] < minTrials {
								continue
							}
							if stats.NewResult(prefixSucc[r], prefixTrials[r]).Width() <= opts.TargetCI {
								commit[r] = frontier
								open--
							}
						}
						if open == 0 {
							stopDispatch = true
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if fatal != nil {
		return LadderReport{}, fatal
	}
	rep := LadderReport{Rungs: make([]RungReport, k), Requested: trials, Workers: workers}
	for r := 0; r < k; r++ {
		committed := commit[r]
		early := committed >= 0 && committed < numShards
		if committed < 0 {
			committed = frontier // all error-free done shards, == numShards here
		}
		if committed != frontier && !early {
			return LadderReport{}, fmt.Errorf("parallel: internal: rung %d committed %d of %d shards", r, committed, numShards)
		}
		var succ, ran int
		for s := 0; s < committed; s++ {
			if !shards[s].done {
				return LadderReport{}, fmt.Errorf("parallel: internal: shard %d not run", s)
			}
			succ += shards[s].successes[r]
			ran += shards[s].trials[r]
		}
		rep.Rungs[r] = RungReport{Result: stats.NewResult(succ, ran), Shards: committed, EarlyStopped: early}
	}
	return rep, nil
}
