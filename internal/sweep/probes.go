package sweep

import (
	"fmt"
	"math"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
)

// Probes evaluates survival at arbitrary fault rates or fault counts with
// the same coupled trial streams across every probe, for threshold
// searches (bisection, doubling brackets).
//
// Rate coupling uses the canonical monotone construction F_t(p) =
// {i : U_i < p}: each trial t lazily materializes its stakes — the nodes
// with U_i below a cap — and a probe at rate p reads off the stakes with
// U_i < p. Caps only move along the fixed doubling grid base·2^j, so a
// trial's stakes below any probed rate are a pure function of (seed, t,
// p) no matter which probes ran before, in which order, or on which
// worker — speculative shard execution beyond an early-stop commit point
// cannot perturb later probes.
//
// Count coupling uses a per-trial uniform random injection order: F_t(k)
// is the first k nodes of the order, extended on demand; prefixes never
// reorder, so the same stability argument applies with no grid.
//
// A Probes value may be used by one probe evaluation at a time (the
// engine inside each Rate/Count call is parallel; the calls themselves
// are sequential).
type Probes struct {
	g      *core.Graph
	trials int
	seed   uint64
	cfg    Config
	base   float64 // rate cap grid: base * 2^j

	rate  []rateStakes
	count []countPicks
}

type rateStakes struct {
	pcg    *rng.PCG
	staked *fault.Set // nodes with a stake below cap
	u      []float64  // stake values, parallel to idx
	idx    []int32
	cap    float64
}

type countPicks struct {
	pcg    *rng.PCG
	picked *fault.Set
	order  []int32
}

// NewProbes builds a probe evaluator for g with the given per-probe trial
// budget. gridBase anchors the rate-cap doubling grid; pass the smallest
// rate the search may probe (e.g. the theorem probability for A4's
// bracket). cfg.Independent re-samples every probe from scratch instead
// (the ablation mode); cfg.TargetCI stops each probe's trial loop early.
func NewProbes(g *core.Graph, trials int, seed uint64, gridBase float64, cfg Config) (*Probes, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sweep: probes need a positive trial budget")
	}
	if gridBase <= 0 {
		return nil, fmt.Errorf("sweep: probe grid base must be positive")
	}
	return &Probes{g: g, trials: trials, seed: seed, cfg: cfg, base: gridBase}, nil
}

// engineOpts builds the per-probe parallel options.
func (ps *Probes) engineOpts() parallel.Options {
	return parallel.Options{
		Workers:    ps.cfg.Workers,
		ShardSize:  ps.cfg.ShardSize,
		TargetCI:   ps.cfg.TargetCI,
		NewScratch: func() any { return core.NewScratch(1) },
	}
}

func (ps *Probes) pipelineOpts(sc *core.Scratch) core.ExtractOptions {
	return core.ExtractOptions{Scratch: sc, Dense: ps.cfg.Dense}
}

// Rate measures survival at node-failure probability p over the coupled
// trial set.
func (ps *Probes) Rate(p float64) (stats.Result, error) {
	if p < 0 || p > 1 {
		return stats.Result{}, fmt.Errorf("sweep: probe rate %g out of range", p)
	}
	g := ps.g
	if ps.cfg.Independent {
		rep, err := parallel.Run(ps.trials, rng.Hash64(ps.seed, math.Float64bits(p)), ps.engineOpts(),
			func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
				sc := scratch.(*core.Scratch)
				faults := sc.Faults(g.NumNodes())
				faults.Bernoulli(stream, p)
				_, err := g.ContainTorus(faults, ps.pipelineOpts(sc))
				return classify(err)
			})
		return rep.Result, err
	}
	if ps.rate == nil {
		ps.rate = make([]rateStakes, ps.trials)
	}
	rep, err := parallel.Run(ps.trials, ps.seed, ps.engineOpts(),
		func(t int, _ *rng.PCG, scratch any) (stats.Outcome, error) {
			sc := scratch.(*core.Scratch)
			rs := &ps.rate[t]
			if rs.pcg == nil {
				// One private stream per trial, persisting across probes;
				// keyed off the engine seed but offset so it never collides
				// with the engine's own (seed, t) streams.
				rs.pcg = rng.NewPCG(ps.seed, rng.Hash64(uint64(t), 0x9be5))
				rs.staked = fault.NewSet(g.NumNodes())
				rs.cap = 0
			}
			if err := rs.extendTo(ps.base, p); err != nil {
				return stats.Failure, err
			}
			faults := sc.Faults(g.NumNodes())
			for i, u := range rs.u {
				if u < p {
					faults.Add(int(rs.idx[i]))
				}
			}
			_, err := g.ContainTorus(faults, ps.pipelineOpts(sc))
			return classify(err)
		})
	return rep.Result, err
}

// extendTo raises the stake cap to the smallest grid point >= p, stepping
// grid point to grid point so the stakes below any rate are independent
// of the probe sequence.
func (rs *rateStakes) extendTo(base, p float64) error {
	for rs.cap < p {
		next := base
		for next <= rs.cap {
			next *= 2
		}
		if next > 1 {
			next = 1
		}
		// Healthy nodes join (cap, next] with the conditional probability;
		// each new stake then draws its position within the slice. Two
		// passes (collect, then place) keep the stream usage a pure
		// function of the cap sequence.
		added, err := rs.staked.Extend(rs.pcg, rs.cap, next, nil)
		if err != nil {
			return err
		}
		for _, i := range added {
			rs.idx = append(rs.idx, int32(i))
			rs.u = append(rs.u, rs.cap+(next-rs.cap)*rs.pcg.Float64())
		}
		rs.cap = next
	}
	return nil
}

// Count measures survival with exactly k uniformly random faults over the
// coupled trial set.
func (ps *Probes) Count(k int) (stats.Result, error) {
	g := ps.g
	if k < 0 || k > g.NumNodes() {
		return stats.Result{}, fmt.Errorf("sweep: probe count %d out of range", k)
	}
	if ps.cfg.Independent {
		rep, err := parallel.Run(ps.trials, rng.Hash64(ps.seed, uint64(k)), ps.engineOpts(),
			func(t int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
				sc := scratch.(*core.Scratch)
				faults := sc.Faults(g.NumNodes())
				if err := faults.ExactRandom(stream, k); err != nil {
					return stats.Failure, err
				}
				_, err := g.ContainTorus(faults, ps.pipelineOpts(sc))
				return classify(err)
			})
		return rep.Result, err
	}
	if ps.count == nil {
		ps.count = make([]countPicks, ps.trials)
	}
	rep, err := parallel.Run(ps.trials, ps.seed, ps.engineOpts(),
		func(t int, _ *rng.PCG, scratch any) (stats.Outcome, error) {
			sc := scratch.(*core.Scratch)
			cp := &ps.count[t]
			if cp.pcg == nil {
				cp.pcg = rng.NewPCG(ps.seed, rng.Hash64(uint64(t), 0x51ab))
				cp.picked = fault.NewSet(g.NumNodes())
			}
			for len(cp.order) < k {
				i := cp.pcg.Intn(g.NumNodes())
				if !cp.picked.Has(i) {
					cp.picked.Add(i)
					cp.order = append(cp.order, int32(i))
				}
			}
			faults := sc.Faults(g.NumNodes())
			for _, i := range cp.order[:k] {
				faults.Add(int(i))
			}
			_, err := g.ContainTorus(faults, ps.pipelineOpts(sc))
			return classify(err)
		})
	return rep.Result, err
}
