package experiments

import (
	"errors"
	"fmt"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/supernode"
	"ftnet/internal/sweep"
)

func init() {
	register(Experiment{
		ID:    "E2",
		Title: "B^2_n survival vs node-failure probability",
		PaperClaim: "Theorem 2: at p = log^-6(n) the n-torus survives with probability " +
			"1 - n^-Omega(log log n); survival must collapse only well above that threshold",
		Run: runE2,
	})
	register(Experiment{
		ID:         "E3",
		Title:      "Lemma 4 healthiness conditions under increasing p",
		PaperClaim: "Lemma 4: each of the three healthiness conditions fails with probability n^-Omega(log log n) at p = log^-6(n)",
		Run:        runE3,
	})
	register(Experiment{
		ID:         "E5",
		Title:      "A^2_n survival under constant node and edge failure probabilities",
		PaperClaim: "Theorem 1: constant p (and q) are survivable with probability 1 - n^-Omega(log log n)",
		Run:        runE5,
	})
	register(Experiment{
		ID:         "E6",
		Title:      "degree needed for >=95% survival: A^2_n vs FKP-style clusters",
		PaperClaim: "intro: FKP93 needs degree O(log N); Theorem 1 achieves O(log log N)",
		Run:        runE6,
	})
}

// e2Params is the standard survival-sweep instance: n=432, 280k nodes.
func e2Params() core.Params { return core.Params{D: 2, W: 6, Pitch: 18, Scale: 1} }

func runE2(cfg Config) error {
	p := e2Params()
	g, err := core.NewGraph(p)
	if err != nil {
		return err
	}
	pThm := p.TheoremFailureProb()
	multipliers := []float64{0.5, 1, 2, 5, 10, 25, 50, 100, 250}
	trials := cfg.trials(30, 150)
	if cfg.Quick {
		multipliers = []float64{1, 10, 50, 250}
	}
	rates := make([]float64, len(multipliers))
	for i, mult := range multipliers {
		rates[i] = pThm * mult
	}
	// The whole curve is one coupled sweep: every trial walks the rate
	// ladder on nested fault sets, so the nine rungs cost little more
	// than the most expensive one (see internal/sweep; Config.Independent
	// restores the legacy one-cell-per-rate evaluation).
	curve, err := sweep.SurvivalCurve(g, rates, trials, cfg.cellSeed("E2"), cfg.sweepConfig())
	if err != nil {
		return err
	}
	t := stats.NewTable(cfg.Out, "p", "p/p_thm", "trials", "survived", "rate", "95% CI")
	for i, rung := range curve.Rungs {
		res := rung.Result
		t.Row(fmt.Sprintf("%.2e", rung.Rate), fmt.Sprintf("%.1fx", multipliers[i]), res.Trials, res.Successes,
			fmt.Sprintf("%.3f", res.Rate), fmt.Sprintf("[%.2f,%.2f]", res.Lo, res.Hi))
		// Gate on the CI upper bound, not the point estimate: an
		// early-stopped cell (-ci) may hold few trials, and one unlucky
		// failure must not abort a run whose interval still admits the
		// claimed >= 0.99 survival.
		if multipliers[i] <= 1 && res.Hi < 0.99 {
			return fmt.Errorf("E2: survival %s excludes 0.99 at the theorem's own probability", res)
		}
	}
	fmt.Fprintf(cfg.Out, "n=%d, nodes=%d, p_thm=log^-6(n)=%.2e\n", p.N(), p.NumNodes(), pThm)
	return t.Flush()
}

// classify maps pipeline errors to Monte-Carlo outcomes: unhealthy fault
// patterns are survival failures; anything else is a bug.
func classify(err error) (stats.Outcome, error) {
	if err == nil {
		return stats.Success, nil
	}
	var ue *core.UnhealthyError
	if errors.As(err, &ue) {
		return stats.Failure, nil
	}
	return stats.Failure, err
}

func runE3(cfg Config) error {
	p := e2Params()
	g, err := core.NewGraph(p)
	if err != nil {
		return err
	}
	pThm := p.TheoremFailureProb()
	multipliers := []float64{1, 10, 50, 100, 250, 500}
	if cfg.Quick {
		multipliers = []float64{1, 50, 500}
	}
	trials := cfg.trials(25, 100)
	rates := make([]float64, len(multipliers))
	for i, mult := range multipliers {
		rates[i] = pThm * mult
	}
	// One coupled ladder cell: each trial walks all rates on nested fault
	// sets (previously a fresh serial Monte-Carlo loop per rate), and the
	// five diagnostics of a rate share its health check and placement.
	const slots = 5 // cond1 fail, cond2 fail, cond3 fail, healthy, placement ok
	type e3Scratch struct {
		sc    *core.Scratch
		added []int
	}
	outcome := func(b bool) stats.Outcome {
		if b {
			return stats.Success
		}
		return stats.Failure
	}
	rep, err := cfg.ladder(trials, len(rates)*slots, cfg.cellSeed("E3"),
		func() any { return &e3Scratch{sc: core.NewScratch(1)} },
		func(trial int, stream *rng.PCG, scratch any, stopped []bool, out []stats.Outcome) error {
			es := scratch.(*e3Scratch)
			faults := es.sc.Faults(g.NumNodes())
			prev := 0.0
			for r, rate := range rates {
				var err error
				es.added, err = faults.Extend(stream, prev, rate, es.added[:0])
				if err != nil {
					return err
				}
				prev = rate
				base := r * slots
				live := false
				for s := 0; s < slots; s++ {
					if !stopped[base+s] {
						live = true
						break
					}
				}
				if !live {
					continue
				}
				h := g.CheckHealth(faults)
				out[base+0] = outcome(!h.Cond1OK)
				out[base+1] = outcome(!h.Cond2OK)
				out[base+2] = outcome(!h.Cond3OK)
				out[base+3] = outcome(h.Healthy())
				placed := false
				_, _, placeErr := g.PlaceBandsScratch(faults, es.sc)
				if placeErr == nil {
					placed = true
				} else {
					var ue *core.UnhealthyError
					if !errors.As(placeErr, &ue) {
						return placeErr
					}
				}
				out[base+4] = outcome(placed)
			}
			return nil
		})
	if err != nil {
		return err
	}
	t := stats.NewTable(cfg.Out, "p/p_thm", "cond1 fail", "cond2 fail", "cond3 fail", "healthy", "placement ok")
	for i, mult := range multipliers {
		cells := make([]any, 0, slots+1)
		cells = append(cells, fmt.Sprintf("%.0fx", mult))
		for s := 0; s < slots; s++ {
			res := rep.Rungs[i*slots+s].Result
			cells = append(cells, fmt.Sprintf("%d/%d", res.Successes, res.Trials))
		}
		t.Row(cells...)
	}
	return t.Flush()
}

func e5Graph(q float64, h int) (*supernode.Graph, error) {
	return e6Graph(1, q, h)
}

// e6Graph builds A^2 over a base scaled by kappa: guest side 384*kappa.
func e6Graph(scale int, q float64, h int) (*supernode.Graph, error) {
	base := core.Params{D: 2, W: 4, Pitch: 16, Scale: scale}
	return supernode.NewGraph(supernode.Params{Base: base, K: 2, H: h, Q: q})
}

func runE5(cfg Config) error {
	trials := cfg.trials(10, 40)
	type scenario struct {
		p, q float64
		h    int
	}
	scenarios := []scenario{
		{0.05, 0, 10}, {0.10, 0, 10}, {0.20, 0, 16}, {0.30, 0, 24}, {0.10, 1e-6, 16},
	}
	if cfg.Quick {
		scenarios = []scenario{{0.10, 0, 10}, {0.30, 0, 24}}
	}
	graphs := make([]*supernode.Graph, len(scenarios))
	for i, sc := range scenarios {
		g, err := e5Graph(sc.q, sc.h)
		if err != nil {
			return err
		}
		graphs[i] = g
	}
	// All scenarios share one vector cell: a trial evaluates every
	// scenario under common random numbers (one per-trial key, one
	// substream per scenario, so a scenario early-stopping never perturbs
	// the others' draws), and each scenario keeps its own Wilson stop.
	rep, err := cfg.ladder(trials, len(scenarios), cfg.cellSeed("E5"), nil,
		func(trial int, stream *rng.PCG, _ any, stopped []bool, out []stats.Outcome) error {
			tkey := stream.Uint64()
			for i, sc := range scenarios {
				if stopped[i] {
					continue
				}
				sub := rng.NewPCG(tkey, uint64(i))
				fs := graphs[i].NewFaultState(sub.Uint64(), sc.p, sub)
				_, _, err := graphs[i].Embed(fs)
				if err != nil {
					var ue *core.UnhealthyError
					if !errors.As(err, &ue) {
						return err
					}
					out[i] = stats.Failure
					continue
				}
				out[i] = stats.Success
			}
			return nil
		})
	if err != nil {
		return err
	}
	t := stats.NewTable(cfg.Out, "p", "q", "h", "degree", "n", "trials", "survived", "rate")
	for i, sc := range scenarios {
		res := rep.Rungs[i].Result
		t.Row(sc.p, sc.q, sc.h, graphs[i].P.Degree(), graphs[i].P.Side(), res.Trials, res.Successes,
			fmt.Sprintf("%.2f", res.Rate))
	}
	return t.Flush()
}
func runE6(cfg Config) error {
	// For a sweep of guest sides, find the smallest supernode size h
	// (ours) and cluster size g (FKP style) reaching >= 95% survival at
	// p = 0.2, then compare the degrees and their growth.
	const pNode = 0.2
	scales := []int{1, 2}
	if !cfg.Quick {
		scales = []int{1, 2, 4}
	}

	findOursH := func(scale, trials int) (int, int, error) {
		for h := 5; h <= 40; h++ {
			g, err := e6Graph(scale, 0, h)
			if err != nil {
				continue
			}
			res, err := cfg.monteCarlo(trials, cfg.cellSeed("E6", 0, uint64(scale), uint64(h)), nil,
				func(trial int, stream *rng.PCG, _ any) (stats.Outcome, error) {
					fs := g.NewFaultState(stream.Uint64(), pNode, stream)
					_, _, err := g.Embed(fs)
					return classify(err)
				})
			if err != nil {
				return 0, 0, err
			}
			if res.Rate >= 0.95 {
				return h, g.P.Degree(), nil
			}
		}
		return 0, 0, fmt.Errorf("E6: no h <= 40 reaches 95%%")
	}

	findClusterG := func(side, trials int) (int, int, error) {
		for g := 2; g <= 40; g++ {
			ct, err := newCluster(side, g)
			if err != nil {
				return 0, 0, err
			}
			res, err := cfg.monteCarlo(trials, cfg.cellSeed("E6", 1, uint64(side), uint64(g)), nil,
				func(trial int, stream *rng.PCG, _ any) (stats.Outcome, error) {
					faults := fault.NewSet(ct.NumNodes())
					faults.Bernoulli(stream, pNode)
					if _, err := ct.Embed(faults, nil); err != nil {
						return stats.Failure, nil
					}
					return stats.Success, nil
				})
			if err != nil {
				return 0, 0, err
			}
			if res.Rate >= 0.95 {
				return g, ct.Degree(), nil
			}
		}
		return 0, 0, fmt.Errorf("E6: no cluster size <= 40 reaches 95%%")
	}

	t := stats.NewTable(cfg.Out, "side n", "ours h", "ours degree", "cluster g", "cluster degree")
	for _, scale := range scales {
		side := 384 * scale
		trials := cfg.trials(8, 20)
		if scale >= 4 {
			trials = cfg.trials(5, 10)
		}
		hOurs, degOurs, err := findOursH(scale, trials)
		if err != nil {
			return err
		}
		gBase, degBase, err := findClusterG(side, trials)
		if err != nil {
			return err
		}
		t.Row(side, hOurs, degOurs, gBase, degBase)
	}
	fmt.Fprintf(cfg.Out, "p=%.2f; the cluster size g tracks log(n) (theory: g >= 2*ln(n)/ln(1/p))\n"+
		"while ours stays pinned near h = Theta(k^2), k^2=4 — the paper's O(log N) vs O(log log N) gap.\n"+
		"Ours pays a larger constant (11h vs (2d+1)g per node), which dominates at these small sides.\n", pNode)
	return t.Flush()
}
