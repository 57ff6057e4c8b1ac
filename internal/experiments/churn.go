package experiments

import (
	"fmt"

	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E16",
		Title: "B^2_n lifetime under fault churn: mean faults and time to death",
		PaperClaim: "beyond the paper (dynamic extension): Theorem 2 tolerates random static faults at " +
			"p = log^-6 n; under continuous per-node fault arrivals the mean fault count at the first " +
			"unembeddable state must exceed the theorem's expected static load, and the death time must " +
			"scale as 1/rate while the death size stays rate-invariant",
		Run: runE16,
	})
	register(Experiment{
		ID:    "E17",
		Title: "steady-state availability vs repair rate under fault churn",
		PaperClaim: "beyond the paper (dynamic extension): with per-node failure rate lambda and per-fault " +
			"repair rate rho, the stationary faulty fraction is lambda/(lambda+rho); availability must " +
			"climb from collapse to ~1 as rho crosses the rate that pins that fraction at the " +
			"Theorem 2 threshold",
		Run: runE17,
	})
}

// churnParams is the churn-experiment instance: smaller than the E2 host
// (n=192, 49k nodes) because every churn event re-enters the pipeline.
func churnParams() core.Params { return core.Params{D: 2, W: 4, Pitch: 16, Scale: 1} }

func runE16(cfg Config) error {
	g, err := core.NewGraph(churnParams())
	if err != nil {
		return err
	}
	pThm := g.P.TheoremFailureProb()
	thmLoad := pThm * float64(g.NumNodes())
	fmt.Fprintf(cfg.Out, "host: %d nodes, theorem static load E|F| = %.1f faults\n", g.NumNodes(), thmLoad)

	mults := []float64{1, 4, 16}
	if cfg.Quick {
		mults = []float64{4, 16}
	}
	trials := cfg.trials(4, 16)
	t := stats.NewTable(cfg.Out, "lambda/p_thm", "trials", "death rate", "mean t_death", "se", "mean |F|_death", "events/trial")
	var firstDeathFaults float64
	for i, mult := range mults {
		lambda := pThm * mult
		res, err := churn.Simulate(g, churn.Process{Arrival: lambda}, trials, cfg.cellSeed("E16", uint64(i)), churn.Options{
			Workers:     cfg.Parallel,
			TargetCI:    cfg.TargetCI,
			Horizon:     1e9, // pure aging always dies; StopAtDeath ends the trial there
			StopAtDeath: true,
		})
		if err != nil {
			return err
		}
		dt, se := res.MeanDeathTime()
		t.Row(fmt.Sprintf("%.0fx", mult), res.Trials, fmt.Sprintf("%.2f", res.DeathRate()),
			fmt.Sprintf("%.1f", dt), fmt.Sprintf("%.1f", se),
			fmt.Sprintf("%.0f", res.MeanDeathFaults()), fmt.Sprintf("%.0f", res.Mean[churn.MetricEvents]))
		if res.DeathRate() != 1 {
			return fmt.Errorf("E16: pure aging left %.0f%% of trials alive", 100*(1-res.DeathRate()))
		}
		if res.MeanDeathFaults() < thmLoad {
			return fmt.Errorf("E16: mean death size %.0f below the theorem's static load %.1f",
				res.MeanDeathFaults(), thmLoad)
		}
		if i == 0 {
			firstDeathFaults = res.MeanDeathFaults()
		} else if ratio := res.MeanDeathFaults() / firstDeathFaults; ratio < 0.5 || ratio > 2 {
			return fmt.Errorf("E16: death size not rate-invariant (%.0f vs %.0f)", res.MeanDeathFaults(), firstDeathFaults)
		}
	}
	if err := t.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "death size is rate-invariant; death time scales ~1/lambda (columns above)")
	return nil
}

func runE17(cfg Config) error {
	g, err := core.NewGraph(churnParams())
	if err != nil {
		return err
	}
	pThm := g.P.TheoremFailureProb()
	// Per-node failure rate pinned well above the static threshold: with
	// no repair this host collapses (E16); repair must rescue it once
	// lambda/(lambda+rho) drops to the tolerated regime.
	lambda := 40 * pThm
	rhos := []float64{0.05, 0.2, 0.8, 3.2, 12.8}
	horizon := 12.0
	trials := cfg.trials(3, 10)
	if cfg.Quick {
		rhos = []float64{0.05, 0.8, 12.8}
		horizon = 6
	}
	fmt.Fprintf(cfg.Out, "host: %d nodes, lambda = 40 p_thm = %.2e per node\n", g.NumNodes(), lambda)
	t := stats.NewTable(cfg.Out, "rho", "stationary p", "p/p_thm", "trials", "availability", "se", "death rate")
	type rung struct {
		avail, se, deathRate float64
		trials               int
	}
	rungs := make([]rung, len(rhos))
	if cfg.Independent {
		// Ablation: one uncoupled per-event simulation per rung, each on
		// its own event stream.
		for i, rho := range rhos {
			res, err := churn.Simulate(g, churn.Process{Arrival: lambda, Repair: rho}, trials,
				cfg.cellSeed("E17", uint64(i)), churn.Options{
					Workers:  cfg.Parallel,
					TargetCI: cfg.TargetCI,
					Horizon:  horizon,
				})
			if err != nil {
				return err
			}
			avail, se := res.Availability()
			rungs[i] = rung{avail: avail, se: se, deathRate: res.DeathRate(), trials: res.Trials}
		}
	} else {
		// One coupled event stream per trial serves the whole ladder: the
		// rungs share arrivals and thin a common repair clock, so a trial
		// costs little more than its slowest rung and the rung-to-rung
		// differences are common-random-numbers smooth.
		res, err := churn.SimulateRepairLadder(g, lambda, rhos, trials, cfg.cellSeed("E17", 0),
			churn.LadderOptions{
				Workers:  cfg.Parallel,
				TargetCI: cfg.TargetCI,
				Horizon:  horizon,
			})
		if err != nil {
			return err
		}
		for i := range rhos {
			avail, se := res.Availability(i)
			rungs[i] = rung{avail: avail, se: se, deathRate: res.DeathRate(i), trials: res.Trials}
		}
	}
	var lo, hi float64
	for i, rho := range rhos {
		stationary := lambda / (lambda + rho)
		t.Row(fmt.Sprintf("%.2f", rho), fmt.Sprintf("%.1e", stationary),
			fmt.Sprintf("%.1fx", stationary/pThm), rungs[i].trials,
			fmt.Sprintf("%.3f", rungs[i].avail), fmt.Sprintf("%.3f", rungs[i].se), fmt.Sprintf("%.2f", rungs[i].deathRate))
		if i == 0 {
			lo = rungs[i].avail
		}
		hi = rungs[i].avail
	}
	if err := t.Flush(); err != nil {
		return err
	}
	if hi < 0.9 {
		return fmt.Errorf("E17: fast repair should hold availability near 1, got %.3f", hi)
	}
	if lo > hi-0.2 {
		return fmt.Errorf("E17: no repair-rate threshold visible (availability %.3f -> %.3f)", lo, hi)
	}
	fmt.Fprintln(cfg.Out, "availability crosses from collapse to ~1 as rho pushes the stationary rate under the threshold")
	return nil
}
