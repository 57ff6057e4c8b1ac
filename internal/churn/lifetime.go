package churn

import (
	"errors"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
)

// Metric indexes the components of a lifetime trial's outcome vector
// (parallel.RunLifetime). The engine's relative early stopping resolves
// every nonzero-mean component, so a degenerate metric (death time
// pinned at the horizon in a no-death regime) cannot stop the run on
// its own.
const (
	// MetricDeathTime is the time of the first unembeddable state, or
	// the horizon if the torus survived the whole trial.
	MetricDeathTime = iota
	// MetricDied is 1 if the trial ever lost the torus, else 0.
	MetricDied
	// MetricDeathFaults is the fault count at first death (node plus
	// edge faults for mixed populations; 0 if none).
	MetricDeathFaults
	// MetricAvailability is the fraction of [0, horizon] during which a
	// verified embedding existed.
	MetricAvailability
	// MetricEvents is the number of churn events processed.
	MetricEvents
	// NumMetrics is the outcome vector length.
	NumMetrics
)

// Options tunes a lifetime simulation.
type Options struct {
	// Workers bounds the trial worker pool; 0 means GOMAXPROCS.
	Workers int
	// TargetCI, if positive, stops the run once every nonzero-mean
	// metric has this relative 95% precision (see parallel.RunLifetime).
	TargetCI float64
	// Horizon is the simulated time per trial (required, > 0).
	Horizon float64
	// MaxEvents caps the churn events per trial as a runaway guard;
	// 0 means 1<<20. A trial that would exceed the cap before reaching
	// the horizon aborts the run with an error instead of reporting
	// statistics over unsimulated time.
	MaxEvents int
	// Batch, when >= 2, decides each event's status with the
	// placement-only probe (core.Graph.Tolerates — the oracle's exact
	// health classification, see batch.go) and runs the full pipeline
	// once per window of Batch events, where the session's bidirectional
	// add/clear absorbs the window's mutations in one warm incremental
	// step. Every reported metric — death time, death size, availability,
	// event counts — is bit-identical to the per-event evaluator; only
	// the cost moves. 0 or 1 keeps the per-event evaluator.
	Batch int
	// StopAtDeath ends each trial at its first unembeddable state
	// instead of simulating to the horizon. Death time, death size and
	// death rate are unaffected; availability then counts the remaining
	// time as down, which is exact for irreversible regimes (no repair,
	// faults only accumulate) and conservative otherwise. The
	// mean-faults-to-death experiments use it to skip simulating dead
	// machines.
	StopAtDeath bool
}

// Result aggregates a lifetime simulation.
type Result struct {
	parallel.LifetimeReport
	// Horizon echoes the per-trial simulated time.
	Horizon float64
}

// MeanDeathTime returns the mean time to first loss of the torus
// (censored at the horizon) and its standard error.
func (r Result) MeanDeathTime() (float64, float64) {
	return r.Mean[MetricDeathTime], r.StdErr[MetricDeathTime]
}

// DeathRate returns the fraction of trials that ever lost the torus.
func (r Result) DeathRate() float64 { return r.Mean[MetricDied] }

// Availability returns the mean fraction of time a verified embedding
// existed, and its standard error.
func (r Result) Availability() (float64, float64) {
	return r.Mean[MetricAvailability], r.StdErr[MetricAvailability]
}

// MeanDeathFaults returns the mean fault count at first death, over the
// trials that died (0 when none did).
func (r Result) MeanDeathFaults() float64 {
	if r.Mean[MetricDied] == 0 {
		return 0
	}
	return r.Mean[MetricDeathFaults] / r.Mean[MetricDied]
}

// trialState is the per-worker scratch bundle for lifetime trials.
type trialState struct {
	sc  *core.Scratch
	ses *core.Session
	gen *Generator
	ch  *fault.Charger
}

// Simulate runs lifetime trials of the churn process on g's Theorem 2
// host and aggregates them. Each trial starts from the fault-free host,
// steps the process to opts.Horizon, and re-evaluates the pipeline
// after every event through one warm core.Session (with opts.Batch, the
// placement probe per event and one Eval per window). Determinism
// follows the repository contract: trial t draws only from its (seed, t)
// PCG stream and results are bit-identical for every worker count.
func Simulate(g *core.Graph, proc Process, trials int, seed uint64, opts Options) (Result, error) {
	if opts.Horizon <= 0 {
		return Result{}, fterr.New(fterr.Invalid, "churn.Simulate", "horizon %v <= 0", opts.Horizon)
	}
	if err := proc.Validate(); err != nil {
		return Result{}, err
	}
	maxEvents := opts.MaxEvents
	if maxEvents <= 0 {
		maxEvents = 1 << 20
	}
	popts := parallel.Options{
		Workers:  opts.Workers,
		TargetCI: opts.TargetCI,
		NewScratch: func() any {
			sc := core.NewScratch(1)
			gen, err := NewGeneratorHost(proc, g)
			if err != nil {
				// Validate above makes this unreachable; keep the trial
				// path total anyway.
				panic(err)
			}
			return &trialState{
				sc:  sc,
				ses: g.NewSession(sc),
				gen: gen,
				ch:  fault.NewCharger(g.NumNodes()),
			}
		},
	}
	rep, err := parallel.RunLifetime(trials, NumMetrics, seed, popts, func(t int, stream *rng.PCG, scratch any, out []float64) error {
		return lifetimeTrial(g, scratch.(*trialState), stream, maxEvents, opts, out)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{LifetimeReport: rep, Horizon: opts.Horizon}, nil
}

// lifetimeTrial steps one trial from the fault-free host to the horizon.
// The mixed node+edge process mutates a fault.Charger, and every status
// source reads the *effective* (charged) node set, so all of them agree
// bit for bit for any mix of node faults and link flaps. The status of
// each event comes from one of two sources:
//
//   - opts.Batch >= 2: the placement-only probe (core.Graph.Tolerates),
//     with one warm session Eval per window of Batch events (batch.go);
//   - otherwise: a warm incremental session Eval per event.
func lifetimeTrial(g *core.Graph, ts *trialState, stream *rng.PCG, maxEvents int, opts Options, out []float64) error {
	ts.gen.Reset()
	ts.ses.Reset()
	ts.ch.Reset()

	horizon := opts.Horizon
	batched := opts.Batch > 1
	up := true // the fault-free host trivially contains the torus
	died := false
	deathTime := horizon
	deathFaults := 0
	upTime := 0.0
	now := 0.0
	events := 0
	pending := 0 // batched: events since the last committed session Eval
	for {
		if events >= maxEvents {
			// Refusing to report is better than silently crediting the
			// unsimulated tail of the horizon as up-time.
			return fterr.New(fterr.Conflict, "churn.lifetimeTrial", "trial exceeded MaxEvents=%d at t=%.3g of horizon %.3g; raise Options.MaxEvents or shorten the horizon", maxEvents, now, horizon)
		}
		ev, err := ts.gen.NextMixed(stream, ts.ch)
		if err != nil {
			return err
		}
		if ev.Time >= horizon {
			// The event lands beyond the trial: the pre-event state
			// persists to the horizon. (The fault set was already
			// mutated, but nothing reads it after this point.)
			break
		}
		if up {
			upTime += ev.Time - now
		}
		now = ev.Time
		events++

		// The session's note contract — every mutation since the last
		// successful Eval — must hold at each Eval, so every event
		// reports its deltas, windowed or not.
		ts.ses.NoteAdded(ev.EffAdded)
		ts.ses.NoteCleared(ev.EffCleared)
		var status error
		if batched {
			pending++
			status = g.Tolerates(ts.ch.Effective(), ts.sc)
		} else {
			status = evalErrOnly(ts.ses.Eval(ts.ch.Effective()))
		}
		upNow, err := evalClass(status)
		if err != nil {
			return err
		}
		if up && !upNow && !died {
			died = true
			deathTime = now
			deathFaults = ts.ch.Nodes().Count() + ts.ch.Edges().Count()
		}
		up = upNow
		if died && opts.StopAtDeath {
			break
		}
		if batched && pending >= opts.Batch && up {
			// Window boundary on a tolerated state: one warm incremental
			// Eval absorbs the whole window's adds and clears, keeps the
			// session's committed state (and its next diff) bounded, and
			// cross-checks the probe against the full pipeline. A down
			// state defers the boundary — the oracle's failed Evals do not
			// commit either, and the notes keep accumulating.
			if err := evalErrOnly(ts.ses.Eval(ts.ch.Effective())); err != nil {
				var ue *core.UnhealthyError
				if errors.As(err, &ue) {
					return fterr.New(fterr.Internal, "churn.batch", "placement probe accepted a state the full pipeline rejects: %v", err)
				}
				return err
			}
			pending = 0
		}
	}
	if up {
		upTime += horizon - now
	}
	out[MetricDeathTime] = deathTime
	if died {
		out[MetricDied] = 1
		out[MetricDeathFaults] = float64(deathFaults)
	}
	out[MetricAvailability] = upTime / horizon
	out[MetricEvents] = float64(events)
	return nil
}
