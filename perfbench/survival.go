package main

import (
	"errors"
	"fmt"
	"time"

	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/parallel"
	"ftnet/internal/rng"
	"ftnet/internal/stats"
	"ftnet/internal/wire"
)

const (
	survivalChunk      = 64  // trials per parallel.Run call, and per mode block
	survivalCountOps   = 512 // trials the count metrics cover
	survivalCheckEvery = 50  // every Kth trial is re-run on the dense pipeline
)

// survival runs cold Monte-Carlo trials: a fresh Bernoulli fault set per
// trial, ContainTorus on the locality fast path with one warm Scratch,
// inside parallel.Run on one worker.
type survival struct {
	g  *core.Graph
	sc *core.Scratch
	p  float64
}

// buildGraph builds the benchmark host through the same parameter fit
// as ftnet.NewRandomFaultTorus.
func buildGraph() (*core.Graph, error) {
	p, err := core.FitParams(hostDims, hostSide, hostEps)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGraph(p)
	if err != nil {
		return nil, err
	}
	if g.NumNodes() != hostNodes || g.P.N() != hostSide {
		return nil, fmt.Errorf("host has %d nodes and side %d, want %d and %d", g.NumNodes(), g.P.N(), hostNodes, hostSide)
	}
	return g, nil
}

func unhealthy(err error) bool {
	var ue *core.UnhealthyError
	return errors.As(err, &ue)
}

func setupSurvival(*config) (bench, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	s := &survival{g: g, sc: core.NewScratch(1), p: faultScale * g.P.TheoremFailureProb()}
	// The first evaluation, on the fault-free host, builds the fast
	// path's template in the scratch.
	if _, err := g.ContainTorus(s.sc.Faults(g.NumNodes()), core.ExtractOptions{Scratch: s.sc}); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *survival) close() {}

func (s *survival) measure(cfg *config, r *report) (*tracer, error) {
	tr := newTracer()
	m := &modes{traced: cfg.trace, block: survivalChunk}
	var (
		ops                     int
		faultSum, boxSum        int
		tolerated, notTolerated int
		chunkSpan               int32
		last                    time.Time     // end of the previous trial's loop iteration
		lastPaused              time.Duration // w.paused at last
	)
	// Every parallel.Run call hands the worker the same warm scratch:
	// with one worker no two trials share it at once.
	opts := parallel.Options{Workers: 1, ShardSize: survivalChunk, NewScratch: func() any { return s.sc }}
	w := openWindow()
	trial := func(_ int, stream *rng.PCG, scratch any) (stats.Outcome, error) {
		sc := scratch.(*core.Scratch)
		op := ops
		ops++
		start := time.Now()
		id := tr.begin(spLoadgenTrial, chunkSpan, int64(op))
		sp := tr.begin(spFaultSample, id, int64(op))
		faults := sc.Faults(s.g.NumNodes())
		faults.Bernoulli(stream, s.p)
		tr.end(sp)
		sp = tr.begin(spCoreContain, id, int64(op))
		res, err := s.g.ContainTorus(faults, core.ExtractOptions{Scratch: sc})
		tr.end(sp)
		tr.end(id)
		lat := time.Since(start)

		out := stats.Success
		switch {
		case err == nil:
		case unhealthy(err):
			out = stats.Failure
		default:
			r.fail("trial %d: %v", op, err)
			out = stats.Failure
		}
		if op < survivalCountOps {
			faultSum += faults.Count()
			if err == nil {
				tolerated++
				boxSum += res.Report.Boxes
			} else if unhealthy(err) {
				notTolerated++
			}
		}
		if op%survivalCheckEvery == 0 {
			cs := tr.begin(spBenchCheck, chunkSpan, int64(op))
			resume := w.pause()
			if cerr := s.check(faults, res, err); cerr != nil {
				r.fail("trial %d: %v", op, cerr)
			}
			resume()
			tr.end(cs)
		}
		// The loop time runs from the previous trial's end, so it takes in
		// parallel.Run's dispatch, and leaves out the check.
		m.record(lat, time.Since(last)-(w.paused-lastPaused))
		last, lastPaused = time.Now(), w.paused
		return out, nil
	}
	for chunk := 0; w.elapsed() < cfg.duration() || ops < survivalCountOps; chunk++ {
		tr.on = m.of(ops) == 1
		last, lastPaused = time.Now(), w.paused
		chunkSpan = tr.begin(spParallelRun, -1, int64(chunk))
		if _, err := parallel.Run(survivalChunk, rng.Hash64(cfg.seed, uint64(chunk)), opts, trial); err != nil {
			return nil, err
		}
		tr.end(chunkSpan)
	}
	ws := w.close()
	r.attempted = int64(ops)
	endToEnd(r, ws, m, nil)

	r.set("core.faults_per_op", float64(faultSum)/survivalCountOps, survivalCountOps)
	r.set("core.boxes_per_op", float64(boxSum)/float64(tolerated), tolerated)
	r.set("core.not_tolerated_ratio", float64(notTolerated)/survivalCountOps, survivalCountOps)
	if cfg.trace {
		v, n := tr.quantileUS(spFaultSample, 0.5)
		r.set("fault.sample_us", v, n)
		v, n = tr.quantileUS(spCoreContain, 0.5)
		r.set("core.contain_us", v, n)
		v, n = tr.quantileUS(spCoreContain, 0.99)
		r.set("core.contain_p99_us", v, n)
		self := tr.selfTimes()
		var trials time.Duration
		for _, d := range tr.durations(spLoadgenTrial) {
			trials += d
		}
		traced := len(m.latencies(1))
		r.set("parallel.overhead_share", float64(self["parallel"])/float64(self["parallel"]+trials), traced)
		tr.reportSelf(r, traced)
	}
	heapInuse(r, m)
	return tr, nil
}

// check re-runs one trial's fault set on the dense whole-host pipeline
// and demands the same outcome and, when tolerated, the same map.
func (s *survival) check(faults *fault.Set, res *core.Result, err error) error {
	var fast uint64
	if err == nil {
		fast = wire.Checksum(res.Embedding.Map)
	}
	dense, derr := s.g.ContainTorus(faults, core.ExtractOptions{Dense: true})
	switch {
	case derr != nil && !unhealthy(derr):
		return fmt.Errorf("dense pipeline: %v", derr)
	case (err == nil) != (derr == nil):
		return fmt.Errorf("fast path says %v, dense pipeline says %v", err, derr)
	case err == nil && fast != wire.Checksum(dense.Embedding.Map):
		return fmt.Errorf("fast path map %016x, dense pipeline map %016x", fast, wire.Checksum(dense.Embedding.Map))
	}
	return nil
}
