package main

import (
	"errors"
	"fmt"
	"time"

	"ftnet"
	"ftnet/internal/churn"
	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/wire"
)

const (
	churnBlock      = 256  // events per mode block
	churnCountOps   = 2048 // events the count metrics cover
	churnCheckEvery = 256  // every Kth event is checked against a from-scratch Extract
)

// steadyChurn builds the mixed node+edge Gillespie process of the edge
// churn benchmarks (a 10x-theorem standing population split evenly
// between node faults and edge charges) and steps it to stationarity on
// a charger, which then holds the standing fault population.
func steadyChurn(g *core.Graph, seed uint64) (*churn.Generator, *rng.PCG, *fault.Charger, error) {
	const rho = 1.0
	s := faultScale * g.P.TheoremFailureProb() / 2
	edgeRatio := float64(g.NumNodes()) / float64(g.NumNodes()*g.Degree()/2)
	gen, err := churn.NewGeneratorHost(churn.Process{
		Arrival:     s * rho / (1 - s),
		Repair:      rho,
		EdgeArrival: s * edgeRatio * rho / (1 - s*edgeRatio),
		EdgeRepair:  rho,
	}, g)
	if err != nil {
		return nil, nil, nil, err
	}
	stream := rng.NewPCG(seed, 3)
	ch := fault.NewCharger(g.NumNodes())
	// ~8 relaxation times of events reach the stationary mix.
	for gen.Now() < 8/rho {
		if _, err := gen.NextMixed(stream, ch); err != nil {
			return nil, nil, nil, err
		}
	}
	return gen, stream, ch, nil
}

// pairs converts edges to the {u, v} pairs the public API takes.
func pairs(dst [][2]int, edges []fault.Edge) [][2]int {
	for _, e := range edges {
		dst = append(dst, [2]int{e.U, e.V})
	}
	return dst
}

// newHost builds the public host, checking it is the benchmark host.
func newHost() (*ftnet.RandomFaultTorus, error) {
	host, err := ftnet.NewRandomFaultTorus(hostDims, hostSide, hostEps)
	if err != nil {
		return nil, err
	}
	if host.HostNodes() != hostNodes {
		return nil, fmt.Errorf("public host has %d nodes, want %d", host.HostNodes(), hostNodes)
	}
	return host, nil
}

// extractFresh is the from-scratch oracle: a fresh Extract of the
// effective (charged) fault set, sharing no state with any session.
func extractFresh(host *ftnet.RandomFaultTorus, eff *fault.Set) (*ftnet.Embedding, error) {
	f := host.NewFaults()
	eff.ForEach(f.Add)
	return host.Extract(f)
}

// churnBench applies one churn event per operation to a warm public
// ftnet.Session and re-embeds it with ReembedDelta. The generator steps
// a mirror charger; the session keeps its own.
type churnBench struct {
	host   *ftnet.RandomFaultTorus
	ses    *ftnet.Session
	gen    *churn.Generator
	stream *rng.PCG
	mirror *fault.Charger
	edges  [][2]int
}

func setupChurn(cfg *config) (bench, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	host, err := newHost()
	if err != nil {
		return nil, err
	}
	gen, stream, mirror, err := steadyChurn(g, cfg.seed)
	if err != nil {
		return nil, err
	}
	c := &churnBench{host: host, ses: host.NewSession(), gen: gen, stream: stream, mirror: mirror}
	if err := c.ses.AddFaultsChecked(mirror.Nodes().Slice()...); err != nil {
		return nil, err
	}
	if err := c.ses.AddEdgeFaultsChecked(pairs(nil, mirror.Edges().Slice())...); err != nil {
		return nil, err
	}
	// The one cold evaluation; every later one is a delta.
	if _, _, err := c.ses.ReembedDelta(); err != nil && !errors.Is(err, ftnet.ErrNotTolerated) {
		return nil, err
	}
	return c, nil
}

func (c *churnBench) close() {}

// apply feeds one event's node and edge deltas to the session.
func (c *churnBench) apply(ev churn.Event) error {
	if len(ev.Added) > 0 {
		if err := c.ses.AddFaultsChecked(ev.Added...); err != nil {
			return err
		}
	}
	if len(ev.Cleared) > 0 {
		if err := c.ses.ClearFaultsChecked(ev.Cleared...); err != nil {
			return err
		}
	}
	if len(ev.EdgeAdded) > 0 {
		c.edges = pairs(c.edges[:0], ev.EdgeAdded)
		if err := c.ses.AddEdgeFaultsChecked(c.edges...); err != nil {
			return err
		}
	}
	if len(ev.EdgeCleared) > 0 {
		c.edges = pairs(c.edges[:0], ev.EdgeCleared)
		if err := c.ses.ClearEdgeFaultsChecked(c.edges...); err != nil {
			return err
		}
	}
	return nil
}

func (c *churnBench) measure(cfg *config, r *report) (*tracer, error) {
	tr := newTracer()
	m := &modes{traced: cfg.trace, block: churnBlock}
	var changedCols, full, ok, notTolerated int
	w := openWindow()
	op := 0
	for ; w.elapsed() < cfg.duration() || op < churnCountOps; op++ {
		tr.on = m.of(op) == 1
		start, paused := time.Now(), w.paused
		id := tr.begin(spLoadgenOp, -1, int64(op))
		sp := tr.begin(spChurnNext, id, int64(op))
		ev, err := c.gen.NextMixed(c.stream, c.mirror)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("churn generator: %w", err)
		}
		sp = tr.begin(spFtnetMutate, id, int64(op))
		err = c.apply(ev)
		tr.end(sp)
		if err != nil {
			r.fail("event %d: mutation: %v", op, err)
		}
		sp = tr.begin(spFtnetReembed, id, int64(op))
		emb, delta, err := c.ses.ReembedDelta()
		tr.end(sp)
		tr.end(id)
		lat := time.Since(start)

		nt := errors.Is(err, ftnet.ErrNotTolerated)
		if err != nil && !nt {
			r.fail("event %d: reembed: %v", op, err)
		}
		if op < churnCountOps {
			switch {
			case err == nil:
				ok++
				if delta.Full {
					full++
				}
				changedCols += len(delta.Cols)
			case nt:
				notTolerated++
			}
		}
		if op%churnCheckEvery == 0 {
			cs := tr.begin(spBenchCheck, -1, int64(op))
			resume := w.pause()
			if cerr := c.check(emb, err); cerr != nil {
				r.fail("event %d: %v", op, cerr)
			}
			resume()
			tr.end(cs)
		}
		m.record(lat, time.Since(start)-(w.paused-paused))
	}
	ws := w.close()
	r.attempted = int64(op)
	endToEnd(r, ws, m, nil)

	r.set("ftnet.changed_cols_per_op", float64(changedCols)/float64(ok), ok)
	r.set("ftnet.full_rewrite_ratio", float64(full)/float64(ok), ok)
	r.set("ftnet.not_tolerated_ratio", float64(notTolerated)/churnCountOps, churnCountOps)
	if cfg.trace {
		v, n := tr.quantileUS(spChurnNext, 0.5)
		r.set("churn.next_us", v, n)
		v, n = tr.quantileUS(spFtnetMutate, 0.5)
		r.set("ftnet.mutate_us", v, n)
		v, n = tr.quantileUS(spFtnetReembed, 0.5)
		r.set("ftnet.reembed_us", v, n)
		v, n = tr.quantileUS(spFtnetReembed, 0.99)
		r.set("ftnet.reembed_p99_us", v, n)
		tr.reportSelf(r, len(m.latencies(1)))
	}
	heapInuse(r, m)
	return tr, nil
}

// check compares the session with the generator's own record and its
// embedding with a from-scratch Extract of the same effective faults.
func (c *churnBench) check(emb *ftnet.Embedding, err error) error {
	if c.ses.FaultCount() != c.mirror.Nodes().Count() || c.ses.EdgeFaultCount() != c.mirror.Edges().Count() {
		return fmt.Errorf("session holds %d nodes and %d edges, the process %d and %d",
			c.ses.FaultCount(), c.ses.EdgeFaultCount(), c.mirror.Nodes().Count(), c.mirror.Edges().Count())
	}
	want, werr := extractFresh(c.host, c.mirror.Effective())
	switch {
	case werr != nil && !errors.Is(werr, ftnet.ErrNotTolerated):
		return fmt.Errorf("from-scratch extract: %v", werr)
	case (err == nil) != (werr == nil):
		return fmt.Errorf("session says %v, from-scratch extract says %v", err, werr)
	case err == nil && wire.Checksum(emb.Map) != wire.Checksum(want.Map):
		return fmt.Errorf("session map %016x, from-scratch map %016x", wire.Checksum(emb.Map), wire.Checksum(want.Map))
	}
	return nil
}
