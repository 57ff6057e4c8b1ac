package server

import (
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// ScratchExtract recomputes the committed embedding of one hosted
// topology from scratch: a fresh Extract over exactly the committed
// fault set — node faults plus the node charges of the committed edge
// faults, replayed into a fresh fault.Charger — sharing no state with
// the incremental session. The pipeline is deterministic and
// incremental reembedding is pinned bit-identical to from-scratch
// extraction, so this is the convergence oracle for resilience tests —
// a client that synced through chaos must hold a map bit-identical to
// the returned one.
func (s *Server) ScratchExtract(id string) (*wire.Snapshot, error) {
	t, ok := s.topos[id]
	if !ok {
		return nil, fterr.New(fterr.NotFound, "server", "no topology %q", id)
	}
	snap := t.snap.Load()
	ch := fault.NewCharger(t.host.HostNodes())
	for _, v := range snap.FaultNodes {
		ch.AddNode(v)
	}
	for _, e := range snap.FaultEdges {
		ch.AddEdge(e[0], e[1])
	}
	f := t.host.NewFaults()
	for _, v := range ch.Effective().Slice() {
		f.Add(v)
	}
	emb, err := t.host.Extract(f)
	if err != nil {
		return nil, fterr.Wrap(fterr.Internal, "server.scratch", err)
	}
	return &wire.Snapshot{
		Topology:   t.cfg.ID,
		Generation: snap.Generation,
		Side:       emb.Side,
		Dims:       emb.Dims,
		Faults:     snap.FaultNodes,
		Edges:      snap.FaultEdges,
		Map:        emb.Map,
		Checksum:   wire.Checksum(emb.Map),
	}, nil
}
