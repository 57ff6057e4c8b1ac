package ftnet

import (
	"errors"
	"fmt"

	"ftnet/internal/core"
	"ftnet/internal/embed"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/rng"
	"ftnet/internal/supernode"
	"ftnet/internal/validate"
	"ftnet/internal/worstcase"
)

// Faults is a set of faulty host nodes.
type Faults struct {
	set *fault.Set
}

// Count returns the number of faulty nodes.
func (f *Faults) Count() int { return f.set.Count() }

// Len returns the universe size: host node indices are valid in [0, Len).
func (f *Faults) Len() int { return f.set.Len() }

// Has reports whether host node v is faulty.
func (f *Faults) Has(v int) bool { return f.set.Has(v) }

// checkNode validates a host node index against the universe [0, n).
// The bitset underneath would not catch every bad index itself: a
// negative index panics with an unhelpful slice error, and an index in
// the padding of the last word is silently absorbed, corrupting Count.
func checkNode(v, n int) error {
	if v < 0 || v >= n {
		return fterr.New(fterr.Invalid, "ftnet", "host node %d out of range [0, %d)", v, n)
	}
	return nil
}

// AddChecked marks host node v faulty, rejecting out-of-range indices.
// Adding an already-faulty node is a no-op.
func (f *Faults) AddChecked(v int) error {
	if err := checkNode(v, f.set.Len()); err != nil {
		return err
	}
	f.set.Add(v)
	return nil
}

// Add marks host node v faulty. It panics on an out-of-range index; use
// AddChecked when the index comes from untrusted input.
func (f *Faults) Add(v int) { must(f.AddChecked(v)) }

// must panics on err, for the unchecked mutation variants (Faults.Add,
// Session.AddFaults, Session.ClearFaults) whose callers vouch that
// their indices are in range.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// Nodes returns the faulty node indices in increasing order.
func (f *Faults) Nodes() []int { return f.set.Slice() }

// Embedding maps each node of the guest d-dimensional n-torus (or mesh)
// to a host node. It is returned only after independent verification.
type Embedding struct {
	// Side is the guest side length n.
	Side int
	// Dims is the guest dimension d.
	Dims int
	// Map lists the host node for each guest node in row-major order
	// (the last coordinate varies fastest).
	Map []int

	inner *embed.Embedding
}

// HostOf returns the host node for the guest node with the given
// coordinates (each in [0, Side)).
func (e *Embedding) HostOf(coord ...int) (int, error) {
	if len(coord) != e.Dims {
		return 0, fterr.New(fterr.Invalid, "ftnet.HostOf", "%d coordinates for a %d-dimensional guest", len(coord), e.Dims)
	}
	idx := 0
	for _, c := range coord {
		if c < 0 || c >= e.Side {
			return 0, fterr.New(fterr.Invalid, "ftnet.HostOf", "coordinate %d out of [0,%d)", c, e.Side)
		}
		idx = idx*e.Side + c
	}
	return e.Map[idx], nil
}

func wrapEmbedding(inner *embed.Embedding, side, dims int) *Embedding {
	return &Embedding{Side: side, Dims: dims, Map: inner.Map, inner: inner}
}

// Mesh restricts a torus embedding to the n x ... x n mesh (a subgraph of
// the torus, per the paper's "and hence a fault-free mesh"). Works on the
// result of any construction's Extract.
func (e *Embedding) Mesh() (*Embedding, error) {
	mesh, err := e.inner.MeshRestriction()
	if err != nil {
		return nil, err
	}
	return wrapEmbedding(mesh, e.Side, e.Dims), nil
}

// ErrNotTolerated reports that a fault pattern exceeded what the
// construction tolerates. For the random-fault constructions this is the
// low-probability failure event of Theorems 1-2; for the worst-case
// construction it means the fault budget k was exceeded. It is a coded
// sentinel: errors.Is identifies it through wrapping, and CodeOf reads
// CodeNotTolerated off the same chain (terminal — the state must heal
// before a retry can succeed).
var ErrNotTolerated error = &fterr.E{Code: fterr.NotTolerated, Op: "ftnet", Msg: "fault pattern not tolerated"}

func classify(err error) error {
	if err == nil {
		return nil
	}
	var ue *core.UnhealthyError
	if errors.As(err, &ue) {
		return fmt.Errorf("%w: %v", ErrNotTolerated, err)
	}
	return err
}

// ---------------------------------------------------------------------------
// RandomFaultTorus: Theorem 2.

// RandomFaultTorus is the host B^d_n: a slightly stretched torus with
// vertical and diagonal jump edges, degree 6d-2.
type RandomFaultTorus struct {
	g *core.Graph
}

// NewRandomFaultTorus builds a host for the d-dimensional torus with side
// at least minSide and node redundancy at most maxEps (host nodes <=
// (1+maxEps) n^d). Use Side() for the exact side chosen.
func NewRandomFaultTorus(d, minSide int, maxEps float64) (*RandomFaultTorus, error) {
	p, err := core.FitParams(d, minSide, maxEps)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGraph(p)
	if err != nil {
		return nil, err
	}
	return &RandomFaultTorus{g: g}, nil
}

// Side returns the guest torus side n.
func (t *RandomFaultTorus) Side() int { return t.g.P.N() }

// Dims returns d.
func (t *RandomFaultTorus) Dims() int { return t.g.P.D }

// HostNodes returns the host node count, at most (1+eps) n^d.
func (t *RandomFaultTorus) HostNodes() int { return t.g.NumNodes() }

// Degree returns the uniform host degree 6d-2.
func (t *RandomFaultTorus) Degree() int { return t.g.Degree() }

// Eps returns the realized node-redundancy constant.
func (t *RandomFaultTorus) Eps() float64 { return t.g.P.Eps() }

// TheoremFailureProb returns log^{-3d}(n), the failure probability under
// which Theorem 2 guarantees survival w.h.p.
func (t *RandomFaultTorus) TheoremFailureProb() float64 { return t.g.P.TheoremFailureProb() }

// NewFaults returns an empty fault set over the host nodes.
func (t *RandomFaultTorus) NewFaults() *Faults {
	return &Faults{set: fault.NewSet(t.g.NumNodes())}
}

// AnchorRotatingFault returns the smallest host node whose lone fault
// makes a cold extraction rotate the embedding anchor, shifting every
// column outside the fault's footprint away from its default rows — the
// scenario in which an incremental Session must still serve warm column
// deltas afterwards. It returns -1 when no single node
// rotates this host. Intended for regression tests, chaos drivers and
// benchmarks that need a deterministic rotating fault; the scan runs up
// to one full extraction per candidate node.
func (t *RandomFaultTorus) AnchorRotatingFault() int { return t.g.FindAnchorRotatingFault() }

// InjectRandom returns a fault set where each host node failed
// independently with probability p, drawn deterministically from seed.
func (t *RandomFaultTorus) InjectRandom(seed uint64, p float64) *Faults {
	f := t.NewFaults()
	f.set.Bernoulli(rng.New(seed), p)
	return f
}

// Extract masks the faults with bands and extracts a verified fault-free
// n-torus. It returns ErrNotTolerated (wrapped) when the pattern exceeds
// the construction's tolerance.
func (t *RandomFaultTorus) Extract(f *Faults) (*Embedding, error) {
	res, err := t.g.ContainTorus(f.set, core.ExtractOptions{})
	if err != nil {
		return nil, classify(err)
	}
	return wrapEmbedding(res.Embedding, t.Side(), t.Dims()), nil
}

// ExtractMesh is Extract restricted to the n x ... x n mesh (whose edges
// are a subset of the torus's, so the same node map serves).
func (t *RandomFaultTorus) ExtractMesh(f *Faults) (*Embedding, error) {
	emb, err := t.Extract(f)
	if err != nil {
		return nil, err
	}
	mesh, err := emb.inner.MeshRestriction()
	if err != nil {
		return nil, err
	}
	return wrapEmbedding(mesh, t.Side(), t.Dims()), nil
}

// Healthy reports whether the fault pattern satisfies the paper's
// Lemma 4 healthiness conditions (a diagnostic; Extract uses its own,
// constructive criteria).
func (t *RandomFaultTorus) Healthy(f *Faults) bool {
	return t.g.CheckHealth(f.set).Healthy()
}

// Session maintains a long-lived torus embedding over a fault set that
// changes in place — nodes fail, links flap, both get repaired —
// re-deriving on each Reembed only the work the mutations since the
// previous Reembed actually invalidated (the bidirectional
// delta-evaluation engine, internal/core.Session). Results are
// bit-identical to a from-scratch Extract of the same fault set; only
// the cost differs: a Reembed after a small change costs O(fault
// footprint), not O(host size).
//
// Edge faults follow the paper's Theorem 2 reduction: each faulty edge
// is charged to its canonical endpoint (fault.Charger), and the session
// evaluates the *effective* node set — user node faults plus charged
// endpoints. The embedding therefore avoids every charged node, hence
// every host edge incident to one, hence every faulty edge; and because
// the charge rule is a pure function of the fault sets, any mutation
// order producing the same sets yields a bit-identical embedding.
//
// A Session is not safe for concurrent use. Embeddings returned by
// Reembed are stable snapshots (they do not alias the session) and stay
// valid after further mutations.
type Session struct {
	t       *RandomFaultTorus
	sc      *core.Scratch
	ses     *core.Session
	charger *fault.Charger
	delta   []int
}

// NewSession starts a session on the fault-free host.
func (t *RandomFaultTorus) NewSession() *Session {
	sc := core.NewScratch(1)
	return &Session{
		t:       t,
		sc:      sc,
		ses:     t.g.NewSession(sc, core.ExtractOptions{}),
		charger: fault.NewCharger(t.g.NumNodes()),
	}
}

// AddFaultsChecked marks host nodes faulty, rejecting the whole batch if
// any index is out of range: either every node is applied or none is, so
// a malformed wire request cannot leave the session half-mutated.
// Already-faulty nodes are ignored.
func (s *Session) AddFaultsChecked(nodes ...int) error { return s.mutate(false, nodes, nil) }

// AddFaults marks host nodes faulty. Already-faulty nodes are ignored.
// It panics on an out-of-range index; use AddFaultsChecked when the
// indices come from untrusted input.
func (s *Session) AddFaults(nodes ...int) { must(s.mutate(false, nodes, nil)) }

// ClearFaultsChecked marks host nodes repaired, rejecting the whole
// batch if any index is out of range (all-or-nothing, like
// AddFaultsChecked). Already-healthy nodes are ignored.
func (s *Session) ClearFaultsChecked(nodes ...int) error { return s.mutate(true, nodes, nil) }

// ClearFaults marks host nodes repaired. Already-healthy nodes are
// ignored. It panics on an out-of-range index; use ClearFaultsChecked
// when the indices come from untrusted input.
func (s *Session) ClearFaults(nodes ...int) { must(s.mutate(true, nodes, nil)) }

// AddEdgeFaultsChecked marks host edges faulty, each given as a {u, v}
// endpoint pair in either order. The whole batch is rejected — nothing
// applied — if any pair is out of range, a self-loop, or not an edge of
// the host (all-or-nothing, like AddFaultsChecked). Already-faulty
// edges are ignored. Each new faulty edge is charged to its canonical
// endpoint; the next Reembed routes around it.
func (s *Session) AddEdgeFaultsChecked(edges ...[2]int) error { return s.mutate(false, nil, edges) }

// ClearEdgeFaultsChecked marks host edges repaired (all-or-nothing,
// validated like AddEdgeFaultsChecked). Already-healthy edges are
// ignored. An endpoint stays effectively faulty while other faulty
// edges still charge it or the node itself was reported faulty.
func (s *Session) ClearEdgeFaultsChecked(edges ...[2]int) error { return s.mutate(true, nil, edges) }

// mutate is the one mutation path: it validates the whole batch —
// every node in range; every edge in range, not a self-loop and a host
// edge, each failure a terminal CodeInvalid error — before touching
// anything, then applies it to the charger and notes the changed
// effective indices with the engine. Edge faults are just node charges
// here (Theorem 2), so a batch may mix nodes and edges freely.
func (s *Session) mutate(clear bool, nodes []int, edges [][2]int) error {
	n := s.t.g.NumNodes()
	for _, v := range nodes {
		if err := checkNode(v, n); err != nil {
			return err
		}
	}
	for _, e := range edges {
		if err := validate.Edge("edge fault", e[0], e[1], n, s.t.g.Adjacent); err != nil {
			return err
		}
	}
	nodeOp, edgeOp := s.charger.AddNode, s.charger.AddEdge
	if clear {
		nodeOp, edgeOp = s.charger.ClearNode, s.charger.ClearEdge
	}
	s.delta = s.delta[:0]
	for _, v := range nodes {
		if _, eff := nodeOp(v); eff >= 0 {
			s.delta = append(s.delta, eff)
		}
	}
	for _, e := range edges {
		if _, eff := edgeOp(e[0], e[1]); eff >= 0 {
			s.delta = append(s.delta, eff)
		}
	}
	if clear {
		s.ses.NoteCleared(s.delta)
	} else {
		s.ses.NoteAdded(s.delta)
	}
	return nil
}

// Adjacent reports whether host nodes u and v are connected by a host
// edge — the precondition for reporting {u, v} as an edge fault.
// Out-of-range indices are simply not adjacent.
func (s *Session) Adjacent(u, v int) bool {
	n := s.t.g.NumNodes()
	if u < 0 || u >= n || v < 0 || v >= n {
		return false
	}
	return s.t.g.Adjacent(u, v)
}

// FaultCount returns the current number of faulty nodes (user-reported;
// endpoints charged by edge faults are not counted).
func (s *Session) FaultCount() int { return s.charger.Nodes().Count() }

// EdgeFaultCount returns the current number of faulty edges.
func (s *Session) EdgeFaultCount() int { return s.charger.Edges().Count() }

// HostNodes returns the host node count; indices in [0, HostNodes) are
// the valid inputs to AddFaults and ClearFaults.
func (s *Session) HostNodes() int { return s.t.g.NumNodes() }

// Faulty reports whether host node v is currently faulty (user-reported;
// use EdgeFaulty for links).
func (s *Session) Faulty(v int) bool { return s.charger.Nodes().Has(v) }

// EdgeFaulty reports whether the host edge {u, v} is currently faulty
// (either endpoint order).
func (s *Session) EdgeFaulty(u, v int) bool { return s.charger.Edges().Has(u, v) }

// FaultNodes returns the currently faulty host nodes in increasing
// order, as a fresh slice. Only user-reported node faults are listed;
// endpoints charged by edge faults are an evaluation detail.
func (s *Session) FaultNodes() []int { return s.charger.Nodes().Slice() }

// FaultEdges returns the currently faulty host edges as {u, v} pairs
// with u < v, sorted lexicographically, as a fresh slice.
func (s *Session) FaultEdges() [][2]int {
	es := s.charger.Edges().Slice()
	out := make([][2]int, len(es))
	for i, e := range es {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

// Reembed extracts and verifies a fault-free torus for the current fault
// set, reusing the previous embedding wherever the mutations left it
// intact. It returns ErrNotTolerated (wrapped) when the pattern exceeds
// the construction's tolerance; the session stays usable — clear some
// faults and Reembed again.
func (s *Session) Reembed() (*Embedding, error) {
	res, err := s.ses.Eval(s.charger.Effective())
	if err != nil {
		return nil, classify(err)
	}
	// The result aliases the session's scratch; hand out a stable copy.
	inner := &embed.Embedding{
		Guest: res.Embedding.Guest,
		Map:   append([]int(nil), res.Embedding.Map...),
	}
	return wrapEmbedding(inner, s.t.Side(), s.t.Dims()), nil
}

// EmbeddingDelta describes how an embedding differs from the previous
// successful Reembed, in guest-column granularity (guest nodes j*C+z
// share column z, where C = Side^(Dims-1)).
type EmbeddingDelta struct {
	// Cols lists, sorted and deduplicated, the guest columns whose map
	// entries may have changed — a superset of the truly changed columns
	// (compare maps to filter exactly). Nil when Full is set.
	Cols []int
	// Full marks a non-incremental rewrite (first Reembed, or an engine
	// fallback that rebuilt the whole embedding): every column may have
	// changed.
	Full bool
}

// ReembedDelta is Reembed plus change accounting: it additionally
// reports which guest columns of the returned embedding may differ from
// the previous *successful* ReembedDelta/Reembed result. The accounting
// spans failed Reembeds in between — columns touched while evaluating a
// rejected fault set are included — so the delta is always sufficient to
// patch the previously returned embedding into the new one.
func (s *Session) ReembedDelta() (*Embedding, *EmbeddingDelta, error) {
	emb, err := s.Reembed()
	if err != nil {
		return nil, nil, err
	}
	cols32, full := s.ses.DrainDelta()
	d := &EmbeddingDelta{Full: full}
	if !full {
		d.Cols = make([]int, len(cols32))
		for i, z := range cols32 {
			d.Cols[i] = int(z)
		}
	}
	return emb, d, nil
}

// ---------------------------------------------------------------------------
// CliqueTorus: Theorem 1.

// CliqueTorus is the host A^d_n: supernode cliques over a RandomFaultTorus,
// degree O(log log N), surviving constant failure probabilities.
type CliqueTorus struct {
	g *supernode.Graph
}

// NewCliqueTorus builds a host for the d-dimensional torus with side at
// least minSide, sized for node-failure probability p, edge-failure
// probability q, and node redundancy c (which must exceed 1/(1-p)).
func NewCliqueTorus(d, minSide int, p, q, c float64) (*CliqueTorus, error) {
	params, err := supernode.FitParams(d, minSide, p, q, c)
	if err != nil {
		return nil, err
	}
	g, err := supernode.NewGraph(params)
	if err != nil {
		return nil, err
	}
	return &CliqueTorus{g: g}, nil
}

// Side returns the guest torus side n.
func (t *CliqueTorus) Side() int { return t.g.P.Side() }

// Dims returns d.
func (t *CliqueTorus) Dims() int { return t.g.P.Base.D }

// HostNodes returns the host node count c*n^d.
func (t *CliqueTorus) HostNodes() int { return t.g.NumNodes() }

// Degree returns the uniform host degree, Theta(log log N).
func (t *CliqueTorus) Degree() int { return t.g.P.Degree() }

// SupernodeSize returns h.
func (t *CliqueTorus) SupernodeSize() int { return t.g.P.H }

// Redundancy returns the realized constant c with |host| = c n^d.
func (t *CliqueTorus) Redundancy() float64 { return t.g.P.C() }

// ExtractRandom draws node faults with probability p and edge faults with
// the construction's q (both from seed), then embeds and verifies the
// n-torus. Returns ErrNotTolerated (wrapped) on the low-probability
// failure event.
func (t *CliqueTorus) ExtractRandom(seed uint64, p float64) (*Embedding, error) {
	fs := t.g.NewFaultState(seed, p, rng.New(seed))
	emb, _, err := t.g.Embed(fs)
	if err != nil {
		return nil, classify(err)
	}
	return wrapEmbedding(emb, t.Side(), t.Dims()), nil
}

// ---------------------------------------------------------------------------
// WorstCaseTorus: Theorem 3.

// WorstCaseTorus is the host D^d_{n,k}: a torus with per-dimension jump
// edges, degree 4d, tolerating any k node and edge faults.
type WorstCaseTorus struct {
	g *worstcase.Graph
}

// NewWorstCaseTorus builds a host for the d-dimensional torus with side at
// least minSide tolerating any k faults. Use Side() for the exact side.
func NewWorstCaseTorus(d, minSide, k int) (*WorstCaseTorus, error) {
	g, err := worstcase.NewGraph(worstcase.Params{D: d, N: minSide, K: k})
	if err != nil {
		return nil, err
	}
	return &WorstCaseTorus{g: g}, nil
}

// Side returns the guest torus side n.
func (t *WorstCaseTorus) Side() int { return t.g.P.Side() }

// Dims returns d.
func (t *WorstCaseTorus) Dims() int { return t.g.P.D }

// HostNodes returns the host node count m^d.
func (t *WorstCaseTorus) HostNodes() int { return t.g.NumNodes() }

// Degree returns the uniform host degree 4d.
func (t *WorstCaseTorus) Degree() int { return t.g.P.Degree() }

// Capacity returns the provable worst-case fault budget (>= the requested k).
func (t *WorstCaseTorus) Capacity() int { return t.g.P.Capacity() }

// NewFaults returns an empty fault set over the host nodes.
func (t *WorstCaseTorus) NewFaults() *Faults {
	return &Faults{set: fault.NewSet(t.g.NumNodes())}
}

// Extract masks the node faults (plus optional faulty edges, each given as
// a [2]int host pair) and extracts a verified fault-free n-torus. Any
// fault set within Capacity() succeeds; the returned error otherwise
// wraps ErrNotTolerated.
func (t *WorstCaseTorus) Extract(f *Faults, faultyEdges [][2]int) (*Embedding, error) {
	emb, _, err := t.g.Tolerate(f.set, faultyEdges)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotTolerated, err)
	}
	return wrapEmbedding(emb, t.Side(), t.Dims()), nil
}

// HostCoord converts a host node index to coordinates on the host torus.
func (t *WorstCaseTorus) HostCoord(v int) []int {
	return t.g.Shape.Coord(v, nil)
}

// HostIndex converts host coordinates to a node index.
func (t *WorstCaseTorus) HostIndex(coord ...int) int {
	return t.g.Shape.Index(coord)
}
