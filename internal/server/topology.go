// Package server implements ftnetd: a daemon hosting one long-lived
// ftnet.Session per configured topology behind an HTTP/JSON wire
// protocol (see routes in server.go).
//
// Node and edge fault reports are one mutation value all the way: one
// handler serves the four mutation routes, the queue carries one
// request type, and one writer step (topology.record) applies a
// mutation to the session and the pending batch. Restore replays a
// snapshot's uncommitted tail through that same step, as one add and
// one clear mutation.
//
// The ftnet.Session contract is single-writer, so each topology owns one
// writer goroutine and a serialization queue. The queue coalesces: every
// mutation that arrives while a Reembed is in flight is applied to the
// session as soon as the writer frees up and covered by the *next*
// evaluation, so a burst of k concurrent fault reports costs a small
// constant number of Evals, not k (the acceptance contract of the race
// test). Asynchronous mutations (?wait=0) accumulate until the batching
// policy triggers: the accumulated footprint stops being small (>=
// MaxBatchCols distinct host columns), a flush interval elapses, an
// explicit POST .../reembed arrives, or a synchronous request joins the
// batch. Readers never enter the queue: GET .../embedding is served from
// an atomically swapped snapshot of the last committed embedding, so
// reads never block on the writer. Snapshot files are fsynced, and so is
// their directory, before a snapshot is acknowledged.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ftnet"
	"ftnet/internal/fault"
	"ftnet/internal/fterr"
	"ftnet/internal/wire"
)

// Snapshot is one committed state of a topology: a verified embedding
// and exactly the fault set it was committed with. Snapshots are
// immutable (never copy one by value: the binary-encoding cache is a
// sync.Once); readers share them by pointer.
type Snapshot struct {
	// Generation counts successful commits (monotone; restored from the
	// snapshot file across restarts).
	Generation int64
	// Emb is the verified embedding (stable: it does not alias the
	// session).
	Emb *ftnet.Embedding
	// FaultNodes is the fault set Emb was committed against, increasing.
	FaultNodes []int
	// FaultEdges is the edge-fault set Emb was committed against:
	// canonical (u < v) pairs, sorted lexicographically. Emb avoids the
	// charged endpoint of every listed edge (the Theorem 2 reduction).
	FaultEdges [][2]int
	// Checksum is the FNV-1a hash of Emb.Map (see MapChecksum).
	Checksum uint64

	// delta is this generation's entry in the topology's bounded diff
	// chain (set before the snapshot is published).
	delta *deltaRec
	// Lazy binary full encoding, shared by every reader of this
	// generation (see wireFull).
	binOnce sync.Once
	binData []byte
	binErr  error
	// Encoded binary delta responses keyed by since generation,
	// filled on first demand (see wireDeltaEncoded).
	deltaMu    sync.Mutex
	deltaCache map[int64][]byte
}

// MapChecksum hashes an embedding map for snapshot integrity checks:
// the pipeline is deterministic, so a restore that replays the fault set
// must reproduce the map bit-identically. It is the binary protocol's
// checksum too (wire.Checksum is the same function).
func MapChecksum(m []int) uint64 { return wire.Checksum(m) }

// errShutdown is returned to requests caught by a daemon shutdown: a
// coded fterr.Unavailable sentinel (retryable — another replica, or this
// one after a restart, can serve the retry).
var errShutdown error = &fterr.E{Code: fterr.Unavailable, Op: "server", Msg: "shutting down"}

// mutation is one batch of fault reports: node faults and edge faults
// alike, all added or all cleared. Edge faults are node charges to the
// session (Theorem 2's reduction), so both kinds travel as one value
// from the HTTP handler through the writer queue — and through restore,
// which replays a snapshot's uncommitted tail as two mutations.
type mutation struct {
	clear bool
	nodes []int
	edges [][2]int
}

// applyTo applies m to the session. The nodes and the edges are two
// all-or-nothing batches; a live request carries only one of them.
func (m mutation) applyTo(ses *ftnet.Session) error {
	if m.clear {
		if err := ses.ClearFaultsChecked(m.nodes...); err != nil {
			return err
		}
		return ses.ClearEdgeFaultsChecked(m.edges...)
	}
	if err := ses.AddFaultsChecked(m.nodes...); err != nil {
		return err
	}
	return ses.AddEdgeFaultsChecked(m.edges...)
}

// request is one unit of writer work: a mutation, or a flush that forces
// an evaluation. reply is buffered (capacity 1) so the writer never
// blocks on an abandoned waiter.
type request struct {
	mut   mutation
	flush bool
	reply chan result // nil for fire-and-forget mutations
}

type result struct {
	snap *Snapshot
	err  error
}

// topology is one hosted instance: host graph, session, writer queue.
type topology struct {
	cfg     TopologyConfig
	host    *ftnet.RandomFaultTorus
	ses     *ftnet.Session
	numCols int // host columns n^(d-1); column = node % numCols

	reqs  chan request
	stopc chan struct{}
	done  chan struct{}

	snap    atomic.Pointer[Snapshot]
	metrics *topoMetrics
	// curFaults is the session's full fault set — committed or not —
	// republished by the writer after every applied batch, so snapshot
	// writes can persist mutations whose evaluation failed (recorded
	// reality never rolls back, and must survive a restart too).
	curFaults atomic.Pointer[[]int]
	// curEdges is the session's full edge-fault set, same contract.
	curEdges atomic.Pointer[[][2]int]

	// Writer-goroutine state: the batch accumulated since the last
	// evaluation attempt.
	pendingMuts  int
	pendingNodes int
	pendingCols  map[int]struct{}
	waiters      []chan result

	maxBatchCols int
	flushEvery   time.Duration
	deltaRing    int          // bound on the delta chain length
	evalDelay    atomic.Int64 // test hook (nanoseconds): stretches the eval window

	// Watch subscribers: each holds a capacity-1 signal channel the
	// writer pokes (non-blocking) after every commit. Handlers read the
	// published snapshot themselves, so the writer never carries data to
	// a subscriber and never blocks on one.
	watchMu  sync.Mutex
	watchers map[chan struct{}]struct{}
}

// subscribe registers a commit-signal channel for a watch stream.
func (t *topology) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	t.watchMu.Lock()
	t.watchers[ch] = struct{}{}
	n := len(t.watchers)
	t.watchMu.Unlock()
	t.metrics.watchers.Store(int64(n))
	return ch
}

func (t *topology) unsubscribe(ch chan struct{}) {
	t.watchMu.Lock()
	delete(t.watchers, ch)
	n := len(t.watchers)
	t.watchMu.Unlock()
	t.metrics.watchers.Store(int64(n))
}

// notifyWatchers signals every subscriber that a new snapshot is
// published. Sends are non-blocking: a subscriber that has not drained
// its previous signal already owes itself a snapshot load, which will
// observe this commit too.
func (t *topology) notifyWatchers() {
	t.watchMu.Lock()
	for ch := range t.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	t.watchMu.Unlock()
}

// newTopology builds the host, optionally restores a disk snapshot, and
// commits the initial state synchronously, so a constructed topology
// always has a servable snapshot before its worker starts.
func newTopology(cfg TopologyConfig, policy Config, restore *diskSnapshot) (*topology, error) {
	host, err := ftnet.NewRandomFaultTorus(cfg.D, cfg.MinSide, cfg.MaxEps)
	if err != nil {
		return nil, fmt.Errorf("topology %s: %w", cfg.ID, err)
	}
	numCols := 1
	for i := 1; i < host.Dims(); i++ {
		numCols *= host.Side()
	}
	t := &topology{
		cfg:          cfg,
		host:         host,
		ses:          host.NewSession(),
		numCols:      numCols,
		reqs:         make(chan request, 256),
		stopc:        make(chan struct{}),
		done:         make(chan struct{}),
		metrics:      &topoMetrics{},
		pendingCols:  make(map[int]struct{}),
		maxBatchCols: policy.maxBatchCols(),
		flushEvery:   policy.flushInterval(),
		deltaRing:    policy.deltaRing(),
		watchers:     make(map[chan struct{}]struct{}),
	}
	gen := int64(0)
	if restore != nil {
		if err := restore.check(cfg, host); err != nil {
			return nil, err
		}
		if err := (mutation{nodes: restore.Faults, edges: restore.Edges}).applyTo(t.ses); err != nil {
			return nil, fmt.Errorf("topology %s: restore: %w", cfg.ID, err)
		}
		gen = restore.Generation
		t.metrics.restored.Store(1)
	}
	// ReembedDelta rather than Reembed: the initial commit is linked as a
	// full resync boundary below, so the session's delta accumulator must
	// be drained here — otherwise the cold evaluation's full-rewrite flag
	// leaks into the FIRST real commit, turning it into a needless 410 for
	// every client that already holds this head (clients reconnecting
	// after a restart would resync twice).
	emb, _, err := t.ses.ReembedDelta()
	if err != nil {
		return nil, fmt.Errorf("topology %s: initial reembed: %w", cfg.ID, err)
	}
	snap := &Snapshot{
		Generation: gen,
		Emb:        emb,
		FaultNodes: t.ses.FaultNodes(),
		FaultEdges: t.ses.FaultEdges(),
		Checksum:   MapChecksum(emb.Map),
	}
	if restore != nil && snap.Checksum != restore.checksum() {
		return nil, fterr.New(fterr.Corrupt, "server.snapshot", "topology %s: restored embedding checksum %016x does not match snapshot %016x",
			cfg.ID, snap.Checksum, restore.checksum())
	}
	// The initial commit is a resync boundary: no diff exists to anything
	// older (in particular not across a restart).
	t.linkDelta(nil, snap, nil)
	t.snap.Store(snap)
	t.metrics.reembedOK.Add(1)
	t.metrics.faults.Store(int64(len(snap.FaultNodes)))
	t.metrics.edgeFaults.Store(int64(len(snap.FaultEdges)))
	t.metrics.generation.Store(gen)
	if restore != nil {
		if err := t.restoreUncommitted(restore); err != nil {
			return nil, err
		}
	}
	t.publishFaults()
	return t, nil
}

// restoreUncommitted replays the snapshot's session-level delta: the
// mutations recorded after the last successful commit (adds beyond, and
// clears of, the committed fault and edge-fault sets), as one add and
// one clear mutation through the live writer path. They are applied
// without demanding a successful evaluation — the pre-restart state may
// well have been beyond tolerance — and left pending for the batching
// policy, exactly as they were before the restart.
func (t *topology) restoreUncommitted(restore *diskSnapshot) error {
	add, clr := mutation{}, mutation{clear: true}
	if restore.SessionFaults != nil {
		add.nodes, clr.nodes = sortedDiff(restore.Faults, restore.SessionFaults, cmp.Compare[int])
	}
	if restore.SessionEdges != nil {
		add.edges, clr.edges = sortedDiff(restore.Edges, restore.SessionEdges, func(a, b [2]int) int {
			return slices.Compare(a[:], b[:]) // lexicographic, as snapshots store edges
		})
	}
	for _, m := range []mutation{add, clr} {
		if len(m.nodes)+len(m.edges) == 0 {
			continue
		}
		if err := t.record(m); err != nil {
			return fmt.Errorf("topology %s: restore uncommitted: %w", t.cfg.ID, err)
		}
	}
	return nil
}

// sortedDiff splits two lists sorted by compare into session-only
// (adds) and committed-only (clears) elements.
func sortedDiff[E any](committed, session []E, compare func(a, b E) int) (adds, clears []E) {
	i, j := 0, 0
	for i < len(committed) || j < len(session) {
		switch {
		case i == len(committed) || (j < len(session) && compare(session[j], committed[i]) < 0):
			adds = append(adds, session[j])
			j++
		case j == len(session) || compare(committed[i], session[j]) < 0:
			clears = append(clears, committed[i])
			i++
		default:
			i++
			j++
		}
	}
	return adds, clears
}

// publishFaults republishes the session's full fault and edge-fault sets
// for snapshot writers. Called by the writer goroutine (and
// construction) only.
func (t *topology) publishFaults() {
	s := t.ses.FaultNodes()
	t.curFaults.Store(&s)
	e := t.ses.FaultEdges()
	t.curEdges.Store(&e)
}

// submit enqueues a request unless the daemon is stopping.
func (t *topology) submit(req request) error {
	select {
	case t.reqs <- req:
		return nil
	case <-t.stopc:
		return errShutdown
	}
}

// run is the single-writer loop. Only this goroutine touches t.ses and
// the pending-batch state.
func (t *topology) run() {
	defer close(t.done)
	var tick <-chan time.Time
	if t.flushEvery > 0 {
		ticker := time.NewTicker(t.flushEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-t.stopc:
			t.shutdown()
			return
		case req := <-t.reqs:
			force := t.apply(req)
			// Coalesce everything already queued — this is where a burst
			// that piled up behind an in-flight eval becomes one batch.
		drain:
			for {
				select {
				case more := <-t.reqs:
					if t.apply(more) {
						force = true
					}
				default:
					break drain
				}
			}
			t.publishFaults()
			if force || len(t.waiters) > 0 || len(t.pendingCols) >= t.maxBatchCols {
				t.eval()
			}
		case <-tick:
			if t.pendingMuts > 0 {
				t.eval()
			}
		}
	}
}

// apply folds one request into the pending batch and reports whether it
// forces an evaluation.
func (t *topology) apply(req request) bool {
	if !req.flush {
		if err := t.record(req.mut); err != nil {
			// The handler validates the batch before enqueueing, so this
			// is an internal inconsistency; fail the request, not the
			// batch.
			if req.reply != nil {
				req.reply <- result{err: err}
			}
			return false
		}
	}
	if req.reply != nil {
		t.waiters = append(t.waiters, req.reply)
	}
	return req.flush
}

// record applies one mutation to the session and adds it to the pending
// batch: one more mutation, its reports, and the host columns it dirties
// (an edge fault dirties only its charged endpoint's column). It is the
// only way a mutation reaches the session after construction — live
// requests and restored uncommitted tails alike.
func (t *topology) record(m mutation) error {
	if err := m.applyTo(t.ses); err != nil {
		return err
	}
	t.pendingMuts++
	t.pendingNodes += len(m.nodes) + len(m.edges)
	for _, v := range m.nodes {
		t.pendingCols[v%t.numCols] = struct{}{}
	}
	for _, e := range m.edges {
		t.pendingCols[fault.ChargedEndpoint(e[0], e[1])%t.numCols] = struct{}{}
	}
	t.metrics.pendingRequests.Store(int64(t.pendingMuts))
	return nil
}

// eval evaluates the accumulated batch with one Reembed and publishes
// the outcome: a fresh snapshot on success, the error to every waiter on
// failure. A failed (ErrNotTolerated) evaluation leaves the previous
// snapshot served and the session's pending churn intact — the engine
// re-checks every mutated column once a later batch heals the state.
func (t *topology) eval() {
	muts, nodes := t.pendingMuts, t.pendingNodes
	t.pendingMuts, t.pendingNodes = 0, 0
	clear(t.pendingCols)
	waiters := t.waiters
	t.waiters = nil
	t.metrics.pendingRequests.Store(0)

	if d := t.evalDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	start := time.Now()
	emb, d, err := t.ses.ReembedDelta()
	t.metrics.reembedNanos.Add(time.Since(start).Nanoseconds())
	t.metrics.batchMutations.Add(int64(muts))
	t.metrics.batchNodes.Add(int64(nodes))

	var res result
	switch {
	case err == nil:
		prev := t.snap.Load()
		snap := &Snapshot{
			Generation: prev.Generation + 1,
			Emb:        emb,
			FaultNodes: t.ses.FaultNodes(),
			FaultEdges: t.ses.FaultEdges(),
			Checksum:   MapChecksum(emb.Map),
		}
		t.linkDelta(prev, snap, d)
		t.snap.Store(snap)
		t.metrics.reembedOK.Add(1)
		t.metrics.faults.Store(int64(len(snap.FaultNodes)))
		t.metrics.edgeFaults.Store(int64(len(snap.FaultEdges)))
		t.metrics.generation.Store(snap.Generation)
		t.notifyWatchers()
		res = result{snap: snap}
	case errors.Is(err, ftnet.ErrNotTolerated):
		t.metrics.reembedNotTol.Add(1)
		res = result{err: err}
	default:
		t.metrics.reembedErr.Add(1)
		res = result{err: err}
	}
	for _, w := range waiters {
		w <- res
	}
}

// shutdown applies every request still queued (an asynchronous mutation
// was already answered 202 Accepted, so dropping it would break that
// promise) and flushes with a final eval, so a snapshot written at exit
// reflects everything the daemon accepted. Remaining waiters get the
// flush outcome; submit stops accepting once stopc is closed.
func (t *topology) shutdown() {
	for {
		select {
		case req := <-t.reqs:
			t.apply(req)
		default:
			t.publishFaults()
			if t.pendingMuts > 0 || len(t.waiters) > 0 {
				t.eval()
			}
			return
		}
	}
}
