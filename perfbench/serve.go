package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ftnet"
	"ftnet/client"
	"ftnet/internal/core"
	"ftnet/internal/fault"
	"ftnet/internal/rng"
	"ftnet/internal/server"
	"ftnet/internal/wire"
)

const (
	serveTopology   = "bench"
	serveRate       = 35  // writer mutations per second, open loop
	serveNodeShare  = 0.8 // share of faults that are node faults
	serveBlock      = 35  // mutations per mode block
	serveCountOps   = 200 // mutations the count metrics cover
	serveCheckEvery = 50  // every Kth commit is checked against a from-scratch Extract
	serveTimeout    = 10 * time.Second
)

// serveBench is an in-process ftnetd on a loopback listener with two
// connections: a sequential writer that mutates on a fixed schedule and
// keeps a binary replica through ?since= deltas, and a client.Watch
// subscriber.
type serveBench struct {
	g       *core.Graph
	host    *ftnet.RandomFaultTorus
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	httpc   *http.Client
	writer  *client.Client
	watch   *watcher
	replica *wire.Snapshot
	mirror  *fault.Charger // the faults the writer has reported
	rnd     *rng.PCG
	nbuf    []int
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func setupServe(cfg *config) (bench, error) {
	g, err := buildGraph()
	if err != nil {
		return nil, err
	}
	host, err := newHost()
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Topologies: []server.TopologyConfig{
		{ID: serveTopology, D: hostDims, MinSide: hostSide, MaxEps: hostEps},
	}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &serveBench{
		g: g, host: host, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: serveTimeout},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		httpc:  newHTTPClient(),
		mirror: fault.NewCharger(g.NumNodes()),
		rnd:    rng.NewPCG(cfg.seed, 7),
	}
	// The standing population: the churn workload's mean fault count,
	// drawn with the writer's own node and edge mix.
	for range int(math.Round(faultScale * g.P.TheoremFailureProb() * float64(g.NumNodes()))) {
		s.add()
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// start posts the standing population, bootstraps the replica from the
// full binary embedding and subscribes the watcher.
func (s *serveBench) start() error {
	var err error
	s.writer, err = client.New(client.Options{BaseURL: s.base, Topology: serveTopology, HTTPClient: s.httpc, RequestTimeout: serveTimeout})
	if err != nil {
		return err
	}
	ctx := context.Background()
	if nodes := s.mirror.Nodes().Slice(); len(nodes) > 0 {
		if _, err := s.writer.AddFaults(ctx, nodes...); err != nil && ftnet.CodeOf(err) != ftnet.CodeNotTolerated {
			return err
		}
	}
	if edges := pairs(nil, s.mirror.Edges().Slice()); len(edges) > 0 {
		if _, err := s.writer.AddEdgeFaults(ctx, edges...); err != nil && ftnet.CodeOf(err) != ftnet.CodeNotTolerated {
			return err
		}
	}
	body, err := s.get(ctx, "/embedding", wire.ContentType)
	if err != nil {
		return err
	}
	if s.replica, err = wire.DecodeSnapshot(body); err != nil {
		return err
	}
	if wire.Checksum(s.replica.Map) != s.replica.Checksum {
		return fmt.Errorf("bootstrap snapshot fails its checksum")
	}
	watchHTTP := newHTTPClient()
	wc, err := client.New(client.Options{BaseURL: s.base, Topology: serveTopology, HTTPClient: watchHTTP, RequestTimeout: serveTimeout})
	if err != nil {
		return err
	}
	s.watch = startWatcher(wc, watchHTTP)
	return s.watch.waitFor(s.replica.Generation)
}

func (s *serveBench) close() {
	if s.watch != nil {
		s.watch.stop()
	}
	s.srv.DisconnectWatchers()
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	// Shutdown only fails on the timeout, and Close below ends whatever
	// it left; without a snapshot directory Close has nothing to fail on.
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Close()
	s.httpc.CloseIdleConnections()
}

// get fetches a topology resource over the writer's connection.
func (s *serveBench) get(ctx context.Context, path, accept string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/v1/topologies/"+serveTopology+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	return s.do(req)
}

func (s *serveBench) do(req *http.Request) ([]byte, error) {
	resp, err := s.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, client.ParseErrorBody(resp.StatusCode, body)
	}
	return body, nil
}

// evalStats reads the server's reembed latency sum and count.
func (s *serveBench) evalStats(ctx context.Context) (sum, count float64, err error) {
	req, err := http.NewRequestWithContext(ctx, "GET", s.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	body, err := s.do(req)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, _ := strings.Cut(sc.Text(), " ")
		var dst *float64
		switch name {
		case `ftnetd_reembed_latency_seconds_sum{topology="` + serveTopology + `"}`:
			dst = &sum
		case `ftnetd_reembed_latency_seconds_count{topology="` + serveTopology + `"}`:
			dst = &count
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, err
		}
		found++
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("metrics lack ftnetd_reembed_latency_seconds for %q", serveTopology)
	}
	return sum, count, nil
}

type mutationKind uint8

const (
	addNode mutationKind = iota
	clearNode
	addEdge
	clearEdge
)

type mutation struct {
	kind mutationKind
	u, v int
}

// next draws mutation op and records it on the mirror: even operations
// add a fault, odd ones clear a uniformly chosen current fault, so the
// population holds at its starting size.
func (s *serveBench) next(op int) mutation {
	nodes, edges := s.mirror.Nodes(), s.mirror.Edges()
	total := nodes.Count() + edges.Count()
	if op%2 == 0 || total == 0 {
		return s.add()
	}
	k := s.rnd.Intn(total)
	if k < nodes.Count() {
		v := nodes.Nth(k)
		s.mirror.ClearNode(v)
		return mutation{kind: clearNode, v: v}
	}
	e := edges.Nth(k - nodes.Count())
	s.mirror.ClearEdge(e.U, e.V)
	return mutation{kind: clearEdge, u: e.U, v: e.V}
}

// add draws a new fault, a node with probability serveNodeShare and an
// edge otherwise, and records it on the mirror.
func (s *serveBench) add() mutation {
	n := s.g.NumNodes()
	if s.rnd.Float64() < serveNodeShare {
		for {
			if v := s.rnd.Intn(n); !s.mirror.Nodes().Has(v) {
				s.mirror.AddNode(v)
				return mutation{kind: addNode, v: v}
			}
		}
	}
	for {
		u := s.rnd.Intn(n)
		s.nbuf = s.g.Neighbors(u, s.nbuf[:0])
		if v := s.nbuf[s.rnd.Intn(len(s.nbuf))]; v != u && !s.mirror.Edges().Has(u, v) {
			s.mirror.AddEdge(u, v)
			return mutation{kind: addEdge, u: u, v: v}
		}
	}
}

// post sends one mutation as a synchronous request.
func (s *serveBench) post(ctx context.Context, mu mutation) (client.State, error) {
	switch mu.kind {
	case addNode:
		return s.writer.AddFaults(ctx, mu.v)
	case clearNode:
		return s.writer.ClearFaults(ctx, mu.v)
	case addEdge:
		return s.writer.AddEdgeFaults(ctx, [2]int{mu.u, mu.v})
	default:
		return s.writer.ClearEdgeFaults(ctx, [2]int{mu.u, mu.v})
	}
}

// commit is one generation the writer's mutations committed.
type commit struct {
	op       int
	traced   bool
	gen      int64
	checksum uint64
	due, ack time.Time
}

func (s *serveBench) measure(cfg *config, r *report) (*tracer, error) {
	ctx := context.Background()
	tr := newTracer()
	m := &modes{traced: cfg.trace, block: serveBlock}
	interval := time.Second / serveRate
	total := max(serveCountOps, int(cfg.seconds*serveRate))
	var (
		commits              []commit
		late                 []float64
		notTolerated         int
		wireBytes, wireDelta int
	)
	retries0 := s.writer.Stats().Retries
	evalSum0, evalCount0, err := s.evalStats(ctx)
	if err != nil {
		return nil, err
	}
	w := openWindow()
	t0 := w.start
	for op := 0; op < total; op++ {
		mode := m.of(op)
		tr.on = mode == 1
		start, paused := time.Now(), w.paused
		// A check pause shifts the rest of the schedule.
		due := t0.Add(time.Duration(op)*interval + w.paused)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, ms(time.Since(due)))
		id := tr.beginAt(spLoadgenOp, -1, int64(op), due)
		mu := s.next(op)
		sp := tr.begin(spClientPost, id, int64(op))
		st, err := s.post(ctx, mu)
		ack := time.Now()
		tr.end(sp)
		committed := false
		switch {
		case err == nil:
			body, cerr := s.catchUp(ctx, tr, id, int64(op), st)
			if cerr != nil {
				r.fail("mutation %d: %v", op, cerr)
				break
			}
			committed = true
			commits = append(commits, commit{op: op, traced: mode == 1, gen: st.Generation, checksum: s.replica.Checksum, due: due, ack: ack})
			if op < serveCountOps {
				wireBytes += len(body)
				wireDelta++
			}
		case ftnet.CodeOf(err) == ftnet.CodeNotTolerated:
			if op < serveCountOps {
				notTolerated++
			}
		default:
			r.fail("mutation %d: %v", op, err)
		}
		tr.end(id)
		lat := time.Since(due)
		if committed && len(commits)%serveCheckEvery == 0 {
			cs := tr.begin(spBenchCheck, -1, int64(op))
			resume := w.pause()
			if cerr := s.check(); cerr != nil {
				r.fail("mutation %d: %v", op, cerr)
			}
			resume()
			tr.end(cs)
		}
		m.record(lat, time.Since(start)-(w.paused-paused))
	}
	ws := w.close()
	r.attempted = int64(total)
	if n := s.writer.Stats().Retries - retries0; n > 0 {
		r.fail("writer retried %d requests", n)
	}
	evalSum, evalCount, err := s.evalStats(ctx)
	if err != nil {
		return nil, err
	}
	if evalCount > evalCount0 {
		r.set("server.eval_ms", 1000*(evalSum-evalSum0)/(evalCount-evalCount0), int(evalCount-evalCount0))
	}

	// Delivery: every committed generation must reach the watcher, in
	// order, once, with the checksum the writer verified.
	var deliver []float64
	if len(commits) > 0 {
		if err := s.watch.waitFor(commits[len(commits)-1].gen); err != nil {
			r.fail("%v", err)
		}
	}
	arrivals, resyncs := s.watch.audit(r)
	for _, c := range commits {
		a, ok := arrivals[c.gen]
		switch {
		case !ok:
			r.fail("generation %d never reached the watcher", c.gen)
			continue
		case a.checksum != fmt.Sprintf("%016x", c.checksum):
			r.fail("generation %d: watcher saw checksum %s, writer %016x", c.gen, a.checksum, c.checksum)
		}
		deliver = append(deliver, ms(a.at.Sub(c.due)))
		if c.traced {
			tr.add(spClientWatch, -1, int64(c.op), c.ack, a.at)
		}
	}
	endToEnd(r, ws, m, deliver)
	r.set("server.not_tolerated_ratio", float64(notTolerated)/serveCountOps, serveCountOps)
	if wireDelta > 0 {
		r.set("wire.bytes_per_op", float64(wireBytes)/float64(wireDelta), wireDelta)
	}
	r.set("loadgen.offered_per_s", serveRate, 1)
	r.set("client.resyncs", float64(resyncs), 1)
	r.set("loadgen.late_p99_ms", quantile(late, 0.99), len(late))
	if cfg.trace {
		for _, q := range []struct {
			name string
			sp   spanName
			us   bool
		}{
			{"client.post_ms", spClientPost, false},
			{"wire.get_ms", spWireGet, false},
			{"wire.decode_us", spWireDecode, true},
			{"wire.apply_us", spWireApply, true},
			{"client.watch_gap_ms", spClientWatch, false},
		} {
			v, n := tr.quantileMS(q.sp, 0.5)
			if q.us {
				v, n = tr.quantileUS(q.sp, 0.5)
			}
			r.set(q.name, v, n)
		}
		tr.reportSelf(r, len(m.latencies(1)))
	}
	heapInuse(r, m)
	return tr, nil
}

// catchUp brings the writer's replica to the generation st committed:
// a ?since= binary delta, decoded, applied and checksummed. It returns
// the delta payload.
func (s *serveBench) catchUp(ctx context.Context, tr *tracer, parent int32, op int64, st client.State) ([]byte, error) {
	if st.Generation != s.replica.Generation+1 {
		return nil, fmt.Errorf("acknowledged generation %d, replica at %d", st.Generation, s.replica.Generation)
	}
	sp := tr.begin(spWireGet, parent, op)
	body, err := s.get(ctx, "/embedding?since="+strconv.FormatInt(s.replica.Generation, 10), wire.ContentType)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(spWireDecode, parent, op)
	d, err := wire.DecodeDelta(body)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	// Apply verifies the patched map against the delta's checksum; the
	// delta's checksum must in turn be the one the POST acknowledged.
	sp = tr.begin(spWireApply, parent, op)
	next, err := wire.Apply(s.replica, d)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%016x", next.Checksum); got != st.Checksum || next.Generation != st.Generation {
		return nil, fmt.Errorf("replica at generation %d has checksum %s, server acknowledged %d with %s", next.Generation, got, st.Generation, st.Checksum)
	}
	s.replica = next
	return body, nil
}

// check compares the replica's fault sets with the writer's own record
// and its map with a from-scratch Extract of the effective faults.
func (s *serveBench) check() error {
	if !slices.Equal(s.replica.Faults, s.mirror.Nodes().Slice()) {
		return fmt.Errorf("replica holds %d node faults, the writer reported %d", len(s.replica.Faults), s.mirror.Nodes().Count())
	}
	if !slices.Equal(s.replica.Edges, pairs(nil, s.mirror.Edges().Slice())) {
		return fmt.Errorf("replica holds %d edge faults, the writer reported %d", len(s.replica.Edges), s.mirror.Edges().Count())
	}
	want, err := extractFresh(s.host, s.mirror.Effective())
	if err != nil {
		return fmt.Errorf("from-scratch extract of a committed state: %v", err)
	}
	if sum := wire.Checksum(want.Map); sum != s.replica.Checksum {
		return fmt.Errorf("replica map %016x, from-scratch map %016x", s.replica.Checksum, sum)
	}
	return nil
}

// arrival is one watch event as the subscriber received it.
type arrival struct {
	gen      int64
	checksum string
	resync   bool
	at       time.Time
}

// watcher runs client.Watch on its own connection and records every
// event with its arrival time.
type watcher struct {
	c      *client.Client
	httpc  *http.Client
	cancel context.CancelFunc
	done   chan error
	got    chan struct{} // signalled after each event
	mu     sync.Mutex
	events []arrival
}

func startWatcher(c *client.Client, httpc *http.Client) *watcher {
	ctx, cancel := context.WithCancel(context.Background())
	w := &watcher{c: c, httpc: httpc, cancel: cancel, done: make(chan error, 1), got: make(chan struct{}, 1)}
	go func() {
		w.done <- c.Watch(ctx, func(ev client.Event) error {
			at := time.Now()
			w.mu.Lock()
			w.events = append(w.events, arrival{gen: ev.Generation, checksum: ev.Checksum, resync: ev.Resync, at: at})
			w.mu.Unlock()
			select {
			case w.got <- struct{}{}:
			default:
			}
			return nil
		})
	}()
	return w
}

// waitFor blocks until the watcher has seen generation gen.
func (w *watcher) waitFor(gen int64) error {
	timeout := time.NewTimer(serveTimeout)
	defer timeout.Stop()
	for {
		w.mu.Lock()
		seen := len(w.events) > 0 && w.events[len(w.events)-1].gen >= gen
		w.mu.Unlock()
		if seen {
			return nil
		}
		select {
		case <-w.got:
		case err := <-w.done:
			w.done <- err // keep it for stop
			return fmt.Errorf("watch ended before generation %d: %v", gen, err)
		case <-timeout.C:
			return fmt.Errorf("watch: generation %d not delivered within %v", gen, serveTimeout)
		}
	}
}

// audit checks the stream for gaps, duplicates and resyncs, counting
// each as a failure, and returns the events by generation and the
// number of resyncs and reconnects.
func (w *watcher) audit(r *report) (map[int64]arrival, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	byGen := make(map[int64]arrival, len(w.events))
	resyncs := 0
	for i, ev := range w.events {
		switch {
		case ev.resync:
			resyncs++
			r.fail("watch: resync at generation %d", ev.gen)
		case i > 0 && ev.gen != w.events[i-1].gen+1:
			r.fail("watch: generation %d after %d", ev.gen, w.events[i-1].gen)
		}
		byGen[ev.gen] = ev
	}
	if st := w.c.Stats(); st.WatchReconnects+st.Resyncs > 0 {
		resyncs += int(st.WatchReconnects + st.Resyncs)
		r.fail("watch: %d reconnects, %d resyncs", st.WatchReconnects, st.Resyncs)
	}
	return byGen, resyncs
}

// stop cancels the watch and waits for it to end; it ends with the
// cancellation, which is not news.
func (w *watcher) stop() {
	w.cancel()
	<-w.done
	w.httpc.CloseIdleConnections()
}
