package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftnet"
	"ftnet/client"
	"ftnet/internal/fterr"
	"ftnet/internal/rng"
	"ftnet/internal/server"
	"ftnet/internal/validate"
	"ftnet/internal/wire"
)

// runLoadgen benchmarks the ftnetd serve paths under synthetic
// many-client load: it starts an in-process daemon on a loopback
// listener, drives a churn process against it over the real HTTP wire,
// and hammers the embedding endpoint with mixed reader fleets —
// JSON-full pollers, binary-full pollers, binary-delta (?since=)
// pollers, and /watch subscribers. It reports per-mode latency
// quantiles and bytes-per-observed-update, the numbers behind
// BENCH_pr6.json.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	side := fs.Int("side", 64, "guest torus side")
	dims := fs.Int("d", 2, "guest dimension")
	eps := fs.Float64("eps", 0.5, "maximum node redundancy")
	duration := fs.Duration("duration", 10*time.Second, "measurement window (excludes warmup)")
	warmup := fs.Duration("warmup", 5*time.Second, "settle time before samples count: connection dials and bootstrap fetches measure startup, not the serve paths")
	jsonClients := fs.Int("json-clients", 8, "JSON full-embedding pollers")
	binFullClients := fs.Int("binfull-clients", 2, "binary full-embedding pollers")
	deltaClients := fs.Int("delta-clients", 8, "binary delta (?since=) pollers")
	watchClients := fs.Int("watch-clients", 2, "/watch stream subscribers")
	pollInterval := fs.Duration("poll-interval", 50*time.Millisecond, "poller sleep between requests")
	churnRate := fs.Float64("churn-rate", 50, "fault mutations per second driven against the topology")
	churnNodes := fs.Int("churn-nodes", 4, "node indices per mutation batch")
	edgeChurnRate := fs.Float64("edge-churn-rate", 10, "edge-fault mutations per second driven against the topology (0 = node churn only)")
	edgeChurnEdges := fs.Int("edge-churn-edges", 2, "host edges per edge mutation batch")
	deltaRing := fs.Int("delta-ring", server.DefaultDeltaRing, "delta ring length for the hosted topology")
	seed := fs.Uint64("seed", 1, "churn placement seed")
	out := fs.String("out", "", "write the JSON report to this file (default stdout)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole harness (server + fleet) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := validate.Positive("loadgen: -churn-rate", *churnRate); err != nil {
		return err
	}
	if err := validate.Positive("loadgen: -duration (seconds)", duration.Seconds()); err != nil {
		return err
	}
	if err := validate.Positive("loadgen: -poll-interval (seconds)", pollInterval.Seconds()); err != nil {
		return err
	}
	if *warmup < 0 {
		return fterr.New(fterr.Invalid, "loadgen", "-warmup must be >= 0, got %v", *warmup)
	}
	for _, c := range []struct {
		name string
		v    int
	}{
		{"-json-clients", *jsonClients},
		{"-binfull-clients", *binFullClients},
		{"-delta-clients", *deltaClients},
		{"-watch-clients", *watchClients},
	} {
		if err := validate.Min("loadgen: "+c.name, c.v, 0); err != nil {
			return err
		}
	}
	if err := validate.Min("loadgen: -churn-nodes", *churnNodes, 1); err != nil {
		return err
	}
	if err := validate.Rate("loadgen: -edge-churn-rate", *edgeChurnRate); err != nil {
		return err
	}
	if *edgeChurnRate > 0 {
		if err := validate.Min("loadgen: -edge-churn-edges", *edgeChurnEdges, 1); err != nil {
			return err
		}
	}
	if err := validate.Min("loadgen: -delta-ring", *deltaRing, 1); err != nil {
		return err
	}

	cfg := server.Config{
		Topologies: []server.TopologyConfig{{ID: "load", D: *dims, MinSide: *side, MaxEps: *eps}},
		DeltaRing:  *deltaRing,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	// The warmup clock starts as soon as the daemon is up: everything
	// after this point (listener dials, bootstrap fetches) is the startup
	// transient that warmup exists to absorb.
	measureFrom := time.Now().Add(*warmup)
	jsonStats := newModeStats(measureFrom)
	binFullStats := newModeStats(measureFrom)
	deltaStats := newModeStats(measureFrom)
	watchStats := newModeStats(measureFrom)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: &serveTimer{
		inner: srv.Handler(),
		json:  jsonStats, binFull: binFullStats, delta: deltaStats,
	}}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	rootURL := "http://" + ln.Addr().String()
	base := rootURL + "/v1/topologies/load"

	totalClients := *jsonClients + *binFullClients + *deltaClients + *watchClients
	httpClient := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        totalClients + 8,
		MaxIdleConnsPerHost: totalClients + 8,
	}}

	info := struct {
		HostNodes int `json:"host_nodes"`
	}{}
	if err := getJSON(httpClient, base, &info); err != nil {
		return fmt.Errorf("loadgen: topology info: %w", err)
	}
	startGen, err := headGeneration(httpClient, base)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *warmup+*duration)
	defer cancel()
	var wg sync.WaitGroup

	// The SDK-backed fleet members (churn, delta pollers, watchers) share
	// the harness transport but carry their own retry state; a distinct
	// jitter seed per member keeps their backoff sequences decorrelated.
	newSDK := func(stream uint64) (*client.Client, error) {
		return client.New(client.Options{
			BaseURL:  rootURL,
			Topology: "load", HTTPClient: httpClient,
			MaxRetries:  3,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  100 * time.Millisecond,
			Seed:        *seed ^ (stream+1)*0x9e3779b97f4a7c15,
		})
	}
	churnSDK, err := newSDK(0)
	if err != nil {
		return err
	}
	churn := &churnDriver{
		sdk:       churnSDK,
		hostNodes: info.HostNodes, batch: *churnNodes,
		interval: time.Duration(float64(time.Second) / *churnRate),
		rng:      rng.NewPCG(*seed, 7),
	}
	wg.Add(1)
	go func() { defer wg.Done(); churn.run(ctx) }()

	edgeChurn := &edgeChurnDriver{}
	if *edgeChurnRate > 0 {
		// Edge batches must name real host edges; the daemon's host
		// construction is deterministic, so an identical local host
		// provides the adjacency oracle.
		pool, err := edgePool(*dims, *side, *eps, 256, *seed)
		if err != nil {
			return err
		}
		edgeSDK, err := newSDK(1 << 32)
		if err != nil {
			return err
		}
		edgeChurn = &edgeChurnDriver{
			sdk:      edgeSDK,
			pool:     pool,
			batch:    *edgeChurnEdges,
			interval: time.Duration(float64(time.Second) / *edgeChurnRate),
			rng:      rng.NewPCG(*seed, 11),
		}
		wg.Add(1)
		go func() { defer wg.Done(); edgeChurn.run(ctx) }()
	}

	// Pollers start phase-staggered across the interval: a real fleet is
	// unsynchronized, and a lockstep herd would measure queueing behind
	// its own bursts instead of the serve paths.
	stagger := func(i, n int) time.Duration {
		return *pollInterval * time.Duration(i) / time.Duration(n)
	}
	for i := 0; i < *jsonClients; i++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			if sleepCtx(ctx, d) {
				pollFull(ctx, httpClient, base, "", *pollInterval, jsonStats)
			}
		}(stagger(i, *jsonClients))
	}
	for i := 0; i < *binFullClients; i++ {
		wg.Add(1)
		go func(d time.Duration) {
			defer wg.Done()
			if sleepCtx(ctx, d) {
				pollFull(ctx, httpClient, base, wire.ContentType, *pollInterval, binFullStats)
			}
		}(stagger(i, *binFullClients))
	}
	for i := 0; i < *deltaClients; i++ {
		sdk, err := newSDK(uint64(i) + 1)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(sdk *client.Client, d time.Duration) {
			defer wg.Done()
			if sleepCtx(ctx, d) {
				pollDelta(ctx, sdk, *pollInterval, deltaStats)
			}
		}(sdk, stagger(i, *deltaClients))
	}
	for i := 0; i < *watchClients; i++ {
		sdk, err := newSDK(uint64(*deltaClients+i) + 1)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(sdk *client.Client) { defer wg.Done(); watchStream(ctx, sdk, watchStats) }(sdk)
	}

	wg.Wait()
	endGen, err := headGeneration(httpClient, base)
	if err != nil {
		return err
	}

	report := buildReport(loadgenConfig{
		Side: *side, Dims: *dims, Duration: duration.String(), Warmup: warmup.String(),
		JSONClients: *jsonClients, BinFullClients: *binFullClients,
		DeltaClients: *deltaClients, WatchClients: *watchClients,
		PollInterval: pollInterval.String(), ChurnRate: *churnRate,
		ChurnNodes: *churnNodes, EdgeChurnRate: *edgeChurnRate,
		EdgeChurnEdges: *edgeChurnEdges, DeltaRing: *deltaRing,
	}, jsonStats, binFullStats, deltaStats, watchStats, churn, edgeChurn, endGen-startGen)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("loadgen: %d clients, %d commits observed; report written to %s\n",
		totalClients, endGen-startGen, *out)
	return nil
}

// ---------------------------------------------------------------------------
// Stats.

// serveTimer is the harness's serve-path instrument: it wraps the
// daemon's handler and times each embedding GET inside the server,
// classified by response mode. Client-observed latencies in this
// harness include the fleet's own scheduling — a thousand in-process
// pollers share the host's cores with the daemon, so a client-side
// stopwatch measures the harness queueing on itself as much as the
// server. Handler duration is the cost the serve path actually pays
// per request, which is what BENCH_pr6.json compares across modes.
type serveTimer struct {
	inner                http.Handler
	json, binFull, delta *modeStats
}

func (t *serveTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var m *modeStats
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/embedding") {
		wireAccept := r.Header.Get("Accept") == wire.ContentType
		since := r.URL.Query().Has("since")
		switch {
		case wireAccept && since:
			m = t.delta
		case wireAccept:
			m = t.binFull
		case !since:
			m = t.json
		}
	}
	if m == nil {
		t.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.inner.ServeHTTP(w, r)
	m.recordServe(time.Since(start))
}

type modeStats struct {
	// Samples before measureFrom are dropped: they time the startup
	// transient (dials, bootstrap decodes), not steady-state serving.
	measureFrom time.Time

	mu        sync.Mutex
	lats      []float64 // seconds per request, client-observed
	serveLats []float64 // seconds per request inside the handler (serveTimer)
	bytes     int64
	requests  int64
	updates   int64 // responses that carried a not-yet-seen generation
	resyncs   int64 // delta pollers: 410 responses answered with a full refetch
	errors    int64
	// Delta pollers: full-snapshot fetches (bootstrap and post-410
	// refetch) and their bytes, kept out of the steady-state samples.
	bootstraps     int64
	bootstrapBytes int64
}

func newModeStats(measureFrom time.Time) *modeStats {
	return &modeStats{measureFrom: measureFrom}
}

func (m *modeStats) record(lat time.Duration, n int, newGen bool) {
	if time.Now().Before(m.measureFrom) {
		return
	}
	m.mu.Lock()
	m.lats = append(m.lats, lat.Seconds())
	m.bytes += int64(n)
	m.requests++
	if newGen {
		m.updates++
	}
	m.mu.Unlock()
}

func (m *modeStats) recordServe(lat time.Duration) {
	if time.Now().Before(m.measureFrom) {
		return
	}
	m.mu.Lock()
	m.serveLats = append(m.serveLats, lat.Seconds())
	m.mu.Unlock()
}

func (m *modeStats) fail() {
	m.mu.Lock()
	m.errors++
	m.mu.Unlock()
}

func (m *modeStats) resync() {
	m.mu.Lock()
	m.resyncs++
	m.mu.Unlock()
}

func (m *modeStats) bootstrap(n int) {
	m.mu.Lock()
	m.bootstraps++
	m.bootstrapBytes += int64(n)
	m.mu.Unlock()
}

type modeReport struct {
	Clients        int     `json:"clients"`
	Requests       int64   `json:"requests"`
	Updates        int64   `json:"updates"`
	Bytes          int64   `json:"bytes"`
	BytesPerUpdate float64 `json:"bytes_per_update"`
	P50Ms          float64 `json:"p50_ms"`
	P99Ms          float64 `json:"p99_ms"`
	ServeP50Ms     float64 `json:"serve_p50_ms"`
	ServeP99Ms     float64 `json:"serve_p99_ms"`
	Resyncs        int64   `json:"resyncs,omitempty"`
	Errors         int64   `json:"errors,omitempty"`
	Bootstraps     int64   `json:"bootstraps,omitempty"`
	BootstrapBytes int64   `json:"bootstrap_bytes,omitempty"`
}

func (m *modeStats) report(clients int) modeReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := modeReport{
		Clients: clients, Requests: m.requests, Updates: m.updates,
		Bytes: m.bytes, Resyncs: m.resyncs, Errors: m.errors,
		Bootstraps: m.bootstraps, BootstrapBytes: m.bootstrapBytes,
	}
	if m.updates > 0 {
		r.BytesPerUpdate = float64(m.bytes) / float64(m.updates)
	}
	if len(m.lats) > 0 {
		sort.Float64s(m.lats)
		r.P50Ms = quantile(m.lats, 0.50) * 1e3
		r.P99Ms = quantile(m.lats, 0.99) * 1e3
	}
	if len(m.serveLats) > 0 {
		sort.Float64s(m.serveLats)
		r.ServeP50Ms = quantile(m.serveLats, 0.50) * 1e3
		r.ServeP99Ms = quantile(m.serveLats, 0.99) * 1e3
	}
	return r
}

// quantile reads the q-quantile off sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

type loadgenConfig struct {
	Side           int     `json:"side"`
	Dims           int     `json:"dims"`
	Duration       string  `json:"duration"`
	Warmup         string  `json:"warmup"`
	JSONClients    int     `json:"json_clients"`
	BinFullClients int     `json:"binfull_clients"`
	DeltaClients   int     `json:"delta_clients"`
	WatchClients   int     `json:"watch_clients"`
	PollInterval   string  `json:"poll_interval"`
	ChurnRate      float64 `json:"churn_rate"`
	ChurnNodes     int     `json:"churn_nodes"`
	EdgeChurnRate  float64 `json:"edge_churn_rate"`
	EdgeChurnEdges int     `json:"edge_churn_edges"`
	DeltaRing      int     `json:"delta_ring"`
}

type loadgenReport struct {
	Config loadgenConfig         `json:"config"`
	Modes  map[string]modeReport `json:"modes"`
	Churn  struct {
		Mutations     int64 `json:"mutations"`
		Rejected      int64 `json:"rejected"`
		EdgeMutations int64 `json:"edge_mutations"`
		EdgeRejected  int64 `json:"edge_rejected"`
		Commits       int64 `json:"commits"`
	} `json:"churn"`
	Acceptance struct {
		DeltaBytesPerUpdateRatio float64 `json:"delta_bytes_per_update_vs_json_full"`
		DeltaServeP99Ms          float64 `json:"delta_serve_p99_ms"`
		JSONFullServeP50Ms       float64 `json:"json_full_serve_p50_ms"`
		DeltaP99BelowFullP50     bool    `json:"delta_p99_below_json_full_p50"`
	} `json:"acceptance"`
}

func buildReport(cfg loadgenConfig, jsonStats, binFullStats, deltaStats, watchStats *modeStats,
	churn *churnDriver, edgeChurn *edgeChurnDriver, commits int64) loadgenReport {
	rep := loadgenReport{Config: cfg, Modes: map[string]modeReport{
		"json_full": jsonStats.report(cfg.JSONClients),
		"bin_full":  binFullStats.report(cfg.BinFullClients),
		"bin_delta": deltaStats.report(cfg.DeltaClients),
		"watch":     watchStats.report(cfg.WatchClients),
	}}
	rep.Churn.Mutations = churn.mutations.Load()
	rep.Churn.Rejected = churn.rejected.Load()
	rep.Churn.EdgeMutations = edgeChurn.mutations.Load()
	rep.Churn.EdgeRejected = edgeChurn.rejected.Load()
	rep.Churn.Commits = commits
	jf, bd := rep.Modes["json_full"], rep.Modes["bin_delta"]
	if jf.BytesPerUpdate > 0 {
		rep.Acceptance.DeltaBytesPerUpdateRatio = bd.BytesPerUpdate / jf.BytesPerUpdate
	}
	// The latency criterion compares serve-path quantiles (handler
	// duration, see serveTimer): what each mode costs the daemon per
	// request, independent of the in-process fleet queueing on itself.
	rep.Acceptance.DeltaServeP99Ms = bd.ServeP99Ms
	rep.Acceptance.JSONFullServeP50Ms = jf.ServeP50Ms
	rep.Acceptance.DeltaP99BelowFullP50 = bd.ServeP99Ms > 0 && bd.ServeP99Ms < jf.ServeP50Ms
	return rep
}

// ---------------------------------------------------------------------------
// Client fleets.

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fterr.New(fterr.CodeForStatus(resp.StatusCode), "loadgen", "GET %s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, out)
}

func headGeneration(client *http.Client, base string) (int64, error) {
	st := struct {
		Generation int64 `json:"generation"`
	}{}
	if err := getJSON(client, base, &st); err != nil {
		return 0, err
	}
	return st.Generation, nil
}

// pollFull is one full-embedding poller (JSON or binary by accept).
func pollFull(ctx context.Context, client *http.Client, base, accept string, interval time.Duration, st *modeStats) {
	lastGen := int64(-1)
	for sleepCtx(ctx, interval) {
		req, _ := http.NewRequestWithContext(ctx, "GET", base+"/embedding", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				st.fail()
			}
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		lat := time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK {
			if ctx.Err() == nil {
				st.fail()
			}
			continue
		}
		gen := int64(-1)
		if accept == wire.ContentType {
			if s, err := wire.DecodeSnapshot(body); err == nil {
				gen = s.Generation
			}
		} else {
			// A full json.Unmarshal of the ~36k-entry map costs several
			// milliseconds per poll; across a 1k-client fleet on few cores
			// that client-side cost would dominate the serve-path latencies
			// this harness exists to measure. The generation field is all
			// the poller needs, so scan just for it.
			gen = scanGeneration(body)
		}
		st.record(lat, len(body), gen > lastGen)
		if gen > lastGen {
			lastGen = gen
		}
	}
}

// pollDelta is one binary ?since= poller, rewired on the resilient SDK:
// Sync keeps a local snapshot current by applying served deltas (in
// place, checksum re-verified), transparently resyncing from the full
// embedding whenever the ring answers 410. The SDK's counters are
// differenced around each call to keep the harness's per-mode
// accounting (updates, resync costs, bytes) intact.
func pollDelta(ctx context.Context, sdk *client.Client, interval time.Duration, st *modeStats) {
	prev := sdk.Stats()
	for sleepCtx(ctx, interval) {
		start := time.Now()
		_, err := sdk.Sync(ctx)
		lat := time.Since(start)
		cur := sdk.Stats()
		n := int(cur.BytesRead - prev.BytesRead)
		switch {
		case err != nil:
			if ctx.Err() == nil {
				st.fail()
			}
		case cur.FullFetches > prev.FullFetches:
			// A full-snapshot fetch only happens at bootstrap or right
			// after an eviction/corruption resync; it is the resync cost,
			// not the steady-state delta serve path, so it is tallied
			// separately.
			if cur.Resyncs > prev.Resyncs {
				st.resync()
			}
			st.bootstrap(n)
		default:
			st.record(lat, n, cur.DeltaApplies > prev.DeltaApplies)
		}
		prev = cur
	}
}

// watchStream is one subscriber on the SDK's reconnecting commit
// stream: it counts delivered events and their wire bytes (latency is
// not meaningful per event).
func watchStream(ctx context.Context, sdk *client.Client, st *modeStats) {
	lastGen := int64(-1)
	var prevBytes int64
	err := sdk.Watch(ctx, func(ev client.Event) error {
		cur := sdk.Stats().BytesRead
		newGen := ev.Generation > lastGen
		if newGen {
			lastGen = ev.Generation
		}
		st.record(0, int(cur-prevBytes), newGen)
		prevBytes = cur
		return nil
	})
	if ctx.Err() == nil && err != nil {
		st.fail()
	}
}

// scanGeneration pulls the "generation" value out of an embedding or
// delta JSON document without parsing the (large) rest; -1 if absent.
func scanGeneration(body []byte) int64 {
	const key = `"generation":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return -1
	}
	gen := int64(-1)
	for _, c := range body[i+len(key):] {
		if c < '0' || c > '9' {
			break
		}
		if gen < 0 {
			gen = 0
		}
		gen = gen*10 + int64(c-'0')
	}
	return gen
}

// sleepCtx sleeps for d; false when the context expired instead.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// ---------------------------------------------------------------------------
// Churn driver.

// churnDriver keeps the topology's fault set moving over the real wire:
// it alternates between reporting a fresh batch of random faults and
// repairing the oldest outstanding batch, healing immediately whenever
// the construction rejects a batch (422), so the topology keeps
// committing fresh generations for the reader fleets to chase.
type churnDriver struct {
	sdk       *client.Client
	hostNodes int
	batch     int
	interval  time.Duration
	rng       *rng.PCG

	mutations atomic.Int64
	rejected  atomic.Int64
}

func (c *churnDriver) run(ctx context.Context) {
	var window [][]int
	const maxWindow = 8
	for sleepCtx(ctx, c.interval) {
		if len(window) >= maxWindow {
			batch := window[0]
			window = window[1:]
			c.mutate(ctx, true, batch)
			continue
		}
		batch := make([]int, c.batch)
		for i := range batch {
			batch[i] = c.rng.Intn(c.hostNodes)
		}
		if c.mutate(ctx, false, batch) {
			window = append(window, batch)
		} else {
			// Rejected (not_tolerated) or failed: repair immediately so
			// the state heals instead of wedging every later eval.
			c.mutate(ctx, true, batch)
		}
	}
	// Leave the topology clean.
	for _, batch := range window {
		c.mutate(context.Background(), true, batch)
	}
}

// mutate reports one batch synchronously through the SDK (clear=true
// repairs, otherwise reports); true means the evaluation committed.
func (c *churnDriver) mutate(ctx context.Context, clear bool, nodes []int) bool {
	var err error
	if clear {
		_, err = c.sdk.ClearFaults(ctx, nodes...)
	} else {
		_, err = c.sdk.AddFaults(ctx, nodes...)
	}
	c.mutations.Add(1)
	if ftnet.IsCode(err, ftnet.CodeNotTolerated) {
		c.rejected.Add(1)
		return false
	}
	return err == nil
}

// edgePool samples poolSize distinct host edges from a locally built
// host identical to the daemon's (the construction is deterministic):
// random anchors, one adjacent partner each, canonical {u, v}.
func edgePool(dims, side int, eps float64, poolSize int, seed uint64) ([][2]int, error) {
	host, err := ftnet.NewRandomFaultTorus(dims, side, eps)
	if err != nil {
		return nil, err
	}
	ses := host.NewSession()
	n := host.HostNodes()
	r := rng.NewPCG(seed, 13)
	seen := make(map[[2]int]bool, poolSize)
	pool := make([][2]int, 0, poolSize)
	for len(pool) < poolSize {
		u := r.Intn(n - 1)
		for v := u + 1; v < n; v++ {
			if ses.Adjacent(u, v) {
				e := [2]int{u, v}
				if !seen[e] {
					seen[e] = true
					pool = append(pool, e)
				}
				break
			}
		}
	}
	return pool, nil
}

// edgeChurnDriver keeps the topology's edge-fault set moving over the
// real wire, mirroring churnDriver on the /edge-faults endpoints: it
// alternates between flapping a fresh batch of pooled host edges and
// repairing the oldest outstanding batch, healing immediately whenever
// the construction rejects a batch, so mixed node+edge populations keep
// committing fresh generations.
type edgeChurnDriver struct {
	sdk      *client.Client
	pool     [][2]int
	batch    int
	interval time.Duration
	rng      *rng.PCG

	mutations atomic.Int64
	rejected  atomic.Int64
}

func (c *edgeChurnDriver) run(ctx context.Context) {
	var window [][][2]int
	outstanding := make(map[[2]int]bool)
	const maxWindow = 8
	for sleepCtx(ctx, c.interval) {
		if len(window) >= maxWindow {
			batch := window[0]
			window = window[1:]
			c.mutate(ctx, true, batch)
			for _, e := range batch {
				delete(outstanding, e)
			}
			continue
		}
		// Draw distinct pool edges not already faulty. The daemon accepts
		// a duplicate inside one batch (the second report is a no-op),
		// but the batch's repair would then clear that edge twice, as
		// would re-adding an edge an earlier batch still holds.
		batch := make([][2]int, 0, c.batch)
		for attempts := 0; len(batch) < c.batch && attempts < 4*c.batch; attempts++ {
			e := c.pool[c.rng.Intn(len(c.pool))]
			if !outstanding[e] {
				outstanding[e] = true
				batch = append(batch, e)
			}
		}
		if len(batch) == 0 {
			continue
		}
		if c.mutate(ctx, false, batch) {
			window = append(window, batch)
		} else {
			c.mutate(ctx, true, batch)
			for _, e := range batch {
				delete(outstanding, e)
			}
		}
	}
	for _, batch := range window {
		c.mutate(context.Background(), true, batch)
	}
}

// mutate reports one edge batch synchronously through the SDK
// (clear=true repairs); true means the evaluation committed.
func (c *edgeChurnDriver) mutate(ctx context.Context, clear bool, edges [][2]int) bool {
	var err error
	if clear {
		_, err = c.sdk.ClearEdgeFaults(ctx, edges...)
	} else {
		_, err = c.sdk.AddEdgeFaults(ctx, edges...)
	}
	c.mutations.Add(1)
	if ftnet.IsCode(err, ftnet.CodeNotTolerated) {
		c.rejected.Add(1)
		return false
	}
	return err == nil
}
