package server

import (
	"net/http/httptest"
	"strconv"
	"testing"

	"ftnet"
)

// hostEdges returns count distinct host edges incident to spread-out
// anchor nodes, as canonical {u, v} pairs.
func hostEdges(t *testing.T, topo *topology, count int) [][2]int {
	t.Helper()
	n := topo.host.HostNodes()
	out := make([][2]int, 0, count)
	for i := 0; len(out) < count; i++ {
		u := (i*7919 + 13) % (n - 1)
		for v := u + 1; v < n; v++ {
			if topo.ses.Adjacent(u, v) {
				out = append(out, [2]int{u, v})
				break
			}
		}
	}
	return out
}

func TestServeEdgeFaults(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, nil))
	topo := srv.topos["main"]
	edges := hostEdges(t, topo, 3)

	// A synchronous edge-fault report returns the covering evaluation.
	var st stateResponse
	code, _ := doJSON(t, "POST", ts.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: edges}, &st)
	if code != 200 {
		t.Fatalf("POST edge-faults: %d %+v", code, st)
	}
	if st.Generation < 1 || st.EdgeFaultCount != 3 || st.FaultCount != 0 {
		t.Fatalf("state after edge add: %+v", st)
	}

	// The served embedding lists the edges and is bit-identical to an
	// independent session evaluating the same edge-fault set.
	var emb embeddingResponse
	code, _ = doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &emb)
	if code != 200 || len(emb.EdgeFaults) != 3 || len(emb.Faults) != 0 {
		t.Fatalf("GET embedding: %d faults=%v edges=%v", code, emb.Faults, emb.EdgeFaults)
	}
	for _, e := range emb.EdgeFaults {
		if e[0] >= e[1] {
			t.Fatalf("served edge %v not canonical", e)
		}
	}
	host, err := ftnet.NewRandomFaultTorus(2, 64, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ses := host.NewSession()
	if err := ses.AddEdgeFaultsChecked(edges...); err != nil {
		t.Fatal(err)
	}
	want, err := ses.Reembed()
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Map) != len(emb.Map) {
		t.Fatalf("map sizes: got %d want %d", len(emb.Map), len(want.Map))
	}
	for i := range want.Map {
		if want.Map[i] != emb.Map[i] {
			t.Fatalf("map differs from independent edge-charged session at %d", i)
		}
	}

	// The JSON delta carries the head edge-fault set too.
	var d deltaResponse
	code, _ = doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding?since="+itoa(st.Generation), nil, &d)
	if code != 200 || len(d.EdgeFaults) != 3 {
		t.Fatalf("GET delta: %d edges=%v", code, d.EdgeFaults)
	}

	// All-or-nothing: a batch with one invalid edge applies nothing.
	n := topo.host.HostNodes()
	bad := [][2]int{
		{edges[0][0], edges[0][1]}, // valid, but must not slip through
		{7, 7},                     // self-loop
	}
	code, body := doJSON(t, "POST", ts.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: bad}, nil)
	if code != 400 {
		t.Fatalf("self-loop batch: %d %s", code, body)
	}
	for _, tc := range []struct {
		name  string
		edges [][2]int
	}{
		{"out of range", [][2]int{{0, n}}},
		{"negative endpoint", [][2]int{{-1, 3}}},
		{"non-adjacent", [][2]int{nonAdjacentPair(t, topo)}},
		{"empty batch", nil},
	} {
		code, body := doJSON(t, "POST", ts.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: tc.edges}, nil)
		if code != 400 {
			t.Fatalf("%s: %d %s", tc.name, code, body)
		}
	}
	var info topologyInfo
	doJSON(t, "GET", ts.URL+"/v1/topologies/main", nil, &info)
	if info.EdgeFaults != 3 {
		t.Fatalf("rejected batches mutated state: %+v", info)
	}

	// Repair: DELETE clears, and the embedding heals back to the
	// fault-free default.
	code, _ = doJSON(t, "DELETE", ts.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: edges}, &st)
	if code != 200 || st.EdgeFaultCount != 0 {
		t.Fatalf("DELETE edge-faults: %d %+v", code, st)
	}
	var healed embeddingResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &healed)
	empty, err := host.Extract(host.NewFaults())
	if err != nil {
		t.Fatal(err)
	}
	for i := range empty.Map {
		if empty.Map[i] != healed.Map[i] {
			t.Fatalf("healed map differs from fault-free Extract at %d", i)
		}
	}
}

// nonAdjacentPair returns two in-range nodes with no host edge.
func nonAdjacentPair(t *testing.T, topo *topology) [2]int {
	t.Helper()
	n := topo.host.HostNodes()
	for v := n - 1; v > 0; v-- {
		if !topo.ses.Adjacent(0, v) {
			return [2]int{0, v}
		}
	}
	t.Fatal("host is a complete graph?")
	return [2]int{}
}

func itoa(v int64) string {
	return strconv.FormatInt(v, 10)
}

// TestServeEdgeSnapshotRestore verifies the full persistence loop for a
// mixed node+edge population: snapshot, restart, bit-identical replay.
func TestServeEdgeSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) { c.SnapshotDir = dir })

	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	edges := hostEdges(t, srv1.topos["main"], 2)
	var st stateResponse
	code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{5, 1234}}, &st)
	if code != 200 {
		t.Fatalf("POST faults: %d", code)
	}
	code, _ = doJSON(t, "POST", ts1.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: edges}, &st)
	if code != 200 || st.EdgeFaultCount != 2 || st.FaultCount != 2 {
		t.Fatalf("POST edge-faults: %d %+v", code, st)
	}
	code, _ = doJSON(t, "POST", ts1.URL+"/v1/topologies/main/snapshot", nil, &st)
	if code != 200 {
		t.Fatalf("POST snapshot: %d", code)
	}
	var emb1 embeddingResponse
	doJSON(t, "GET", ts1.URL+"/v1/topologies/main/embedding", nil, &emb1)
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := startServer(t, cfg)
	var emb2 embeddingResponse
	doJSON(t, "GET", ts2.URL+"/v1/topologies/main/embedding", nil, &emb2)
	if emb2.Generation != emb1.Generation || emb2.Checksum != emb1.Checksum {
		t.Fatalf("restored state: gen=%d checksum=%s, want gen=%d checksum=%s",
			emb2.Generation, emb2.Checksum, emb1.Generation, emb1.Checksum)
	}
	if len(emb2.EdgeFaults) != 2 || len(emb2.Faults) != 2 {
		t.Fatalf("restored fault sets: faults=%v edges=%v", emb2.Faults, emb2.EdgeFaults)
	}
	for i, e := range emb1.EdgeFaults {
		if emb2.EdgeFaults[i] != e {
			t.Fatalf("restored edge set differs: %v != %v", emb2.EdgeFaults, emb1.EdgeFaults)
		}
	}
	for i := range emb1.Map {
		if emb1.Map[i] != emb2.Map[i] {
			t.Fatalf("restored embedding differs at %d", i)
		}
	}
	if srv2.topos["main"].metrics.restored.Load() != 1 {
		t.Fatal("restored gauge not set")
	}
}

// TestServeEdgeSnapshotUncommittedClear pins the null-versus-empty
// session_faults distinction: clearing every committed fault without a
// successful re-commit must survive a snapshot + restart (an omitted
// field would read as "same as committed" and resurrect the faults).
func TestServeEdgeSnapshotUncommittedClear(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) {
		c.SnapshotDir = dir
		c.FlushInterval = 0
		c.MaxBatchCols = 1 << 20
	})
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	edges := hostEdges(t, srv1.topos["main"], 1)

	// Commit one node fault and one edge fault.
	var st stateResponse
	if code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/faults", mutationRequest{Nodes: []int{17}}, &st); code != 200 {
		t.Fatalf("add: %d", code)
	}
	if code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: edges}, &st); code != 200 {
		t.Fatalf("edge add: %d", code)
	}
	// Clear both asynchronously: recorded in the session, never evaluated.
	if code, _ := doJSON(t, "DELETE", ts1.URL+"/v1/topologies/main/faults?wait=0", mutationRequest{Nodes: []int{17}}, nil); code != 202 {
		t.Fatal("async clear not accepted")
	}
	if code, _ := doJSON(t, "DELETE", ts1.URL+"/v1/topologies/main/edge-faults?wait=0", mutationRequest{Edges: edges}, nil); code != 202 {
		t.Fatal("async edge clear not accepted")
	}
	waitFor(t, "pending clears applied", func() bool {
		// Only the writer-published views are safe to read from here.
		f := srv1.topos["main"].curFaults.Load()
		e := srv1.topos["main"].curEdges.Load()
		return f != nil && len(*f) == 0 && e != nil && len(*e) == 0
	})
	if code, _ := doJSON(t, "POST", ts1.URL+"/v1/topologies/main/snapshot", nil, &st); code != 200 {
		t.Fatal("snapshot failed")
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the clears must still be pending; a flush commits the
	// fault-free state.
	srv2, ts2 := startServer(t, cfg)
	if code, _ := doJSON(t, "POST", ts2.URL+"/v1/topologies/main/reembed", nil, &st); code != 200 {
		t.Fatalf("reembed after restore: %d", code)
	}
	if st.FaultCount != 0 || st.EdgeFaultCount != 0 {
		t.Fatalf("uncommitted clears lost across restart: %+v", st)
	}
	_ = srv2
}
