package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
)

// edgesJSON renders edges as a JSON array of [u,v] pairs.
func edgesJSON(edges [][2]int) string {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("[%d,%d]", e[0], e[1])
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// TestServeMutationRoutes pins the wire contract of the four mutation
// routes byte for byte: the exact ?wait=0 202 body, the 400 for an
// empty batch, and the 400 for a body carrying only the other route's
// field (.../faults reads nodes, .../edge-faults reads edges; neither
// falls back to the other), which must change nothing.
func TestServeMutationRoutes(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, func(c *Config) {
		c.FlushInterval = 0
		c.MaxBatchCols = 1 << 20
	}))
	topo := srv.topos["main"]
	edges := hostEdges(t, topo, 2)
	base := ts.URL + "/v1/topologies/main"
	nodesBody := `{"nodes":[5,77]}`
	edgesBody := `{"edges":` + edgesJSON(edges) + `}`
	routes := []struct {
		method, path string
		other        string // a body carrying only the other route's field
		emptyMsg     string
		good         string // accepted with ?wait=0
		accepted     string // its exact 202 body
	}{
		{"POST", "/faults", edgesBody, "no nodes in request",
			nodesBody, `{"topology":"main","status":"accepted","nodes":2}`},
		{"DELETE", "/faults", edgesBody, "no nodes in request",
			`{"nodes":[5]}`, `{"topology":"main","status":"accepted","nodes":1}`},
		{"POST", "/edge-faults", nodesBody, "no edges in request",
			edgesBody, `{"topology":"main","status":"accepted","nodes":0,"edges":2}`},
		{"DELETE", "/edge-faults", nodesBody, "no edges in request",
			`{"edges":` + edgesJSON(edges[:1]) + `}`, `{"topology":"main","status":"accepted","nodes":0,"edges":1}`},
	}
	field := map[string]string{"/faults": "nodes", "/edge-faults": "edges"}

	for _, rt := range routes {
		for _, body := range []string{`{"` + field[rt.path] + `":[]}`, rt.other} {
			code, resp := doJSON(t, rt.method, base+rt.path, json.RawMessage(body), nil)
			if code != 400 || !strings.Contains(string(resp), rt.emptyMsg) {
				t.Errorf("%s %s %s: %d %s, want 400 %q", rt.method, rt.path, body, code, resp, rt.emptyMsg)
			}
		}
	}
	// The rejected requests never reached the writer: nothing pending,
	// and a flush commits the fault-free state.
	if got := topo.metrics.pendingRequests.Load(); got != 0 {
		t.Fatalf("rejected requests left %d pending mutations", got)
	}
	var st stateResponse
	if code, _ := doJSON(t, "POST", base+"/reembed", nil, &st); code != 200 || st.FaultCount != 0 || st.EdgeFaultCount != 0 {
		t.Fatalf("after rejected requests: %d %+v, want a fault-free commit", code, st)
	}

	for _, rt := range routes {
		code, resp := doJSON(t, rt.method, base+rt.path+"?wait=0", json.RawMessage(rt.good), nil)
		if code != 202 || string(resp) != rt.accepted+"\n" {
			t.Errorf("%s %s?wait=0: %d %q, want 202 %q", rt.method, rt.path, code, resp, rt.accepted)
		}
	}
	// Each accepted batch was applied exactly as its route reads it.
	if code, _ := doJSON(t, "POST", base+"/reembed", nil, &st); code != 200 || st.FaultCount != 1 || st.EdgeFaultCount != 1 {
		t.Fatalf("after accepted batches: %d %+v, want 1 node and 1 edge fault", code, st)
	}
}

// TestServeSnapshotMixedUncommitted restores a snapshot whose
// uncommitted tail holds every mutation kind at once — node adds, node
// clears, edge adds and edge clears — and requires the flushed state to
// equal the pre-restart session exactly, with the map a from-scratch
// extraction of it.
func TestServeSnapshotMixedUncommitted(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, func(c *Config) {
		c.SnapshotDir = dir
		c.FlushInterval = 0 // no timer: the tail stays pending
		c.MaxBatchCols = 1 << 20
	})
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	topo := srv1.topos["main"]
	edges := hostEdges(t, topo, 4)
	base1 := ts1.URL + "/v1/topologies/main"

	// Committed base: two node faults and two edge faults.
	if code, body := doJSON(t, "POST", base1+"/faults", mutationRequest{Nodes: []int{17, 5000}}, nil); code != 200 {
		t.Fatalf("base add: %d %s", code, body)
	}
	if code, body := doJSON(t, "POST", base1+"/edge-faults", json.RawMessage(`{"edges":`+edgesJSON(edges[:2])+`}`), nil); code != 200 {
		t.Fatalf("base edge add: %d %s", code, body)
	}
	// Uncommitted tail, one request of each kind.
	for _, m := range []struct{ method, path, body string }{
		{"POST", "/faults", `{"nodes":[20011]}`},
		{"DELETE", "/faults", `{"nodes":[17]}`},
		{"POST", "/edge-faults", `{"edges":` + edgesJSON(edges[2:]) + `}`},
		{"DELETE", "/edge-faults", `{"edges":` + edgesJSON(edges[:1]) + `}`},
	} {
		if code, body := doJSON(t, m.method, base1+m.path+"?wait=0", json.RawMessage(m.body), nil); code != 202 {
			t.Fatalf("%s %s?wait=0: %d %s", m.method, m.path, code, body)
		}
	}
	wantNodes := []int{5000, 20011}
	wantEdges := slices.Clone(edges[1:])
	slices.SortFunc(wantEdges, func(a, b [2]int) int { return slices.Compare(a[:], b[:]) })
	waitFor(t, "tail applied", func() bool {
		f, e := topo.curFaults.Load(), topo.curEdges.Load()
		return f != nil && e != nil && slices.Equal(*f, wantNodes) && slices.Equal(*e, wantEdges)
	})
	var st stateResponse
	if code, _ := doJSON(t, "POST", base1+"/snapshot", nil, &st); code != 200 || st.FaultCount != 2 || st.EdgeFaultCount != 2 {
		t.Fatalf("snapshot: %+v, want the committed base only", st)
	}
	disk, err := loadSnapshot(dir, "main")
	if err != nil {
		t.Fatal(err)
	}
	if disk.SessionFaults == nil || disk.SessionEdges == nil {
		t.Fatalf("snapshot holds no uncommitted tail: %+v", disk)
	}
	// Restart as after a crash: a graceful Close flushes the tail and
	// rewrites the file fully committed, so put the snapshot back.
	data, err := os.ReadFile(snapshotPath(dir, "main"))
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotPath(dir, "main"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, ts2 := startServer(t, cfg)
	base2 := ts2.URL + "/v1/topologies/main"
	if code, body := doJSON(t, "POST", base2+"/reembed", nil, nil); code != 200 {
		t.Fatalf("reembed after restore: %d %s", code, body)
	}
	var emb embeddingResponse
	if code, _ := doJSON(t, "GET", base2+"/embedding", nil, &emb); code != 200 {
		t.Fatalf("embedding: %d", code)
	}
	if !slices.Equal(emb.Faults, wantNodes) || !slices.Equal(emb.EdgeFaults, wantEdges) {
		t.Fatalf("restored commit: nodes %v edges %v, want nodes %v edges %v", emb.Faults, emb.EdgeFaults, wantNodes, wantEdges)
	}
	want, err := srv2.ScratchExtract("main")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", want.Checksum); emb.Checksum != got {
		t.Fatalf("restored checksum %s, from-scratch extraction %s", emb.Checksum, got)
	}
}
