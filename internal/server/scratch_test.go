package server

import (
	"fmt"
	"reflect"
	"testing"
)

// TestScratchExtractEdgeFaults pins the convergence oracle against the
// served map when edge faults are committed: ScratchExtract must charge
// them exactly as the daemon's session does, or every chaos-test
// comparison against it is meaningless.
func TestScratchExtractEdgeFaults(t *testing.T) {
	srv, ts := startServer(t, testConfig(t, nil))
	topo := srv.topos["main"]
	edges := hostEdges(t, topo, 6)
	for i := 1; i <= len(edges); i++ {
		var st stateResponse
		if code, body := doJSON(t, "POST", ts.URL+"/v1/topologies/main/edge-faults", mutationRequest{Edges: edges[i-1 : i]}, &st); code != 200 {
			t.Fatalf("POST edge fault %d: %d %s", i, code, body)
		}
		var emb embeddingResponse
		if code, body := doJSON(t, "GET", ts.URL+"/v1/topologies/main/embedding", nil, &emb); code != 200 {
			t.Fatalf("GET embedding: %d %s", code, body)
		}
		scratch, err := srv.ScratchExtract("main")
		if err != nil {
			t.Fatal(err)
		}
		if scratch.Generation != emb.Generation {
			t.Fatalf("%d edge faults: scratch generation %d, served %d", i, scratch.Generation, emb.Generation)
		}
		if got := fmt.Sprintf("%016x", scratch.Checksum); got != emb.Checksum {
			t.Fatalf("%d edge faults: scratch checksum %s, served %s", i, got, emb.Checksum)
		}
		if !reflect.DeepEqual(scratch.Edges, emb.EdgeFaults) {
			t.Fatalf("%d edge faults: scratch edges %v, served %v", i, scratch.Edges, emb.EdgeFaults)
		}
	}
}
