package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"
)

// TestBenchmarkJSON pins BENCHMARK.json and layers.json to the metrics
// and workloads the command reports.
func TestBenchmarkJSON(t *testing.T) {
	var bm struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bm)
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the command %d", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bm.EndToEnd, endToEndSpecs)
	check("per_layer", bm.PerLayer, perLayerSpecs)
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	want := slices.Sorted(maps.Keys(workloads))
	if slices.Sort(names); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, command %v", names, want)
	}

	var layers struct {
		Workloads map[string]struct{ Moves map[string][]string }
	}
	readJSON(t, "layers.json", &layers)
	if got := slices.Sorted(maps.Keys(layers.Workloads)); !slices.Equal(got, want) {
		t.Errorf("layers.json workloads %v, command %v", got, want)
	}
	for w, l := range layers.Workloads {
		for from, to := range l.Moves {
			for _, name := range append([]string{from}, to...) {
				if _, ok := units[name]; !ok {
					t.Errorf("layers.json %s: unknown metric %s", w, name)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// countMetrics are the per-layer metrics that are exact counts over a
// fixed prefix of operations: a pure function of the seed.
var countMetrics = []string{
	"core.faults_per_op",
	"core.boxes_per_op",
	"core.not_tolerated_ratio",
	"ftnet.changed_cols_per_op",
	"ftnet.full_rewrite_ratio",
	"ftnet.not_tolerated_ratio",
	"server.not_tolerated_ratio",
	"wire.bytes_per_op",
}

// counts runs a workload's shortest window (the count prefix alone) in
// traced mode and returns its count-type per-layer metrics.
func counts(t *testing.T, workload string, seed uint64) map[string]float64 {
	t.Helper()
	cfg := &config{workload: workload, seed: seed, seconds: 0.001, trace: true}
	bn, err := workloads[workload](cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bn.close()
	r := newReport()
	if _, err := bn.measure(cfg, r); err != nil {
		t.Fatal(err)
	}
	if r.failed > 0 {
		t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.failures)
	}
	out := make(map[string]float64)
	for _, name := range countMetrics {
		if st, ok := r.metrics[name]; ok {
			out[name] = st.value
		}
	}
	if len(out) == 0 {
		t.Fatal("no count metrics reported")
	}
	return out
}

// TestCountsDeterministic runs each workload twice with one seed and
// once with another: every count-type per-layer metric must repeat
// exactly, and the other seed must change them.
func TestCountsDeterministic(t *testing.T) {
	for _, w := range slices.Sorted(maps.Keys(workloads)) {
		t.Run(w, func(t *testing.T) {
			a, b := counts(t, w, 1), counts(t, w, 1)
			if !maps.Equal(a, b) {
				t.Errorf("seed 1 twice: %v then %v", a, b)
			}
			if c := counts(t, w, 2); maps.Equal(a, c) {
				t.Errorf("seeds 1 and 2 give the same counts %v", a)
			}
			t.Logf("seed 1: %v", a)
		})
	}
}
