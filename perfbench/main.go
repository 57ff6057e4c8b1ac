// Command perfbench is ftnet's same-machine benchmark. One command runs
// one of three workloads on the d=2 host with side 432 and eps 0.5
// (279,936 nodes, the B2 bench host); every input is drawn from --seed.
//
//	survival  cold Monte-Carlo trials: a fresh Bernoulli fault set at 10x
//	          TheoremFailureProb per trial, ContainTorus with a warm
//	          Scratch, inside parallel.Run on 1 worker (closed loop)
//	churn     warm delta evaluation: one mixed node+edge Gillespie event
//	          per operation through the public ftnet.Session mutation
//	          calls and ReembedDelta (closed loop)
//	serve     an in-process ftnetd on a loopback listener: an open-loop
//	          writer (synchronous POST, then a ?since= wire catch-up of
//	          its binary replica) beside a client.Watch subscriber
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 spans are recorded around the benchmark's calls into each
// layer, written to <out>/spans/, and the result carries the per-layer
// metrics. The output is a run header, a table of every metric with its
// unit and sample count, and as the last line one JSON object with the
// keys correct, attempted, failed and metrics. The exit status is 0 when
// every correctness gate passed, 1 when one failed (the result line is
// still printed) and 2 when the run could not set up or measure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"
)

// processStart approximates the process start for setup_s.
var processStart = time.Now()

// Host parameters shared by every workload: identical to the B2 bench host.
const (
	hostDims    = 2
	hostSide    = 432
	hostEps     = 0.5
	hostNodes   = 279936
	faultScale  = 10 // standing fault rate, in units of TheoremFailureProb
	setupRepeat = 9  // set-ups per run; setup_s is their median
)

type spec struct{ name, unit string }

// endToEndSpecs are the metrics a --trace 0 run reports, in
// BENCHMARK.json's order. The table also prints fail_ratio and the tail
// latencies op_p90_ms, op_p99_ms, deliver_p90_ms and deliver_p99_ms, each
// with its sample count. fail_ratio travels in the result line as
// attempted and failed: a metric that reads 0 on every healthy run has no
// relative spread. The tails swing with the host's steal time on a small
// shared VM by more than the largest bound a regression check may use,
// so they are reported but not bounded.
var endToEndSpecs = []spec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"deliver_p50_ms", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"heap_inuse_mb", "MB"},
}

// perLayerSpecs are the metrics a --trace 1 run reports. A workload that
// does not reach a layer reports that layer's metrics as 0.
var perLayerSpecs = []spec{
	{"fault.sample_us", "us"},
	{"core.contain_us", "us"},
	{"core.contain_p99_us", "us"},
	{"core.faults_per_op", "count"},
	{"core.boxes_per_op", "count"},
	{"core.not_tolerated_ratio", "ratio"},
	{"parallel.overhead_share", "ratio"},
	{"churn.next_us", "us"},
	{"ftnet.mutate_us", "us"},
	{"ftnet.reembed_us", "us"},
	{"ftnet.reembed_p99_us", "us"},
	{"ftnet.changed_cols_per_op", "count"},
	{"ftnet.full_rewrite_ratio", "ratio"},
	{"ftnet.not_tolerated_ratio", "ratio"},
	{"client.post_ms", "ms"},
	{"server.eval_ms", "ms"},
	{"server.not_tolerated_ratio", "ratio"},
	{"wire.get_ms", "ms"},
	{"wire.decode_us", "us"},
	{"wire.apply_us", "us"},
	{"wire.bytes_per_op", "B"},
	{"client.watch_gap_ms", "ms"},
	{"client.resyncs", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.gc_cpu_share", "ratio"},
	{"fault.self_us_per_op", "us"},
	{"core.self_us_per_op", "us"},
	{"parallel.self_us_per_op", "us"},
	{"churn.self_us_per_op", "us"},
	{"ftnet.self_us_per_op", "us"},
	{"client.self_us_per_op", "us"},
	{"wire.self_us_per_op", "us"},
	{"loadgen.self_us_per_op", "us"},
	{"trace.overhead_ops_per_s", "1/s"},
	{"trace.overhead_op_p50_ms", "ms"},
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, s := range append(slices.Clone(endToEndSpecs), perLayerSpecs...) {
		m[s.name] = s.unit
	}
	for _, n := range []string{"op_p90_ms", "op_p99_ms", "deliver_p90_ms", "deliver_p99_ms"} {
		m[n] = "ms"
	}
	m["fail_ratio"] = "ratio"
	m["loadgen.offered_per_s"] = "1/s"
	return m
}()

type stat struct {
	value   float64
	samples int
}

// report collects one run's metrics and correctness outcome.
type report struct {
	metrics   map[string]stat
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report { return &report{metrics: make(map[string]stat)} }

// set records a metric; a NaN (a quantile of no samples) stays unset.
func (r *report) set(name string, v float64, samples int) {
	if math.IsNaN(v) {
		return
	}
	r.metrics[name] = stat{value: v, samples: samples}
}

// fail counts one failed operation or check and keeps its message.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func (c *config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// bench is a set-up workload, ready for its measured window.
type bench interface {
	measure(cfg *config, r *report) (*tracer, error)
	close()
}

var workloads = map[string]func(cfg *config) (bench, error){
	"survival": setupSurvival,
	"churn":    setupChurn,
	"serve":    setupServe,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	fs.StringVar(&cfg.workload, "workload", "", "survival, churn or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	traceLevel := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceLevel != 0 && *traceLevel != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload survival|churn|serve, --seconds > 0, --trace 0|1\n")
		return 2
	}
	cfg.trace = *traceLevel == 1

	r := newReport()
	var bn bench
	var setups []float64
	for i := 0; i < setupRepeat; i++ {
		start := processStart
		if bn != nil {
			// Each later set-up starts from a collected heap, not from the
			// garbage of the one before.
			bn.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		if bn, err = setup(cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s setup: %v\n", cfg.workload, err)
			return 2
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	r.set("setup_s", quantile(setups, 0.5), len(setups))
	tr, err := bn.measure(cfg, r)
	bn.close()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	hdr, _ := json.Marshal(header(cfg)) // strings and numbers only: cannot fail
	fmt.Fprintf(stdout, "# header %s\n", hdr)
	if r.attempted > 0 {
		r.set("fail_ratio", float64(r.failed)/float64(r.attempted), int(r.attempted))
	}
	if cfg.trace {
		path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "# spans %d written to %s\n", len(tr.spans), path)
	}
	printTable(stdout, r)
	for _, f := range r.failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}

	specs := endToEndSpecs
	if cfg.trace {
		specs = perLayerSpecs
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, s := range specs {
		st, ok := r.metrics[s.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload, s.name)
			return 2
		}
		out.Metrics[s.name] = metric{Value: st.value, Unit: s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if r.failed > 0 {
		return 1
	}
	return 0
}

// printTable prints every measured metric with its unit and sample count.
func printTable(w io.Writer, r *report) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %-30s %16s %-6s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		st := r.metrics[n]
		fmt.Fprintf(w, "# %-30s %16.6g %-6s %d\n", n, st.value, units[n], st.samples)
	}
	fmt.Fprintf(w, "# attempted %d failed %d\n", r.attempted, r.failed)
}
