package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// window is one measured interval. Correctness checks run inside it but
// off the clock: pause stops the clock and sets aside the allocations
// the check makes, so every check runs outside the timed window.
type window struct {
	start    time.Time
	paused   time.Duration
	mallocs0 uint64
	bytes0   uint64
	exclMall uint64
	exclByte uint64
	gc0      float64
	cpu0     float64
}

// windowStats is what a closed window measured.
type windowStats struct {
	mallocs    uint64  // heap objects allocated, checks excluded
	bytes      uint64  // heap bytes allocated, checks excluded
	gcCPUShare float64 // GC CPU over all CPU available to Go
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readCPU() (gc, total float64) {
	metrics.Read(cpuSamples)
	return cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
}

func openWindow() *window {
	runtime.GC()
	w := &window{}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs0, w.bytes0 = ms.Mallocs, ms.TotalAlloc
	w.gc0, w.cpu0 = readCPU()
	w.start = time.Now()
	return w
}

// pause stops the clock and the allocation count until the returned
// function is called. Resuming collects the garbage made in between, so
// a check's allocations do not bring a collection into the window.
func (w *window) pause() (resume func()) {
	t := time.Now()
	var a runtime.MemStats
	runtime.ReadMemStats(&a)
	return func() {
		runtime.GC()
		var b runtime.MemStats
		runtime.ReadMemStats(&b)
		w.exclMall += b.Mallocs - a.Mallocs
		w.exclByte += b.TotalAlloc - a.TotalAlloc
		w.paused += time.Since(t)
	}
}

// elapsed is the time on the clock so far.
func (w *window) elapsed() time.Duration { return time.Since(w.start) - w.paused }

func (w *window) close() windowStats {
	var st windowStats
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st.mallocs = ms.Mallocs - w.mallocs0 - w.exclMall
	st.bytes = ms.TotalAlloc - w.bytes0 - w.exclByte
	gc, cpu := readCPU()
	if cpu > w.cpu0 {
		st.gcCPUShare = (gc - w.gc0) / (cpu - w.cpu0)
	}
	return st
}

// heapInuse sets heap_inuse_mb: the heap in use after a forced
// collection once the window has closed. It drops m's per-operation log
// first, whose length follows the run's throughput, so the figure holds
// the program's state and not how many operations the run fitted in.
func heapInuse(r *report, m *modes) {
	m.lat, m.iter = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("heap_inuse_mb", float64(ms.HeapInuse)/(1<<20), 1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// modes splits a traced run's operations into alternating blocks, one
// untraced (mode 0) and one traced (mode 1), so one run measures both
// and the difference is the tracing overhead. An untraced run keeps
// every operation in mode 0. It logs each operation's latency and the
// clock time its loop iteration took, in operation order.
type modes struct {
	traced bool
	block  int       // operations per block
	lat    []float64 // operation latency, ms
	iter   []time.Duration
}

// of returns the mode of operation op.
func (m *modes) of(op int) int {
	if m.traced && (op/m.block)%2 == 1 {
		return 1
	}
	return 0
}

// record logs the next operation.
func (m *modes) record(lat, iter time.Duration) {
	m.lat = append(m.lat, ms(lat))
	m.iter = append(m.iter, iter)
}

// latencies returns the latencies of the operations in mode.
func (m *modes) latencies(mode int) []float64 {
	var out []float64
	for op, v := range m.lat {
		if m.of(op) == mode {
			out = append(out, v)
		}
	}
	return out
}

// rate is the median over whole blocks (of the given mode, or all when
// mode is -1) of each block's operations per second of loop time. A
// median of block rates shrugs off the odd block a stall hit.
func (m *modes) rate(mode int) (float64, int) {
	var rates []float64
	n := len(m.lat)
	for lo := 0; lo+m.block <= n || (lo == 0 && n > 0); lo += m.block {
		hi := min(lo+m.block, n)
		if mode >= 0 && m.of(lo) != mode {
			continue
		}
		var d time.Duration
		for _, t := range m.iter[lo:hi] {
			d += t
		}
		rates = append(rates, float64(hi-lo)/d.Seconds())
	}
	return quantile(rates, 0.5), len(rates)
}

// tailSpan is the operations per tail sample: enough that each sample's
// p99 has ten operations beyond it.
const tailSpan = 1000

// p99 is the median of the p99s of consecutive spans of at least
// tailSpan samples (one span when there are fewer than two spans' worth),
// so a burst of slow operations in one stretch of the run moves it less.
func p99(xs []float64) float64 {
	k := max(1, len(xs)/tailSpan)
	ps := make([]float64, k)
	for i := range ps {
		ps[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], 0.99)
	}
	return quantile(ps, 0.5)
}

// overhead reports, for a traced run, traced minus untraced throughput
// and median latency.
func (m *modes) overhead(r *report) {
	if !m.traced {
		return
	}
	r0, _ := m.rate(0)
	r1, _ := m.rate(1)
	r.set("trace.overhead_ops_per_s", r1-r0, len(m.lat))
	r.set("trace.overhead_op_p50_ms", quantile(m.latencies(1), 0.5)-quantile(m.latencies(0), 0.5), len(m.lat))
}

// endToEnd fills the end-to-end metrics every workload reports. deliver
// is the latency to the result's consumer, in operation order; nil means
// the caller consumes the result in-process, so delivery coincides with
// completion.
func endToEnd(r *report, ws windowStats, m *modes, deliver []float64) {
	lat := m.lat
	n := len(lat)
	rate, blocks := m.rate(-1)
	r.set("ops_per_s", rate, blocks)
	r.set("op_p50_ms", quantile(lat, 0.5), n)
	r.set("op_p90_ms", quantile(lat, 0.9), n)
	r.set("op_p99_ms", p99(lat), n)
	if deliver == nil {
		deliver = lat
	}
	r.set("deliver_p50_ms", quantile(deliver, 0.5), len(deliver))
	r.set("deliver_p90_ms", quantile(deliver, 0.9), len(deliver))
	r.set("deliver_p99_ms", p99(deliver), len(deliver))
	r.set("allocs_per_op", float64(ws.mallocs)/float64(n), n)
	r.set("bytes_per_op", float64(ws.bytes)/float64(n), n)
	r.set("runtime.gc_cpu_share", ws.gcCPUShare, 1)
	m.overhead(r)
}
