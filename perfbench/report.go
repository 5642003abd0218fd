package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef declares one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names, and a
// test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd metrics are measured with no instrumentation, on every
// workload. On the library workloads an operation is one fgnvm.Run; on
// serve-mixed it is one /v1/run request, whatever tier answered it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"minstr_per_s", "Minstr/s", "higher"},
	{"run_p50_ms", "ms", "lower"},
	{"run_p90_ms", "ms", "lower"},
	{"cpu_s_per_minstr", "s/Minstr", "lower"},
	{"alloc_mb_per_minstr", "MB/Minstr", "lower"},
}

// perLayer metrics come from the traced run only.
var perLayer = []metricDef{
	{"trace.ns_per_access", "ns", "lower"},
	{"trace.accesses_per_kinstr", "1/kinstr", "lower"},
	{"trace.share", "frac", "lower"},
	{"cpu.llc_ns_per_access", "ns", "lower"},
	{"cpu.llc_hit_ratio", "frac", "higher"},
	{"cpu.llc_writebacks_per_kinstr", "1/kinstr", "lower"},
	{"cpu.warmup_ms", "ms", "lower"},
	{"cpu.share", "frac", "lower"},
	{"controller.ns_per_cycle", "ns", "lower"},
	{"controller.ns_per_request", "ns", "lower"},
	{"controller.queued_wait_cycles_per_request", "cycles", "lower"},
	{"controller.rejects_per_request", "count", "lower"},
	{"controller.share", "frac", "lower"},
	{"core.ns_per_command", "ns", "lower"},
	{"core.commands_per_request", "count", "lower"},
	{"core.segment_hit_ratio", "frac", "higher"},
	{"core.backgrounded_read_frac", "frac", "higher"},
	{"core.share", "frac", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.events_per_request", "count", "lower"},
	{"sim.share", "frac", "lower"},
	{"parallel.windows_per_kcycle", "1/kcycle", "lower"},
	{"parallel.mean_width", "cycles", "higher"},
	{"parallel.local_delivery_frac", "frac", "higher"},
	{"parallel.cpu_per_wall", "s/s", "higher"},
	{"server.mem_hit_ratio", "frac", "higher"},
	{"server.store_hit_ratio", "frac", "higher"},
	{"server.coalesced_frac", "frac", "higher"},
	{"server.run_ms_mean", "ms", "lower"},
	{"server.miss_overhead_ms", "ms", "lower"},
	{"store.put_ms_p50", "ms", "lower"},
	{"store.get_ms_p50", "ms", "lower"},
	{"glue.share", "frac", "lower"},
	{"trace.overhead", "x", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report accumulates operations, failures and metrics, and prints each
// metric as it is set. It is used from one goroutine.
type report struct {
	defs      []metricDef
	attempted int
	failed    int
	metrics   map[string]metricValue

	absentMetrics []string
}

func newReport(traced bool) *report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &report{defs: defs, metrics: map[string]metricValue{}}
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail("%v", err)
	}
}

// fail records a failure that is not tied to a counted operation, or
// the reason an operation counted by op failed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Printf("FAIL %s\n", fmt.Sprintf(format, args...))
}

// set records a declared metric; note says how it was obtained (sample
// count, percentile support). An undeclared name is a bug in the
// benchmark and panics.
func (r *report) set(name string, v float64, note string) {
	i := slices.IndexFunc(r.defs, func(d metricDef) bool { return d.name == name })
	if i < 0 {
		panic("perfbench: undeclared metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is not a number (%v)", name, v)
		return
	}
	r.metrics[name] = metricValue{Value: v, Unit: r.defs[i].unit}
	fmt.Printf("metric %-42s %14.6g %-10s %s\n", name, v, r.defs[i].unit, note)
}

// absent records that a declared metric cannot be measured in this
// build of the program, and why. It is not a failure.
func (r *report) absent(name, reason string) {
	r.absentMetrics = append(r.absentMetrics, name)
	fmt.Printf("absent %-42s %s\n", name, reason)
}

// info prints a figure that is not a declared metric.
func (r *report) info(format string, args ...any) {
	fmt.Printf("info   %s\n", fmt.Sprintf(format, args...))
}

// result closes the report. A run is correct only when nothing failed
// and every declared metric was measured.
func (r *report) result() result {
	for _, d := range r.defs {
		if _, ok := r.metrics[d.name]; !ok && !slices.Contains(r.absentMetrics, d.name) {
			r.fail("metric %s was not measured", d.name)
		}
	}
	if r.attempted == 0 {
		r.attempted = 1
		r.failed = max(r.failed, 1)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// durations is a sample of wall times.
type durations []time.Duration

// quantile returns the nearest-rank q-quantile in milliseconds.
func (d durations) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := slices.Clone(d)
	slices.Sort(s)
	return float64(s[rank(q, len(s))-1]) / 1e6
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(q float64, n int) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// setQuantile reports a latency percentile with its support. A tail
// percentile needs at least ten samples beyond it; with fewer, the
// figure is still printed but the run fails.
func (r *report) setQuantile(name string, d durations, q float64, tail bool) {
	beyond := len(d) - rank(q, len(d))
	if tail && beyond < 10 {
		r.fail("%s: only %d samples beyond p%g (need 10)", name, beyond, q*100)
	}
	r.set(name, d.quantile(q), fmt.Sprintf("(p%g of n=%d, %d beyond)", q*100, len(d), beyond))
}

// medianSeconds returns the median of d in seconds.
func medianSeconds(d durations) float64 {
	return d.quantile(0.5) / 1e3
}
