// Command perfbench is the repository benchmark. It runs one workload for a
// fixed wall-clock budget, checks the program's outputs, and prints one
// JSON result line as the last line of standard output:
//
//	bash perfbench/run.sh --workload sim-fat-n4 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it runs the same seed once untraced and once with every node and state
// machine wrapped, and carries the per-layer metrics instead. Nothing
// inside the program is instrumented: all timing happens in this package,
// around calls into the modules' public functions. See README.md for the
// workloads, the metrics and the held-out seed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for the traced run's spans and CPU profile
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A workload returns its result, or an error when a correctness check
// failed; attempted is meaningful in both cases.
type workload struct {
	name string
	run  func(o options) (res result, err error)
}

var workloads = []workload{
	{"sim-fat-n4", func(o options) (result, error) { return runSim(simFat, o) }},
	{"sim-unl16-crash", func(o options) (result, error) { return runSim(simUNL16, o) }},
	{"tcp-n4", runTCP},
}

// endToEnd and perLayer name every metric and its unit. They mirror
// BENCHMARK.json (the self-test checks the two agree), and every run
// reports all of one list: a layer a workload bypasses reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tx_per_s", "1/s"},
	{"waves_per_s", "1/s"},
	{"commit_p50_vt", "vt"},
	{"commit_p99_vt", "vt"},
	{"commit_p50_ms", "ms"},
	{"commit_p99_ms", "ms"},
	{"served_frac", "frac"},
	{"alloc_bytes_per_tx", "B"},
	{"peak_mem_mb", "MB"},
}

var perLayer = []metricDef{
	{"sim.events_per_tx", "count"},
	{"sim.sched_ns_per_event", "ns"},
	{"broadcast.msgs_per_vertex", "count"},
	{"broadcast.receive_ns_per_msg", "ns"},
	{"rider.key_ns", "ns"},
	{"rider.key_bytes", "B"},
	{"rider.weak_edges_ns", "ns"},
	{"rider.weak_edges_per_vertex", "count"},
	{"dag.causal_history_ns", "ns"},
	{"dag.peak_live_vertices", "count"},
	{"core.ctrl_msgs_per_wave", "count"},
	{"core.ctrl_receive_ns_per_msg", "ns"},
	{"core.commit_ratio", "frac"},
	{"quorum.tracker_add_ns", "ns"},
	{"wire.bytes_per_tx", "B"},
	{"wire.size_ns_per_msg", "ns"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"transport.msgs_per_frame", "count"},
	{"transport.errors", "count"},
	{"service.apply_ns_per_tx", "ns"},
	{"service.snapshot_ns", "ns"},
	{"service.snapshot_bytes", "B"},
	{"service.peak_queue", "count"},
	{"loadgen.late_ms_max", "ms"},
	{"loadgen.latency_samples", "count"},
	{"trace.overhead_frac", "frac"},
	{"broadcast.cpu_share", "frac"},
	{"coin.cpu_share", "frac"},
	{"core.cpu_share", "frac"},
	{"dag.cpu_share", "frac"},
	{"quorum.cpu_share", "frac"},
	{"rider.cpu_share", "frac"},
	{"service.cpu_share", "frac"},
	{"sim.cpu_share", "frac"},
	{"transport.cpu_share", "frac"},
	{"types.cpu_share", "frac"},
	{"wire.cpu_share", "frac"},
	{"gc.cpu_share", "frac"},
	{"other.cpu_share", "frac"},
}

type metricDef struct{ name, unit string }

// metricSet collects values and, in finish, checks that exactly the
// metrics of its list were set.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(trace bool) *metricSet {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) { m.values[name] = v }

func (m *metricSet) finish() (map[string]metric, error) {
	out := make(map[string]metric, len(m.defs))
	for _, d := range m.defs {
		v, ok := m.values[d.name]
		if !ok {
			return nil, fmt.Errorf("perfbench: metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(m.values) != len(out) {
		return nil, fmt.Errorf("perfbench: %d metrics set, %d defined", len(m.values), len(out))
	}
	return out, nil
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "wall-clock seconds the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for trace spans and CPU profiles")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
		res = result{Correct: false, Attempted: max(res.Attempted, 1), Failed: max(res.Attempted, 1),
			Metrics: map[string]metric{}}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// memSampler tracks the peak memory the Go runtime holds from the
// operating system (mapped minus released) while it runs.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		samples := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			s.peak = max(s.peak, samples[0].Value.Uint64()-samples[1].Value.Uint64())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stopMB stops the sampler and returns the peak in MiB.
func (s *memSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// On a shared machine the processor's speed drifts by tens of percent over
// minutes with other tenants' load. Every wall-clock figure is therefore
// scaled to a reference speed: before each measured run the benchmark
// times a kernel of its own (calibrate), and a time t measured alongside
// a kernel time c is reported as t × calRef / c. The kernel is
// standard-library code only, so a change to the program cannot move it;
// its mix of string building, map updates, sorting and allocation follows
// the workloads' CPU profile.
const calRef = 20 * time.Millisecond

// calSink keeps the kernel's result alive.
var calSink int

// calibrate returns the median of three timings of the kernel, each
// started after a garbage collection.
func calibrate() time.Duration {
	var ts []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		calKernel()
		ts = append(ts, float64(time.Since(t0)))
	}
	return time.Duration(median(ts))
}

func calKernel() {
	const n = 40000
	m := map[string]int{}
	keys := make([]string, 0, n)
	var b []byte
	for i := 0; i < n; i++ {
		b = strconv.AppendInt(append(b[:0], 'k'), int64(i*7919%100003), 10)
		k := string(b)
		m[k] += i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		calSink += m[k] + len(k)
	}
}

// timeScale converts a time measured alongside kernel time cal to the
// reference speed; rates divide by it.
func timeScale(cal time.Duration) float64 { return float64(calRef) / float64(cal) }

// Set-up is timed as the median over repeated cold starts, taken in
// slices spread over the run (before each measured run or cluster), so
// the median spans the run's changing machine speed rather than one
// moment of it. A slice times at least one cold start and goes on until
// setupSlice has passed, at most setupSliceReps.
const (
	setupSlice     = 150 * time.Millisecond
	setupSliceReps = 20
)

// setupTimes times one slice of cold starts and returns the timings in
// seconds, each scaled by the calibration cal taken before the slice.
// once returns what tears down its set-up, which is not timed.
func setupTimes(once func() (teardown func(), err error), cal time.Duration) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) == 0 || (len(times) < setupSliceReps && time.Since(start) < setupSlice) {
		t0 := time.Now()
		teardown, err := once()
		times = append(times, time.Since(t0).Seconds()*timeScale(cal))
		if teardown != nil {
			teardown()
		}
		if err != nil {
			return nil, err
		}
	}
	return times, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
