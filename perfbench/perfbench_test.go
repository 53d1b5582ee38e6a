package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/types"
)

// The wrappers must not change the program: with the same seed, the
// traced and untraced simulator runs give the same end time, event and
// byte counts, latency figures and snapshot bytes (all in the
// fingerprint).
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w := range []simSpec{simFat, simUNL16} {
		t.Run(w.name, func(t *testing.T) {
			trust, err := w.trust()
			if err != nil {
				t.Fatal(err)
			}
			cfg := w.seeded(trust, 3, 0)
			cfg.StopAfterWaves = 12
			ref := runSimOp(cfg)
			if err := checkSim(cfg, ref); err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			op := runSimOp(tr.instrument(cfg))
			if op.fingerprint != ref.fingerprint {
				t.Fatalf("traced run differs: end %d vs %d, events %d vs %d",
					op.res.EndTime, ref.res.EndTime, op.res.Metrics.MessagesDelivered, ref.res.Metrics.MessagesDelivered)
			}
			if calls, _, _ := tr.totals(); calls != int64(ref.res.Metrics.MessagesDelivered) {
				t.Fatalf("wrappers saw %d Receive calls for %d events", calls, ref.res.Metrics.MessagesDelivered)
			}
			if len(tr.machines) == 0 || tr.machines[0].applies == 0 || tr.watched() == nil {
				t.Fatal("state machines or the watched node were not wrapped")
			}
		})
	}
}

// quorum.NewTracker picks its fast path by the trust value's concrete
// type, so every workload must hand over a *quorum.System or a
// quorum.Threshold, never a wrapper.
func TestTrustIsNotWrapped(t *testing.T) {
	for _, build := range []func() (quorum.Assumption, error){simFat.trust, simUNL16.trust,
		func() (quorum.Assumption, error) { return tcpTrust(), nil }} {
		trust, err := build()
		if err != nil {
			t.Fatal(err)
		}
		switch trust.(type) {
		case *quorum.System, quorum.Threshold:
		default:
			t.Fatalf("trust system of type %T takes quorum.NewTracker's fallback path", trust)
		}
	}
}

// The metric tables here and BENCHMARK.json must name the same workloads
// and metrics with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] here",
					i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

// A CPU profile of a traced run folds into known rows whose shares sum
// to one.
func TestFoldCPUProfile(t *testing.T) {
	trust, err := simUNL16.trust()
	if err != nil {
		t.Fatal(err)
	}
	cfg := simUNL16.seeded(trust, 1, 0)
	cfg.StopAfterWaves = 8
	profile, err := withCPUProfile(func() { runSimOp(newTracer().instrument(cfg)) })
	if err != nil {
		t.Fatal(err)
	}
	shares, err := foldCPUProfile(profile)
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, r := range profileRows {
		known[r] = true
	}
	sum := 0.0
	for row, s := range shares {
		if !known[row] {
			t.Errorf("unknown row %q", row)
		}
		sum += s
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cmd := formatCmd(types.ProcessID(3), 12345, 987654321*time.Nanosecond)
	pid, seq, due, ok := parseCmd(cmd)
	if !ok || pid != 3 || seq != 12345 || due != 987654321 {
		t.Fatalf("parseCmd(%q) = %d %d %v %v", cmd, pid, seq, due, ok)
	}
	for _, bad := range []string{"", "set k1 p1.2", "set k1 p1.x@5", "set k1 q1.2@5"} {
		if _, _, _, ok := parseCmd(bad); ok {
			t.Errorf("parseCmd(%q) accepted", bad)
		}
	}
}

// A short loopback run passes the prefix, duplicate and transport-error
// checks and measures latencies.
func TestTCPRun(t *testing.T) {
	out, err := runTCPLoad(1, 2*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.lat) == 0 || out.waves == 0 || out.attempted == 0 {
		t.Fatalf("nothing measured: %d latencies, %d waves", len(out.lat), out.waves)
	}
}

// The traced TCP run drives the wrappers from four node goroutines at
// once; under -race this checks they share nothing unsynchronized.
func TestTracedTCPRun(t *testing.T) {
	res, err := traceTCP(options{workload: "tcp-n4", seed: 1, seconds: 4 * time.Second, trace: true, out: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct=%v with %d metrics", res.Correct, len(res.Metrics))
	}
	if v := res.Metrics["broadcast.msgs_per_vertex"].Value; v <= 0 {
		t.Fatalf("broadcast.msgs_per_vertex = %v", v)
	}
}
