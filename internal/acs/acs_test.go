package acs

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

func assertIdenticalOutputs(t *testing.T, outputs map[types.ProcessID]Pairs, expect int) Pairs {
	t.Helper()
	if len(outputs) != expect {
		t.Fatalf("%d of %d processes produced an output", len(outputs), expect)
	}
	var ref Pairs
	for _, o := range outputs {
		if ref.IsZero() {
			ref = o
			continue
		}
		if !ref.ContainsAll(o) || !o.ContainsAll(ref) {
			t.Fatalf("ACS outputs differ: %v vs %v", ref, o)
		}
	}
	return ref
}

func TestACSThresholdAllCorrect(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	for seed := int64(0); seed < 8; seed++ {
		outputs := RunCluster(trust, gather.UseReliable, sim.UniformLatency{Min: 1, Max: 30}, seed, seed+100, nil)
		ref := assertIdenticalOutputs(t, outputs, 4)
		// Core set must contain at least a quorum's worth of inputs.
		if ref.Len() < 3 {
			t.Fatalf("seed %d: core set %v smaller than a quorum", seed, ref)
		}
		// Values are genuine.
		for p, v := range ref.Map() {
			if v != gather.InputValue(p) {
				t.Fatalf("seed %d: wrong value for %v: %q", seed, p, v)
			}
		}
	}
}

func TestACSIdenticalVsGatherDiffering(t *testing.T) {
	// The §2.4 distinction made concrete: gather outputs may differ
	// between processes; ACS outputs never do.
	trust := quorum.NewThreshold(7, 2)
	seed := int64(3)

	gres := gather.RunCluster(gather.RunConfig{
		Kind: gather.KindConstantRound, Trust: trust, Mode: gather.UseReliable,
		Latency: sim.UniformLatency{Min: 1, Max: 50}, Seed: seed,
	})
	differ := false
	var prev gather.Pairs
	for _, out := range gres.Outputs {
		if !prev.IsZero() && (!prev.ContainsAll(out) || !out.ContainsAll(prev)) {
			differ = true
		}
		prev = out
	}
	_ = differ // gather outputs MAY differ (often do); no assertion either way

	outputs := RunCluster(trust, gather.UseReliable, sim.UniformLatency{Min: 1, Max: 50}, seed, 9, nil)
	assertIdenticalOutputs(t, outputs, 7)
}

func TestACSWithCrashFaults(t *testing.T) {
	trust := quorum.NewThreshold(7, 2)
	faulty := map[types.ProcessID]sim.Node{
		5: sim.MuteNode{},
		6: sim.MuteNode{},
	}
	outputs := RunCluster(trust, gather.UseReliable, sim.UniformLatency{Min: 1, Max: 25}, 4, 5, faulty)
	ref := assertIdenticalOutputs(t, outputs, 5)
	if ref.Len() < 5 { // n-f quorum of 5 must survive
		t.Fatalf("core set %v too small under crashes", ref)
	}
}

func TestACSAsymmetricSystem(t *testing.T) {
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{N: 8, NumSets: 2, MaxFault: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	outputs := RunCluster(sys, gather.UseReliable, sim.UniformLatency{Min: 1, Max: 30}, 7, 8, nil)
	assertIdenticalOutputs(t, outputs, 8)
}

func TestACSCounterexampleSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("30-process ACS is slow")
	}
	sys := quorum.Counterexample()
	outputs := RunCluster(sys, gather.UsePlain, sim.UniformLatency{Min: 1, Max: 30}, 1, 2, nil)
	ref := assertIdenticalOutputs(t, outputs, 30)
	// The agreed set must contain some process's entire quorum.
	senders := ref.Senders(30)
	if !quorum.HasAnyQuorumWithin(sys, senders) {
		t.Fatalf("agreed core %v contains no quorum", senders)
	}
}

func TestACSOutputAccessors(t *testing.T) {
	nd := NewNode(Config{Trust: quorum.NewThreshold(4, 1), Input: "x"})
	if _, ok := nd.Output(); ok {
		t.Fatal("output before running")
	}
}

// sizedProbe is an inner message with a known wire size.
type sizedProbe struct{}

func (sizedProbe) SimSize() int { return 8 }

// TestWrapMsgMetrics pins the envelope's metrics contract: SimSize
// forwards the inner payload's size plus the index header, and SimType
// attributes the message to its instance and inner type. Before these,
// every wrapped message counted as 1 byte and all n instances lumped
// into one "acs.wrapMsg" bucket.
func TestWrapMsgMetrics(t *testing.T) {
	w := wrapMsg{Idx: 3, Inner: sizedProbe{}}
	if got := w.SimSize(); got != wrapHeaderSize+8 {
		t.Fatalf("wrapMsg.SimSize() = %d, want %d", got, wrapHeaderSize+8)
	}
	if got := w.SimType(); got != "acs[3]/acs.sizedProbe" {
		t.Fatalf("wrapMsg.SimType() = %q", got)
	}
	// Unsized inner payloads still pay the header on top of the default 1.
	if got := (wrapMsg{Inner: valProbe{}}).SimSize(); got != wrapHeaderSize+1 {
		t.Fatalf("unsized inner SimSize() = %d, want %d", got, wrapHeaderSize+1)
	}

	// Whole-cluster: every binary-agreement instance shows up as its own
	// ByType bucket and wrapped traffic is charged more than 1 byte.
	trust := quorum.NewThreshold(4, 1)
	res := Run(RunConfig{Trust: trust, Mode: gather.UseReliable, Seed: 1, CoinSeed: 2})
	if len(res.Outputs) != 4 {
		t.Fatalf("%d outputs, want 4", len(res.Outputs))
	}
	wraps := 0
	perInstance := map[int]bool{}
	for name, count := range res.Metrics.ByType {
		var idx int
		var rest string
		if n, _ := fmt.Sscanf(name, "acs[%d]/%s", &idx, &rest); n == 2 {
			wraps += count
			perInstance[idx] = true
		}
	}
	if wraps == 0 {
		t.Fatalf("no per-instance wrap buckets in ByType: %v", res.Metrics.ByType)
	}
	for j := 0; j < 4; j++ {
		if !perInstance[j] {
			t.Fatalf("instance %d missing from ByType buckets: %v", j, res.Metrics.ByType)
		}
	}
	// Every wrapped message contributes at least header+1 bytes, every
	// other message at least 1: the old 1-byte-per-wrap accounting cannot
	// satisfy this bound.
	minBytes := res.Metrics.MessagesSent + wraps*wrapHeaderSize
	if res.Metrics.BytesSent < minBytes {
		t.Fatalf("BytesSent = %d < %d: wrapped sizes not forwarded", res.Metrics.BytesSent, minBytes)
	}
}

// valProbe is an inner message without SimSize.
type valProbe struct{}

// bcastProbe drives one wrapped broadcast from process 0, either through
// the new wrapEnv.Broadcast fast path or through the per-destination Send
// loop it replaced.
type bcastProbe struct {
	loop  bool
	times []sim.VirtualTime
	froms []types.ProcessID
}

func (b *bcastProbe) Init(env sim.Env) {
	if env.Self() != 0 {
		return
	}
	we := wrapEnv{Env: env, idx: 2}
	if b.loop {
		for to := 0; to < env.N(); to++ { // the pre-fix implementation
			we.Env.Send(types.ProcessID(to), wrapMsg{Idx: we.idx, Inner: sizedProbe{}})
		}
	} else {
		we.Broadcast(sizedProbe{})
	}
}

func (b *bcastProbe) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	b.times = append(b.times, env.Now())
	b.froms = append(b.froms, from)
}

// TestWrapEnvBroadcastFastPath pins that routing wrapped broadcasts
// through Runner.broadcast changes nothing observable: metrics (counts,
// bytes, ByType) and per-destination delivery order/timing are identical
// to the old per-destination Send loop.
func TestWrapEnvBroadcastFastPath(t *testing.T) {
	run := func(loop bool) ([]*bcastProbe, *sim.Metrics) {
		const n = 5
		nodes := make([]sim.Node, n)
		probes := make([]*bcastProbe, n)
		for i := range nodes {
			p := &bcastProbe{loop: loop}
			nodes[i] = p
			probes[i] = p
		}
		r := sim.NewRunner(sim.Config{N: n, Seed: 11, Latency: sim.UniformLatency{Min: 1, Max: 9}}, nodes)
		r.Run(0)
		return probes, r.Metrics()
	}
	loopProbes, loopMetrics := run(true)
	fastProbes, fastMetrics := run(false)
	if !reflect.DeepEqual(fastMetrics, loopMetrics) {
		t.Fatalf("fast-path metrics diverged:\n got %+v\nwant %+v", fastMetrics, loopMetrics)
	}
	for i := range loopProbes {
		if !reflect.DeepEqual(fastProbes[i].times, loopProbes[i].times) ||
			!reflect.DeepEqual(fastProbes[i].froms, loopProbes[i].froms) {
			t.Fatalf("process %d delivery schedule diverged: fast %v/%v, loop %v/%v",
				i, fastProbes[i].times, fastProbes[i].froms, loopProbes[i].times, loopProbes[i].froms)
		}
	}
}

// TestACSSameSeedDeterministic pins the simulator's reproducibility
// contract for ACS: two runs with the same seeds give identical outputs
// and the full Metrics (incl. the per-instance ByType buckets), and the
// agreement property holds.
func TestACSSameSeedDeterministic(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	run := func() RunResult {
		return Run(RunConfig{
			Trust: trust, Mode: gather.UseReliable,
			Latency: sim.UniformLatency{Min: 1, Max: 15},
			Seed:    5, CoinSeed: 6,
		})
	}
	ref, res := run(), run()
	assertIdenticalOutputs(t, ref.Outputs, 4)
	if !reflect.DeepEqual(res.Metrics, ref.Metrics) {
		t.Fatalf("metrics diverged:\n got %+v\nwant %+v", res.Metrics, ref.Metrics)
	}
	if res.EndTime != ref.EndTime {
		t.Fatalf("end time %d, want %d", res.EndTime, ref.EndTime)
	}
	if !reflect.DeepEqual(res.Outputs, ref.Outputs) {
		t.Fatal("outputs diverged")
	}
}

// TestACSEventBudget pins the shared budget convention on acs.Run: a tiny
// MaxEvents truncates and flags HitLimit; the default (0) budget leaves a
// quiescing run untouched.
func TestACSEventBudget(t *testing.T) {
	trust := quorum.NewThreshold(4, 1)
	base := RunConfig{Trust: trust, Mode: gather.UseReliable, Seed: 1, CoinSeed: 2}
	tiny := base
	tiny.MaxEvents = 5
	if res := Run(tiny); !res.HitLimit {
		t.Fatal("5-event budget not reported as hit")
	}
	if res := Run(base); res.HitLimit {
		t.Fatal("default budget flagged on a quiescing run")
	}
}
