package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/wire"
)

// The traced run wraps each node (sim.Node) and each state machine
// (service.StateMachine) from the outside. The wrappers forward every
// call unchanged; they only time it, count it, keep a bounded sample of
// the messages, and after each commit of a watched node run read-only
// probes against its DAG. The quorum.Assumption is never wrapped:
// quorum.NewTracker type-switches on *quorum.System and quorum.Threshold,
// so a wrapper would silently measure its fallback path instead.

const (
	spanEvery  = 64      // record one Receive call in this many as a span
	maxSpans   = 1 << 18 // spans kept in memory per run
	sampleCap  = 256     // messages kept per node for the replays
	replayTime = 40 * time.Millisecond
)

// span is one timed interval; Parent 0 means a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer owns one traced run's spans and wrappers.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	op    int64 // span of the run being traced; parent of node spans

	mu      sync.Mutex
	spans   []span
	dropped int

	nodes    []*tracedNode // in creation (process) order
	byPID    map[types.ProcessID]*tracedNode
	machines []*tracedMachine
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byPID: map[types.ProcessID]*tracedNode{}}
}

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(id, parent int64, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// write stores the spans as JSON in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	err = enc.Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// wrap is the node hook (service.Config.Wrap, or applied before
// transport.LocalCluster). The lowest-numbered consensus node is watched.
func (t *tracer) wrap(p types.ProcessID, inner sim.Node) sim.Node {
	w := &tracedNode{inner: inner, t: t, self: p, classes: map[reflect.Type]*classStat{}, samples: sampler{every: 1}}
	w.core, _ = sim.Unwrap(inner).(*core.Node)
	if w.core != nil {
		watched := false
		for _, o := range t.nodes {
			watched = watched || o.watch
		}
		w.watch = !watched
	}
	t.nodes = append(t.nodes, w)
	t.byPID[p] = w
	return w
}

// instrument installs the node and state-machine hooks into cfg.
func (t *tracer) instrument(cfg service.Config) service.Config {
	cfg.Wrap = t.wrap
	cfg.NewMachine = t.machine
	return cfg
}

// machine is the state-machine hook (service.Config.NewMachine).
func (t *tracer) machine(p types.ProcessID) service.StateMachine {
	m := &tracedMachine{inner: service.NewKV(), node: t.byPID[p]}
	t.machines = append(t.machines, m)
	return m
}

// classStat counts one message type's Receive calls.
type classStat struct {
	name  string // e.g. "broadcast.echoMsg"
	layer string // the defining package under internal/, e.g. "broadcast"
	count int64
	ns    int64
}

// tracedNode wraps one node. All its fields belong to the goroutine that
// drives the node and are read only after the run has ended.
type tracedNode struct {
	inner sim.Node
	core  *core.Node // nil for stand-ins such as a crashed process
	t     *tracer
	self  types.ProcessID
	watch bool

	classes  map[reflect.Type]*classStat
	calls    int64
	cur      int64 // id of the Receive span being recorded, else 0
	samples  sampler
	lastWave int

	peakVertices int
	hookNs       int64 // time spent in afterCommit
	weakNs       int64
	weakEdges    int64
	weakCalls    int64
	histNs       int64
	histCalls    int64
}

var _ sim.Node = (*tracedNode)(nil)

func (w *tracedNode) Init(env sim.Env) { w.inner.Init(env) }

// Unwrap implements sim.Unwrapper.
func (w *tracedNode) Unwrap() sim.Node { return w.inner }

func (w *tracedNode) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	typ := reflect.TypeOf(msg)
	st := w.classes[typ]
	if st == nil {
		st = &classStat{name: typ.String(), layer: strings.TrimPrefix(typ.PkgPath(), "repro/internal/")}
		w.classes[typ] = st
	}
	w.samples.offer(msg)
	w.calls++
	if w.calls%spanEvery == 0 {
		w.cur = w.t.newID()
	}
	t0 := time.Now()
	w.inner.Receive(env, from, msg)
	t1 := time.Now()
	st.count++
	st.ns += t1.Sub(t0).Nanoseconds()
	if w.cur != 0 {
		w.t.record(w.cur, w.t.op, st.name, t0, t1)
		w.cur = 0
	}
	if w.core != nil && w.core.DecidedWave() != w.lastWave {
		w.afterCommit()
	}
}

// afterCommit samples the live DAG size and, on the watched node, times
// vertex creation's weak-edge pass and a causal-history walk on a fresh
// vertex over the live DAG. Both only read the DAG.
func (w *tracedNode) afterCommit() {
	t0 := time.Now()
	w.lastWave = w.core.DecidedWave()
	d := w.core.DAG()
	w.peakVertices = max(w.peakVertices, d.VertexCount())
	if w.watch {
		h := d.Height()
		top := d.RoundVertices(h - 1)
		v := &dag.Vertex{Source: w.self, Round: h}
		for _, u := range top {
			v.StrongEdges = append(v.StrongEdges, u.Ref())
		}
		s := time.Now()
		rider.SetWeakEdges(d, v, h)
		m := time.Now()
		w.weakNs += m.Sub(s).Nanoseconds()
		w.weakEdges += int64(len(v.WeakEdges))
		w.weakCalls++
		w.t.record(w.t.newID(), w.t.op, "rider.SetWeakEdges", s, m)
		if len(top) > 0 {
			d.CausalHistory(top[0].Ref())
			e := time.Now()
			w.histNs += e.Sub(m).Nanoseconds()
			w.histCalls++
			w.t.record(w.t.newID(), w.t.op, "dag.CausalHistory", m, e)
		}
	}
	w.hookNs += time.Since(t0).Nanoseconds()
}

// tracedMachine wraps one replica's state machine.
type tracedMachine struct {
	inner     service.StateMachine
	node      *tracedNode
	applies   int64
	applyNs   int64
	snaps     int64
	snapNs    int64
	snapBytes int64
}

func (m *tracedMachine) Apply(tx string) {
	t0 := time.Now()
	m.inner.Apply(tx)
	t1 := time.Now()
	m.applies++
	m.applyNs += t1.Sub(t0).Nanoseconds()
	if m.node != nil && m.node.cur != 0 && m.applies%spanEvery == 0 {
		m.node.t.record(m.node.t.newID(), m.node.cur, "service.Apply", t0, t1)
	}
}

func (m *tracedMachine) Snapshot() []byte {
	t0 := time.Now()
	b := m.inner.Snapshot()
	t1 := time.Now()
	m.snaps++
	m.snapNs += t1.Sub(t0).Nanoseconds()
	m.snapBytes += int64(len(b))
	if m.node != nil {
		parent := m.node.cur
		if parent == 0 {
			parent = m.node.t.op
		}
		m.node.t.record(m.node.t.newID(), parent, "service.Snapshot", t0, t1)
	}
	return b
}

// sampler keeps an evenly spaced sample of at most 2*sampleCap of the
// messages offered: whenever it fills, it drops every other message and
// halves its rate. The sample depends only on the message sequence.
type sampler struct {
	keep  []sim.Message
	every int
	skip  int
}

func (s *sampler) offer(m sim.Message) {
	if s.skip > 0 {
		s.skip--
		return
	}
	s.skip = s.every - 1
	s.keep = append(s.keep, m)
	if len(s.keep) == 2*sampleCap {
		for i := 0; i < sampleCap; i++ {
			s.keep[i] = s.keep[2*i]
		}
		clear(s.keep[sampleCap:])
		s.keep = s.keep[:sampleCap]
		s.every *= 2
	}
}

// layerStats sums the Receive counters of one layer over all nodes.
func (t *tracer) layerStats(layer string) (count, ns int64) {
	for _, w := range t.nodes {
		for _, st := range w.classes {
			if st.layer == layer {
				count += st.count
				ns += st.ns
			}
		}
	}
	return count, ns
}

// totals sums Receive calls, time inside Receive and time inside the
// commit probes over all nodes.
func (t *tracer) totals() (calls, recvNs, hookNs int64) {
	for _, w := range t.nodes {
		calls += w.calls
		hookNs += w.hookNs
		for _, st := range w.classes {
			recvNs += st.ns
		}
	}
	return calls, recvNs, hookNs
}

func (t *tracer) watched() *tracedNode {
	for _, w := range t.nodes {
		if w.watch {
			return w
		}
	}
	return nil
}

// probeMetrics sets the metrics the node and machine wrappers measured.
func (t *tracer) probeMetrics(m *metricSet, vertices int64) {
	bc, bns := t.layerStats("broadcast")
	cc, cns := t.layerStats("core")
	m.set("broadcast.msgs_per_vertex", ratio(float64(bc), float64(vertices)))
	m.set("broadcast.receive_ns_per_msg", ratio(float64(bns), float64(bc)))
	m.set("core.ctrl_receive_ns_per_msg", ratio(float64(cns), float64(cc)))
	var peak int
	for _, w := range t.nodes {
		peak = max(peak, w.peakVertices)
	}
	m.set("dag.peak_live_vertices", float64(peak))
	if w := t.watched(); w != nil {
		m.set("core.ctrl_msgs_per_wave", ratio(float64(cc), float64(w.lastWave)))
		m.set("rider.weak_edges_ns", ratio(float64(w.weakNs), float64(w.weakCalls)))
		m.set("rider.weak_edges_per_vertex", ratio(float64(w.weakEdges), float64(w.weakCalls)))
		m.set("dag.causal_history_ns", ratio(float64(w.histNs), float64(w.histCalls)))
	}
	var applies, applyNs, snaps, snapNs, snapBytes int64
	for _, mc := range t.machines {
		applies += mc.applies
		applyNs += mc.applyNs
		snaps += mc.snaps
		snapNs += mc.snapNs
		snapBytes += mc.snapBytes
	}
	m.set("service.apply_ns_per_tx", ratio(float64(applyNs), float64(applies)))
	m.set("service.snapshot_ns", ratio(float64(snapNs), float64(snaps)))
	m.set("service.snapshot_bytes", ratio(float64(snapBytes), float64(snaps)))
}

// sampledMessages pools every node's message sample.
func (t *tracer) sampledMessages() []sim.Message {
	var out []sim.Message
	for _, w := range t.nodes {
		out = append(out, w.samples.keep...)
	}
	return out
}

// sink keeps replayed results alive so the compiler cannot drop the calls.
var sink int

// nsPerOp repeats pass, which reports how many operations it did, until
// budget has elapsed, and returns the mean time per operation.
func nsPerOp(budget time.Duration, pass func() int) float64 {
	ops := 0
	t0 := time.Now()
	for time.Since(t0) < budget {
		n := pass()
		if n == 0 {
			return 0
		}
		ops += n
	}
	return ratio(float64(time.Since(t0).Nanoseconds()), float64(ops))
}

// replayMetrics replays the sampled messages against the payload digest
// and the wire codec, checking that every frame decodes back to itself,
// and times quorum tracking on the workload's own trust system.
func (t *tracer) replayMetrics(m *metricSet, trust quorum.Assumption, seed int64) error {
	msgs := t.sampledMessages()
	var payloads []rider.VertexPayload
	var coded []sim.Message
	var frames [][]byte
	keyBytes := 0
	for _, msg := range msgs {
		if v := reflect.ValueOf(msg); v.Kind() == reflect.Struct {
			if f := v.FieldByName("Payload"); f.IsValid() && f.CanInterface() {
				if p, ok := f.Interface().(rider.VertexPayload); ok {
					payloads = append(payloads, p)
					keyBytes += len(p.Key())
				}
			}
		}
		if !wire.Registered(msg) {
			continue
		}
		b, err := wire.Marshal(msg)
		if err != nil {
			return err
		}
		back, rest, err := wire.Decode(b)
		if err != nil || len(rest) != 0 {
			return fmt.Errorf("wire: %T frame does not decode: %v", msg, err)
		}
		again, err := wire.Marshal(back)
		if err != nil || string(again) != string(b) {
			return fmt.Errorf("wire: %T does not survive an encode/decode round trip", msg)
		}
		coded = append(coded, msg)
		frames = append(frames, b)
	}
	if len(payloads) == 0 || len(coded) == 0 {
		return errors.New("trace: no vertex payloads or wire messages were sampled")
	}
	m.set("rider.key_bytes", float64(keyBytes)/float64(len(payloads)))
	m.set("rider.key_ns", nsPerOp(replayTime, func() int {
		for _, p := range payloads {
			sink += len(p.Key())
		}
		return len(payloads)
	}))
	m.set("wire.size_ns_per_msg", nsPerOp(replayTime, func() int {
		for _, msg := range coded {
			sink += sim.MessageSize(msg)
		}
		return len(coded)
	}))
	m.set("wire.encode_ns_per_msg", nsPerOp(replayTime, func() int {
		for _, msg := range coded {
			b, _ := wire.Marshal(msg)
			sink += len(b)
		}
		return len(coded)
	}))
	m.set("wire.decode_ns_per_msg", nsPerOp(replayTime, func() int {
		for _, b := range frames {
			_, rest, _ := wire.Decode(b)
			sink += len(rest)
		}
		return len(frames)
	}))
	m.set("quorum.tracker_add_ns", trackerAddNs(trust, seed))
	return nil
}

// trackerAddNs times building one quorum.Tracker per process and adding
// every process to it in a seeded order, per Add.
func trackerAddNs(trust quorum.Assumption, seed int64) float64 {
	n := trust.N()
	order := rand.New(rand.NewSource(seed)).Perm(n)
	return nsPerOp(replayTime, func() int {
		for i := 0; i < n; i++ {
			tr := quorum.NewTracker(trust, types.ProcessID(i))
			for _, p := range order {
				tr.Add(types.ProcessID(p))
			}
			if tr.HasQuorum() {
				sink++
			}
		}
		return n * n
	})
}

// finishTrace writes the spans and the CPU profile and folds the profile
// into per-module shares.
func finishTrace(t *tracer, m *metricSet, o options, profile []byte) error {
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	if err := t.write(base + ".spans.json"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pprof", profile, 0o644); err != nil {
		return err
	}
	shares, err := foldCPUProfile(profile)
	if err != nil {
		return err
	}
	for _, mod := range profileRows {
		m.set(mod+".cpu_share", shares[mod])
	}
	return nil
}

// traceSim runs the seed once untraced and once traced, checks that the
// two runs are identical, and reports the per-layer metrics.
func traceSim(w simSpec, o options) (result, error) {
	trust, err := w.trust()
	if err != nil {
		return result{}, err
	}
	cfg := w.seeded(trust, o.seed, 0)
	ref := runSimOp(cfg)
	attempted := int64(ref.submitted + ref.rejected)
	if err := checkSim(cfg, ref); err != nil {
		return result{Attempted: attempted}, err
	}
	t := newTracer()
	tcfg := t.instrument(cfg)
	var op simOp
	profile, err := withCPUProfile(func() {
		t.op = t.newID()
		start := time.Now()
		op = runSimOp(tcfg)
		t.record(t.op, 0, "service.Run", start, time.Now())
	})
	if err != nil {
		return result{Attempted: attempted}, err
	}
	attempted += int64(op.submitted + op.rejected)
	if err := checkSim(tcfg, op); err != nil {
		return result{Attempted: attempted}, err
	}
	if op.fingerprint != ref.fingerprint {
		return result{Attempted: attempted}, errors.New("the traced run differs from the untraced run")
	}
	events := int64(op.res.Metrics.MessagesDelivered)
	calls, recvNs, hookNs := t.totals()
	if calls != events {
		return result{Attempted: attempted}, fmt.Errorf("wrappers saw %d calls for %d events", calls, events)
	}
	var vertices int64
	for _, n := range t.nodes {
		if n.core != nil {
			vertices += int64(n.core.Round())
		}
	}
	m := newMetricSet(true)
	t.probeMetrics(m, vertices)
	if err := t.replayMetrics(m, trust, o.seed); err != nil {
		return result{Attempted: attempted}, err
	}
	if err := finishTrace(t, m, o, profile); err != nil {
		return result{Attempted: attempted}, err
	}
	watched := op.res.Replicas[t.watched().self]
	peakQueue := 0
	for _, rep := range op.res.Replicas {
		peakQueue = max(peakQueue, rep.PeakQueue)
	}
	tx := float64(op.tx)
	m.set("sim.events_per_tx", float64(events)/tx)
	m.set("sim.sched_ns_per_event", float64(op.wall.Nanoseconds()-recvNs-hookNs)/float64(events))
	m.set("core.commit_ratio", ratio(float64(watched.Commits), float64(watched.DecidedWave)))
	m.set("wire.bytes_per_tx", float64(op.res.Metrics.BytesSent)/tx)
	m.set("transport.msgs_per_frame", 0) // no transport in the simulator
	m.set("transport.errors", 0)
	m.set("service.peak_queue", float64(peakQueue))
	m.set("loadgen.late_ms_max", 0) // the load runs in virtual time
	m.set("loadgen.latency_samples", float64(op.stats.Latency.Count))
	m.set("trace.overhead_frac", op.wall.Seconds()/ref.wall.Seconds()-1)
	metrics, err := m.finish()
	if err != nil {
		return result{Attempted: attempted}, err
	}
	return result{Correct: true, Attempted: attempted, Failed: int64(ref.rejected + op.rejected), Metrics: metrics}, nil
}

// traceTCP runs half the budget untraced and half traced on fresh
// clusters; the nodes are wrapped before they reach the transport.
func traceTCP(o options) (result, error) {
	half := o.seconds / 2
	ref, err := runTCPLoad(o.seed, half, nil)
	if err != nil {
		return result{Attempted: ref.attempted}, err
	}
	t := newTracer()
	var out tcpOutcome
	profile, perr := withCPUProfile(func() {
		t.op = t.newID()
		start := time.Now()
		out, err = runTCPLoad(o.seed, half, t.wrap)
		t.record(t.op, 0, "transport.LocalCluster", start, time.Now())
	})
	attempted := ref.attempted + out.attempted
	if err == nil {
		err = perr
	}
	if err != nil {
		return result{Attempted: attempted}, err
	}
	m := newMetricSet(true)
	t.probeMetrics(m, int64(out.vertices))
	if err := t.replayMetrics(m, tcpTrust(), o.seed); err != nil {
		return result{Attempted: attempted}, err
	}
	if err := finishTrace(t, m, o, profile); err != nil {
		return result{Attempted: attempted}, err
	}
	m.set("sim.events_per_tx", 0) // the simulator is bypassed
	m.set("sim.sched_ns_per_event", 0)
	m.set("core.commit_ratio", out.commitFrac)
	m.set("wire.bytes_per_tx", ratio(float64(out.stats.BytesSent), float64(out.delivered)))
	m.set("transport.msgs_per_frame", ratio(float64(out.stats.MessagesSent), float64(out.stats.FramesSent)))
	m.set("transport.errors", float64(out.stats.WriteErrors+out.stats.EncodeErrors+out.stats.Requeued))
	m.set("service.peak_queue", float64(out.peakQueue))
	m.set("loadgen.late_ms_max", float64(out.lateMax)/1e6)
	m.set("loadgen.latency_samples", float64(len(out.lat)))
	refRate := float64(ref.waves) / ref.window.Seconds()
	rate := float64(out.waves) / out.window.Seconds()
	m.set("trace.overhead_frac", refRate/rate-1)
	metrics, err := m.finish()
	if err != nil {
		return result{Attempted: attempted}, err
	}
	return result{Correct: true, Attempted: attempted, Failed: ref.failed + out.failed, Metrics: metrics}, nil
}
