// Package acs implements asymmetric Agreement on a Core Set — the
// primitive the paper contrasts with gather in §2.4: where gather only
// guarantees a common core *inside* possibly different outputs, ACS makes
// all processes agree on an *identical* output set. ACS is equivalent to
// consensus, so it costs expected-constant time rather than gather's
// deterministic constant (the paper's point), which this package makes
// concrete and measurable.
//
// Construction (Ben-Or–Kelmer–Rabin composition, asymmetric throughout):
//
//  1. Run the constant-round asymmetric gather (Algorithm 3) on the
//     inputs.
//  2. When the gather ag-delivers U, feed n parallel instances of the
//     asymmetric binary agreement (internal/abba): instance j gets input
//     1 iff (p_j, ·) ∈ U.
//  3. The output is { (p_j, v_j) : instance j decided 1 }, emitted once
//     every instance has decided and the value of every 1-decided process
//     has been arb-delivered (totality guarantees it will be).
//
// Properties: all maximal-guild processes output the same set (per-
// instance agreement + broadcast consistency); the set contains the
// gather's common core, hence the inputs of at least one quorum (every
// wise process inputs 1 for core members, so unanimity-validity of the
// binary agreement forces those instances to 1).
package acs

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/abba"
	"repro/internal/coin"
	"repro/internal/gather"
	"repro/internal/quorum"
	"repro/internal/sim"
	"repro/internal/types"
)

// Config configures one ACS node.
type Config struct {
	Trust quorum.Assumption
	// Input is this process's proposed value.
	Input string
	// CoinSeed derives the per-instance binary-agreement coins; all nodes
	// of a run must share it.
	CoinSeed int64
	// Mode selects the gather's dissemination layer.
	Mode gather.Dissemination
}

// wrapMsg routes a binary-agreement message to its instance.
type wrapMsg struct {
	Idx   int
	Inner sim.Message
}

// wrapHeaderSize is the envelope overhead charged per wrapped message: a
// two-byte instance index.
const wrapHeaderSize = 2

// SimSize implements sim.Sizer: the inner payload's size plus the index
// header. Without this, every wrapped binary-agreement message counted as
// 1 byte towards BytesSent no matter how large the inner payload was,
// silently deflating every ACS bandwidth figure.
//
//lint:sizer-fallback the codec reports unencodable for unregistered inner messages, so this approximation is still consulted
func (w wrapMsg) SimSize() int { return wrapHeaderSize + sim.MessageSize(w.Inner) }

// SimType implements sim.Typer: wrapped traffic is attributed to its
// binary-agreement instance and inner message type. Without this, all n
// parallel instances lumped into a single "acs.wrapMsg" ByType bucket,
// hiding which instances dominated the traffic.
func (w wrapMsg) SimType() string {
	key := wrapLabelKey{idx: w.Idx, t: reflect.TypeOf(w.Inner)}
	if v, ok := wrapLabels.Load(key); ok {
		return v.(string)
	}
	label := fmt.Sprintf("acs[%d]/%T", w.Idx, w.Inner)
	wrapLabels.Store(key, label)
	return label
}

// wrapLabels caches the (instance, inner type) → label strings: the
// runner resolves SimType once per fan-out, and formatting it each time
// showed up in ACS profiles. The cache is package-global (labels are
// pure functions of the key) and concurrent-safe for parallel sweeps.
var wrapLabels sync.Map

type wrapLabelKey struct {
	idx int
	t   reflect.Type
}

// Node is one process running asymmetric ACS.
type Node struct {
	cfg  Config
	self types.ProcessID
	n    int

	g *gather.ConstantRoundNode

	aba     []*abba.Node
	started []bool
	pending [][]pendingMsg // buffered wrapped messages per instance

	output Pairs
	done   bool
}

// Pairs re-exports the gather pair-set for ACS outputs.
type Pairs = gather.Pairs

type pendingMsg struct {
	from types.ProcessID
	msg  sim.Message
}

var _ sim.Node = (*Node)(nil)

// NewNode creates an ACS node; the protocol starts at Init.
func NewNode(cfg Config) *Node {
	return &Node{
		cfg: cfg,
		g: gather.NewConstantRoundNode(gather.Config{
			Trust: cfg.Trust,
			Input: cfg.Input,
			Mode:  cfg.Mode,
		}),
	}
}

// wrapEnv re-wraps every message an instance sends with its index.
type wrapEnv struct {
	sim.Env
	idx int
}

func (w wrapEnv) Send(to types.ProcessID, msg sim.Message) {
	w.Env.Send(to, wrapMsg{Idx: w.idx, Inner: msg})
}

// Broadcast wraps once and hands the fan-out to the simulator's pooled
// broadcast fast path (one type-counter/SimSize resolution per fan-out).
// The wrapped message is identical for every destination, so this is
// observably the same as the per-destination Send loop it replaces — the
// runner still applies the drop filter, the latency draw and the sequence
// number per destination, in destination order.
func (w wrapEnv) Broadcast(msg sim.Message) {
	w.Env.Broadcast(wrapMsg{Idx: w.idx, Inner: msg})
}

// Init implements sim.Node.
func (n *Node) Init(env sim.Env) {
	n.self = env.Self()
	n.n = env.N()
	n.aba = make([]*abba.Node, n.n)
	n.started = make([]bool, n.n)
	n.pending = make([][]pendingMsg, n.n)
	n.g.Init(env)
	n.afterGather(env)
}

// afterGather starts the binary agreements once the gather delivered.
func (n *Node) afterGather(env sim.Env) {
	u, ok := n.g.Delivered()
	if !ok {
		return
	}
	for j := 0; j < n.n; j++ {
		if n.started[j] {
			continue
		}
		n.started[j] = true
		input := 0
		if u.Contains(types.ProcessID(j)) {
			input = 1
		}
		n.aba[j] = abba.NewNode(abba.Config{
			Trust: n.cfg.Trust,
			Coin:  coin.NewPRF(n.cfg.CoinSeed*1000003+int64(j), n.n),
			Input: input,
		})
		we := wrapEnv{Env: env, idx: j}
		n.aba[j].Init(we)
		for _, pm := range n.pending[j] {
			n.aba[j].Receive(we, pm.from, pm.msg)
		}
		n.pending[j] = nil
	}
	n.tryFinish()
}

// Receive implements sim.Node.
func (n *Node) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	if w, ok := msg.(wrapMsg); ok {
		if w.Idx < 0 || w.Idx >= n.n {
			return
		}
		if !n.started[w.Idx] {
			n.pending[w.Idx] = append(n.pending[w.Idx], pendingMsg{from: from, msg: w.Inner})
			return
		}
		n.aba[w.Idx].Receive(wrapEnv{Env: env, idx: w.Idx}, from, w.Inner)
		n.tryFinish()
		return
	}
	n.g.Receive(env, from, msg)
	n.afterGather(env)
	n.tryFinish()
}

// tryFinish assembles the output once every instance decided and all
// 1-decided values are known.
func (n *Node) tryFinish() {
	if n.done || n.aba == nil {
		return
	}
	known := n.g.KnownInputs()
	out := gather.NewPairs(n.n)
	for j := 0; j < n.n; j++ {
		if n.aba[j] == nil {
			return
		}
		d, ok := n.aba[j].Decided()
		if !ok {
			return
		}
		if d == 1 {
			v, have := known.Get(types.ProcessID(j))
			if !have {
				return // value not yet arb-delivered; totality will bring it
			}
			out.Set(types.ProcessID(j), v)
		}
	}
	n.output = out
	n.done = true
}

// Output returns the agreed core set, if the protocol finished.
func (n *Node) Output() (Pairs, bool) {
	if !n.done {
		return Pairs{}, false
	}
	return n.output, true
}

// RunConfig configures one whole-cluster ACS execution for Run.
type RunConfig struct {
	Trust quorum.Assumption
	// Mode selects the gather's dissemination layer.
	Mode gather.Dissemination
	// Latency is the network model (default uniform 1..20).
	Latency sim.LatencyModel
	// Seed drives the network schedule; CoinSeed the per-instance coins.
	Seed, CoinSeed int64
	// Faulty replaces the given processes with faulty behaviours.
	Faulty map[types.ProcessID]sim.Node
	// Fault is an optional scenario fault plane (see sim.FaultPlane).
	Fault sim.FaultPlane
	// MaxEvents bounds the simulation (0 = the generous
	// sim.DefaultEventBudget, < 0 = unbounded) — the convention shared
	// with harness.RiderConfig and asymdag.ClusterConfig. RunResult
	// reports a truncated run via HitLimit.
	MaxEvents int
}

// RunResult is the observable outcome of one ACS cluster execution.
type RunResult struct {
	// Outputs maps each finished correct process to its agreed core set.
	Outputs map[types.ProcessID]Pairs
	Metrics *sim.Metrics
	EndTime sim.VirtualTime
	// HitLimit reports that the run stopped at the MaxEvents budget with
	// deliveries still pending, instead of reaching quiescence.
	HitLimit bool
}

// Run executes one ACS instance across cfg.Trust.N() simulated processes;
// process p proposes gather.InputValue(p).
func Run(cfg RunConfig) RunResult {
	n := cfg.Trust.N()
	nodes := make([]sim.Node, n)
	raw := make([]*Node, n)
	for i := range nodes {
		nd := NewNode(Config{
			Trust:    cfg.Trust,
			Input:    gather.InputValue(types.ProcessID(i)),
			CoinSeed: cfg.CoinSeed,
			Mode:     cfg.Mode,
		})
		nodes[i] = nd
		raw[i] = nd
	}
	for p, f := range cfg.Faulty {
		nodes[p] = f
		raw[p] = nil
	}
	if cfg.Latency == nil {
		cfg.Latency = sim.UniformLatency{Min: 1, Max: 20}
	}
	limit := sim.ResolveEventBudget(cfg.MaxEvents)
	r := sim.NewRunner(sim.Config{
		N: n, Seed: cfg.Seed, Latency: cfg.Latency, Fault: cfg.Fault,
	}, nodes)
	r.Run(limit)
	res := RunResult{
		Outputs:  map[types.ProcessID]Pairs{},
		Metrics:  r.Metrics(),
		EndTime:  r.Now(),
		HitLimit: limit > 0 && r.Pending() > 0,
	}
	for i, nd := range raw {
		if nd == nil {
			continue
		}
		if o, ok := nd.Output(); ok {
			res.Outputs[types.ProcessID(i)] = o
		}
	}
	return res
}

// RunCluster executes one ACS instance and returns only the outputs — the
// original convenience signature, retained for callers that don't need
// metrics, a fault plane or an event budget.
func RunCluster(trust quorum.Assumption, mode gather.Dissemination, latency sim.LatencyModel, seed, coinSeed int64, faulty map[types.ProcessID]sim.Node) map[types.ProcessID]Pairs {
	return Run(RunConfig{
		Trust: trust, Mode: mode, Latency: latency,
		Seed: seed, CoinSeed: coinSeed, Faulty: faulty,
	}).Outputs
}
