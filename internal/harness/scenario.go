package harness

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/types"
)

// Scenario sweeps: the adversarial conformance layer. Each built-in
// scenario (internal/scenario) bundles a fault schedule with the Definition
// 4.1 properties it must preserve; this file runs scenario × seed through
// the consensus harness, checks every run's declared properties over the
// maximal guild of the scenario's faulty set, and aggregates per-scenario
// stats with first-failing (scenario, seed) attribution.

// ScenarioSweepConfig parameterizes a scenario sweep. The zero value runs
// the sweep default: threshold(4,1) trust, 6 waves, one transaction per
// block, uniform 1..20 latency — the envelope the built-in scenarios'
// fault windows are calibrated against.
type ScenarioSweepConfig struct {
	// Trust is the quorum system (default threshold(4,1) in explicit
	// *quorum.System form — the guild computation needs a *System).
	Trust *quorum.System
	// NumWaves bounds each execution (default 6).
	NumWaves int
	// TxPerBlock is the synthetic workload's block size (default 1).
	TxPerBlock int
	// Latency is the base network model the scenario's link rules layer
	// over (default uniform 1..20).
	Latency sim.LatencyModel
	// MaxEvents bounds each run (0 = sim.DefaultEventBudget).
	MaxEvents int
	// Workers bounds the sweep's worker pool (0 = GOMAXPROCS).
	Workers int
}

// withDefaults resolves the zero-value defaults.
func (c ScenarioSweepConfig) withDefaults() ScenarioSweepConfig {
	if c.Trust == nil {
		sys, err := quorum.NewThresholdExplicit(4, 1)
		if err != nil {
			panic(err)
		}
		c.Trust = sys
	}
	if c.NumWaves == 0 {
		c.NumWaves = 6
	}
	if c.TxPerBlock == 0 {
		c.TxPerBlock = 1
	}
	if c.Latency == nil {
		c.Latency = sim.UniformLatency{Min: 1, Max: 20}
	}
	return c
}

// ScenarioRiderConfig instantiates def for one seed under the sweep
// config: a fresh Scenario (wrappers carry per-run state), its compiled
// fault plane, and its node wraps, over the base consensus configuration.
func ScenarioRiderConfig(def scenario.Definition, base ScenarioSweepConfig, seed int64) RiderConfig {
	base = base.withDefaults()
	n := base.Trust.N()
	sc := def.Build(n, seed)
	return RiderConfig{
		Kind:       Asymmetric,
		Trust:      base.Trust,
		NumWaves:   base.NumWaves,
		TxPerBlock: base.TxPerBlock,
		Seed:       seed,
		CoinSeed:   seed*31 + 7,
		Latency:    base.Latency,
		Fault:      sc.FaultPlane(),
		Wrap:       sc.WrapNode,
		MaxEvents:  base.MaxEvents,
	}
}

// CheckScenarioProperties asserts every property def declares over the
// maximal guild of the scenario's faulty set. The scenario is rebuilt from
// the run's recorded seed (Definition.Build is a pure function of (n,
// seed)), so the checker needs no side channel to the instance that ran.
func CheckScenarioProperties(def scenario.Definition, res RiderResult) error {
	sys, ok := res.Config.Trust.(*quorum.System)
	if !ok {
		return fmt.Errorf("scenario %s: trust must be a *quorum.System for the guild computation", def.Name)
	}
	n := sys.N()
	sc := def.Build(n, res.Config.Seed)
	guild := sys.MaximalGuild(sc.FaultySet(n))
	if guild.IsEmpty() {
		return nil // no guild — the paper's properties are vacuous
	}
	touched := sc.TouchedSet(n)
	for _, prop := range sc.Properties {
		var err error
		switch prop {
		case scenario.TotalOrder:
			err = res.CheckTotalOrder(guild)
		case scenario.Agreement:
			err = res.CheckAgreement(guild)
		case scenario.Integrity:
			err = res.CheckIntegrity(guild)
		case scenario.Validity:
			// Propose from an untouched guild member: a churned process's
			// early vertices exist but its delivery horizon is unreliable.
			proposer := types.ProcessID(-1)
			for _, p := range guild.Members() {
				if !touched.Contains(p) {
					proposer = p
					break
				}
			}
			if proposer >= 0 {
				err = res.CheckValidity(guild, proposer, 1)
			}
		case scenario.Liveness:
			// Every guild member with no node fault must decide at least
			// one wave. Faulted-but-correct members (buffered churn) are
			// exempt: a bounded run may quiesce before the delivery that
			// triggers their recovery.
			for _, p := range guild.Members() {
				if touched.Contains(p) {
					continue
				}
				nr, ok := res.Nodes[p]
				if !ok || nr.DecidedWave <= 0 {
					err = fmt.Errorf("liveness violated: guild member %v decided no wave", p)
					break
				}
			}
		}
		if err != nil {
			return fmt.Errorf("scenario %s: %w", def.Name, err)
		}
	}
	return nil
}

// ScenarioSweepStats aggregates one scenario's multi-seed sweep.
type ScenarioSweepStats struct {
	// Name is the scenario's registry name.
	Name string
	// RiderSweepStats carries the usual Seeds/Runs/Failures/First/
	// HitLimits/Metrics aggregates.
	RiderSweepStats
}

// SweepScenario runs one scenario over the seed range and checks its
// declared properties on every run.
func SweepScenario(def scenario.Definition, seeds []int64, base ScenarioSweepConfig) ScenarioSweepStats {
	base = base.withDefaults()
	stats := Sweeper{Workers: base.Workers}.SweepRider(seeds,
		func(seed int64) RiderConfig { return ScenarioRiderConfig(def, base, seed) },
		func(res RiderResult) error { return CheckScenarioProperties(def, res) })
	return ScenarioSweepStats{Name: def.Name, RiderSweepStats: stats}
}

// ScenarioFailure names the first failing (scenario, seed) of a multi-
// scenario sweep, in (registry, seed) order.
type ScenarioFailure struct {
	Scenario string
	Seed     int64
	Err      error
}

// String implements fmt.Stringer.
func (f *ScenarioFailure) String() string {
	return fmt.Sprintf("scenario %s, seed %d: %v", f.Scenario, f.Seed, f.Err)
}

// SweepScenarios sweeps every definition over the seed range and returns
// per-scenario stats plus the first failing (scenario, seed), if any.
func SweepScenarios(defs []scenario.Definition, seeds []int64, base ScenarioSweepConfig) ([]ScenarioSweepStats, *ScenarioFailure) {
	out := make([]ScenarioSweepStats, 0, len(defs))
	var first *ScenarioFailure
	for _, def := range defs {
		stats := SweepScenario(def, seeds, base)
		out = append(out, stats)
		if first == nil && stats.First != nil {
			first = &ScenarioFailure{Scenario: def.Name, Seed: stats.First.Seed, Err: stats.First.Err}
		}
	}
	return out, first
}

// ExpScenarios runs every built-in scenario over a seed range and
// tabulates per-scenario outcomes — the adversarial counterpart of
// ExpFaults (E16).
func ExpScenarios() string {
	const seedsPerScenario = 8
	stats, first := SweepScenarios(scenario.Builtins(), sim.SeedRange(1, seedsPerScenario),
		ScenarioSweepConfig{Workers: DefaultSweepWorkers})

	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scenario\tseeds ok\thit limits\tdecided nodes\tmessages\tdropped\tfirst failure")
	for _, s := range stats {
		verdict := "—"
		if s.First != nil {
			verdict = s.First.String()
		}
		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%d/%d\t%d\t%d\t%s\n",
			s.Name, s.Seeds-s.Failures, s.Seeds, s.HitLimits,
			s.DecidedNodes, s.Nodes, s.Metrics.MessagesSent, s.Metrics.MessagesDropped, verdict)
	}
	w.Flush()
	if first != nil {
		fmt.Fprintf(&b, "\nFIRST FAILING: %s\n", first)
	}
	b.WriteString("\neach scenario declares the Definition 4.1 properties it must preserve for the\n" +
		"maximal guild; partitions that heal and buffered crash-recovery keep the full\n" +
		"contract (liveness included), while information-destroying faults keep safety.\n")
	return b.String()
}
