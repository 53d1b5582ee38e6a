package harness

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/quorum"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// randomConformanceSystem derives a random asymmetric system the way the
// conformance suite does, falling back to an explicit threshold system
// when the random parameters admit no valid one.
func randomConformanceSystem(seed int64) (*quorum.System, error) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(5)
	sys, err := quorum.RandomAsymmetric(quorum.RandomAsymmetricConfig{
		N: n, NumSets: 1 + rng.Intn(2), MaxFault: 1, Seed: rng.Int63(),
	})
	if err != nil {
		return quorum.NewThresholdExplicit(n, (n-1)/3)
	}
	return sys, nil
}

// TestScenarioSameSeedDeterministic pins the scenario engine's core
// contract: a scenario run is a pure function of the seed. Every built-in
// scenario's sweep — full aggregate stats including the merged Metrics
// with ByType — is byte-identical when run twice. This covers the fault
// plane's RNG draws and the stateful node wrappers, which the plain
// same-seed rider check does not exercise.
func TestScenarioSameSeedDeterministic(t *testing.T) {
	seeds := sim.SeedRange(1, 4)
	if testing.Short() {
		seeds = sim.SeedRange(1, 2)
	}
	for _, def := range scenario.Builtins() {
		ref := SweepScenario(def, seeds, ScenarioSweepConfig{})
		if ref.Metrics == nil || len(ref.Metrics.ByType) == 0 {
			t.Fatalf("%s: reference sweep produced no ByType metrics (vacuous comparison)", def.Name)
		}
		if got := SweepScenario(def, seeds, ScenarioSweepConfig{}); !reflect.DeepEqual(got, ref) {
			t.Fatalf("scenario %s: same seeds diverged:\n got %+v\nwant %+v", def.Name, got, ref)
		}
	}
}

// TestScenarioConformanceSweep is the randomized scenario × seed
// conformance sweep: every built-in scenario (partitions that heal,
// crash-recover churn, Byzantine wrappers, ...) over a seed range, with
// each scenario's declared Definition 4.1 properties checked on every
// run.
func TestScenarioConformanceSweep(t *testing.T) {
	seedCount := 16
	if testing.Short() {
		seedCount = 3
	}
	defs := scenario.Builtins()
	stats, first := SweepScenarios(defs, sim.SeedRange(1, seedCount), ScenarioSweepConfig{})
	if first != nil {
		t.Fatalf("first failing: %s", first)
	}
	total := 0
	byName := map[string]ScenarioSweepStats{}
	for _, s := range stats {
		byName[s.Name] = s
		total += s.Runs
		if s.Failures > 0 {
			t.Errorf("scenario %s: %d/%d seeds failed; first %s", s.Name, s.Failures, s.Seeds, s.First)
		}
		if s.Runs != seedCount {
			t.Errorf("scenario %s: only %d/%d runs completed", s.Name, s.Runs, seedCount)
		}
		if s.HitLimits > 0 {
			t.Errorf("scenario %s: %d runs truncated at their event budget", s.Name, s.HitLimits)
		}
	}
	if !testing.Short() && total < 100 {
		t.Fatalf("sweep too small: %d runs, need >= 100", total)
	}
	// Guard against vacuous sweeps: the recovery scenarios must actually
	// decide, and the fault scenarios must actually inject.
	for _, name := range []string{"baseline", "partition-heal", "crash-recover", "rolling-churn", "dup-reorder"} {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("required scenario %s missing from the registry", name)
		}
		if s.DecidedNodes != s.Nodes {
			t.Errorf("scenario %s: only %d/%d nodes decided (full liveness expected)", name, s.DecidedNodes, s.Nodes)
		}
	}
	if byName["partition-drop"].Metrics.MessagesDropped == 0 {
		t.Error("partition-drop injected no drops (vacuous)")
	}
	if byName["dup-reorder"].Metrics.MessagesSent <= byName["baseline"].Metrics.MessagesSent {
		t.Error("dup-reorder produced no duplicate traffic (vacuous)")
	}
	if byName["partition-heal"].EndTime <= byName["baseline"].EndTime {
		t.Error("partition-heal did not delay the schedule (vacuous hold)")
	}
}

// TestScenarioSweepRandomizedTrust runs the heal and churn scenarios over
// randomized asymmetric systems (conformance-suite style): the property
// checker computes each run's maximal guild from the scenario's faulty
// set, so it must hold beyond the threshold default too.
func TestScenarioSweepRandomizedTrust(t *testing.T) {
	seedCount := 8
	if testing.Short() {
		seedCount = 2
	}
	for _, name := range []string{"partition-heal", "crash-recover", "churn-lossy", "equivocate"} {
		def, ok := scenario.Find(name)
		if !ok {
			t.Fatalf("builtin %s missing", name)
		}
		for _, sysSeed := range []int64{3, 11} {
			sys, err := randomConformanceSystem(sysSeed)
			if err != nil {
				t.Fatalf("system seed %d: %v", sysSeed, err)
			}
			stats := SweepScenario(def, sim.SeedRange(1, seedCount), ScenarioSweepConfig{Trust: sys})
			if stats.Failures > 0 {
				t.Errorf("%s on random system %d: %d/%d failed; first %s",
					name, sysSeed, stats.Failures, stats.Seeds, stats.First)
			}
		}
	}
}

// TestCheckScenarioPropertiesRejectsViolations pins that the checker is
// not vacuously green: a scenario declaring liveness over a run where a
// guild member decided nothing must fail.
func TestCheckScenarioPropertiesRejectsViolations(t *testing.T) {
	def := scenario.Definition{
		Name: "mute-with-liveness",
		Build: func(n int, seed int64) scenario.Scenario {
			return scenario.Scenario{
				Name: "mute-with-liveness",
				// Deliberately misdeclared: the mute process is marked
				// correct, so it stays in the guild while deciding nothing.
				Faults: []scenario.NodeFault{{
					P: 3, Correct: true,
					Wrap: func(sim.Node) sim.Node { return sim.MuteNode{} },
				}},
				Properties: []scenario.Property{scenario.Liveness},
			}
		},
	}
	// The mute process carries a node fault, so plain Liveness skips it
	// (touched). Force the issue: declare liveness and check a different
	// process's absence instead — run the real scenario and verify the
	// checker catches a guild member without decisions.
	res := RunRider(ScenarioRiderConfig(def, ScenarioSweepConfig{}, 1))
	// Remove an untouched guild member's result to simulate a stall.
	for p := range res.Nodes {
		if p != 3 {
			delete(res.Nodes, p)
			break
		}
	}
	if err := CheckScenarioProperties(def, res); err == nil {
		t.Fatal("checker passed a run with a non-deciding untouched guild member")
	}
}

// TestExpScenarios smoke-tests the experiment artifact.
func TestExpScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	out := ExpScenarios()
	for _, want := range []string{"baseline", "partition-heal", "crash-recover", "equivocate", "first failure"} {
		if !strings.Contains(out, want) {
			t.Errorf("ExpScenarios output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FIRST FAILING") {
		t.Errorf("ExpScenarios reports a failure:\n%s", out)
	}
}
