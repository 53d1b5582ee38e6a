package service

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/quorum"
)

func baseConfig(seed int64) Config {
	return Config{
		Trust:          quorum.NewThreshold(4, 1),
		Seed:           seed,
		CoinSeed:       seed + 1,
		StopAfterWaves: 12,
	}
}

func TestServiceRunsAndStops(t *testing.T) {
	res := Run(baseConfig(1))
	if !res.Stopped {
		t.Fatalf("service did not reach the stop condition (HitLimit=%v)", res.HitLimit)
	}
	for p, rep := range res.Replicas {
		if rep.DecidedWave < 12 {
			t.Errorf("replica %v decided only wave %d", p, rep.DecidedWave)
		}
		if rep.Applied == 0 {
			t.Errorf("replica %v applied no transactions", p)
		}
		if rep.Submitted == 0 {
			t.Errorf("replica %v submitted no commands", p)
		}
		if len(rep.Snapshots) == 0 {
			t.Errorf("replica %v took no snapshots", p)
		}
		if rep.Compacted == 0 {
			t.Errorf("replica %v never compacted its log", p)
		}
		if rep.Latency.Count == 0 {
			t.Errorf("replica %v recorded no commit latencies", p)
		}
	}
}

// TestServiceSnapshotsByteIdentical pins the service's correctness
// contract: any two replicas with a snapshot at the same decided wave have
// byte-identical state and applied counts.
func TestServiceSnapshotsByteIdentical(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		res := Run(baseConfig(seed))
		if !res.Stopped {
			t.Fatalf("seed %d: run truncated", seed)
		}
		compareSnapshots(t, res, fmt.Sprintf("seed %d", seed))
	}
}

func compareSnapshots(t *testing.T, res Result, label string) int {
	t.Helper()
	common, err := CompareSnapshots(res)
	if err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if common == 0 {
		t.Errorf("%s: no snapshot wave was shared by two replicas", label)
	}
	return common
}

// TestServiceSameSeedDeterministic pins the simulator's reproducibility
// contract for the service layer: two runs with the same seed give
// identical reports, snapshots and final states.
func TestServiceSameSeedDeterministic(t *testing.T) {
	base := Run(baseConfig(7))
	res := Run(baseConfig(7))
	for p, rep := range res.Replicas {
		want := base.Replicas[p]
		if rep.DecidedWave != want.DecidedWave || rep.Applied != want.Applied ||
			rep.Submitted != want.Submitted || len(rep.Snapshots) != len(want.Snapshots) {
			t.Fatalf("replica %v diverged: wave %d/%d applied %d/%d",
				p, rep.DecidedWave, want.DecidedWave, rep.Applied, want.Applied)
		}
		if !bytes.Equal(rep.FinalState, want.FinalState) {
			t.Fatalf("replica %v final state differs", p)
		}
		for i := range rep.Snapshots {
			if !bytes.Equal(rep.Snapshots[i].State, want.Snapshots[i].State) {
				t.Fatalf("replica %v snapshot %d differs", p, i)
			}
		}
	}
	if res.EndTime != base.EndTime {
		t.Fatalf("end time %d != %d", res.EndTime, base.EndTime)
	}
}

func TestKVMachineDeterministicSnapshot(t *testing.T) {
	a, b := NewKV(), NewKV()
	cmds := []string{"set x 1", "set y 2", "set x 3", "noise", "set z 9"}
	for _, c := range cmds {
		a.Apply(c)
		b.Apply(c)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("same command sequence produced different snapshots")
	}
	if v, _ := a.Get("x"); v != "3" {
		t.Fatalf("x = %q, want 3", v)
	}
	if a.Len() != 3 {
		t.Fatalf("Len = %d, want 3", a.Len())
	}
}
