package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/types"
)

// simSpec is one simulator workload: a trust system built at set-up and a
// service configuration run open loop in virtual time for a fixed number
// of decided waves.
type simSpec struct {
	name  string
	waves int
	// inputs is how many schedules (network and coin seeds) one run
	// cycles through; the virtual-time figures average over them.
	inputs int
	trust  func() (quorum.Assumption, error)
	config func(trust quorum.Assumption) service.Config
}

// queueBound is how many blocks' worth of commands the admission queue may
// hold at its peak before a run counts as overloaded.
const queueBound = 4

// simFat: big blocks on a narrow DAG, at about 56% of the measured
// capacity of n=4 (see README.md).
var simFat = simSpec{
	name:   "sim-fat-n4",
	waves:  250,
	inputs: 4,
	trust:  func() (quorum.Assumption, error) { return quorum.NewThreshold(4, 1), nil },
	config: func(trust quorum.Assumption) service.Config {
		return service.Config{Trust: trust, ClientRate: 32, BatchSize: 256, KeySpace: 4096, MaxQueue: 4096}
	},
}

// simUNL16 is a Ripple-style asymmetric system with process 0 crashed
// from the start, at about 50% of capacity (see README.md).
var simUNL16 = simSpec{
	name:   "sim-unl16-crash",
	waves:  60,
	inputs: 8,
	trust:  buildUNL16,
	config: func(trust quorum.Assumption) service.Config {
		return service.Config{Trust: trust, ClientRate: 1, BatchSize: 12,
			Faulty: map[types.ProcessID]sim.Node{0: sim.MuteNode{}}}
	},
}

// buildUNL16 builds the trust system and checks that it is valid, meets
// B3, and that every other process tolerates the crash of process 0 and
// stays in the guild.
func buildUNL16() (quorum.Assumption, error) {
	s, err := quorum.NewUNL(quorum.UNLConfig{N: 16, ListSize: 10, Deviation: 2, Tolerance: 2, Seed: 7})
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if !s.SatisfiesB3() {
		return nil, errors.New("unl16: B3 violated")
	}
	crashed := types.NewSetOf(16, 0)
	guild := s.MaximalGuild(crashed)
	for i := 1; i < 16; i++ {
		p := types.ProcessID(i)
		if !s.Tolerates(p, crashed) || !guild.Contains(p) {
			return nil, fmt.Errorf("unl16: process %v does not tolerate the crash of 0", p)
		}
	}
	return s, nil
}

// seeded returns the workload's configuration for input j of a seed.
func (w simSpec) seeded(trust quorum.Assumption, seed int64, j int) service.Config {
	cfg := w.config(trust)
	cfg.Seed = seed*16 + int64(j)
	cfg.CoinSeed = cfg.Seed*17 + 3
	cfg.StopAfterWaves = w.waves
	return cfg
}

// simOp is one measured service run.
type simOp struct {
	res   service.Result
	stats harness.ServiceStats
	wall  time.Duration
	alloc uint64 // bytes allocated during the run
	// peakMB is the peak memory the runtime held during the run.
	peakMB float64
	tx     int // distinct client transactions committed
	waves  int // decided waves at the lowest-numbered replica
	// submitted and rejected count client commands admitted and refused.
	submitted, rejected int
	fingerprint         string
}

func runSimOp(cfg service.Config) simOp {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mem := startMemSampler()
	t0 := time.Now()
	res := service.Run(cfg)
	wall := time.Since(t0)
	peak := mem.stopMB()
	runtime.ReadMemStats(&m1)
	op := simOp{res: res, stats: harness.SummarizeService(res), wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, peakMB: peak}
	pids := make([]types.ProcessID, 0, len(res.Replicas))
	for p := range res.Replicas {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	h := sha256.New()
	fmt.Fprintf(h, "end=%d events=%d sent=%d bytes=%d\n", res.EndTime,
		res.Metrics.MessagesDelivered, res.Metrics.MessagesSent, res.Metrics.BytesSent)
	for i, p := range pids {
		rep := res.Replicas[p]
		if i == 0 {
			op.waves = rep.DecidedWave
		}
		op.tx = max(op.tx, rep.Applied)
		op.submitted += rep.Submitted
		op.rejected += rep.Rejected
		fmt.Fprintf(h, "%v wave=%d commits=%d applied=%d sub=%d rej=%d peakq=%d lat=%+v state=%x\n",
			p, rep.DecidedWave, rep.Commits, rep.Applied, rep.Submitted, rep.Rejected,
			rep.PeakQueue, rep.Latency, sha256.Sum256(rep.FinalState))
		for _, s := range rep.Snapshots {
			fmt.Fprintf(h, "snap %d %d %x\n", s.Wave, s.Applied, sha256.Sum256(s.State))
		}
	}
	op.fingerprint = fmt.Sprintf("%x", h.Sum(nil))
	return op
}

// checkSim applies the correctness checks every simulator run must pass.
func checkSim(cfg service.Config, op simOp) error {
	if !op.res.Stopped || op.res.HitLimit {
		return fmt.Errorf("run ended at the event budget before wave %d", cfg.StopAfterWaves)
	}
	n, err := harness.CheckServiceSnapshots(op.res)
	if err != nil {
		return err
	}
	if n == 0 {
		return errors.New("no two replicas snapshotted at a common wave")
	}
	for p, rep := range op.res.Replicas {
		if rep.PeakQueue > queueBound*cfg.BatchSize {
			return fmt.Errorf("replica %v queue peaked at %d commands (> %d blocks of %d)",
				p, rep.PeakQueue, queueBound, cfg.BatchSize)
		}
	}
	if op.stats.Latency.Count == 0 || op.tx == 0 {
		return errors.New("no client transaction committed")
	}
	return nil
}

// simSetup returns the cold start: build and validate the trust system,
// then run a fresh cluster until every replica decided its first wave.
// Cold start i uses schedule i, so the median does not hang on one
// schedule's first wave. Each cold start sets *trust to the trust system
// it built.
func simSetup(w simSpec, seed int64, trust *quorum.Assumption) func() (func(), error) {
	i := 0
	return func() (func(), error) {
		var err error
		if *trust, err = w.trust(); err != nil {
			return nil, err
		}
		cfg := w.seeded(*trust, seed, i)
		i++
		cfg.StopAfterWaves = 1
		if !service.Run(cfg).Stopped {
			return nil, errors.New("set-up run did not decide its first wave")
		}
		return nil, nil
	}
}

func runSim(w simSpec, o options) (result, error) {
	if o.trace {
		return traceSim(w, o)
	}
	var trust quorum.Assumption
	coldStart := simSetup(w, o.seed, &trust)
	// Op i runs input i mod w.inputs, after a slice of cold starts. The virtual-time figures are exact
	// per seed, every repeat of an input must reproduce its first run bit
	// for bit, and the wall-clock figures are medians over all ops.
	var firsts []simOp // with res dropped, so memory holds one run at a time
	var attempted, rejected int64
	var setups, txRate, waveRate, allocPerTx, msPerVT, peakMB, cals, rawRate []float64
	start := time.Now()
	for i := 0; i < w.inputs || time.Since(start) < o.seconds; i++ {
		cal := calibrate()
		times, err := setupTimes(coldStart, cal)
		if err != nil {
			return result{Attempted: attempted}, err
		}
		setups = append(setups, times...)
		cfg := w.seeded(trust, o.seed, i%w.inputs)
		op := runSimOp(cfg)
		attempted += int64(op.submitted + op.rejected)
		rejected += int64(op.rejected)
		if err := checkSim(cfg, op); err != nil {
			return result{Attempted: attempted}, err
		}
		sec := op.wall.Seconds() * timeScale(cal)
		cals = append(cals, cal.Seconds())
		rawRate = append(rawRate, float64(op.tx)/op.wall.Seconds())
		txRate = append(txRate, float64(op.tx)/sec)
		waveRate = append(waveRate, float64(op.waves)/sec)
		allocPerTx = append(allocPerTx, float64(op.alloc)/float64(op.tx))
		msPerVT = append(msPerVT, 1e3*sec/float64(op.res.EndTime))
		peakMB = append(peakMB, op.peakMB)
		if i < w.inputs {
			op.res = service.Result{}
			firsts = append(firsts, op)
		} else if op.fingerprint != firsts[i%w.inputs].fingerprint {
			return result{Attempted: attempted}, errors.New("a repeat of the same input diverged from its first run")
		}
	}
	// The latency figures are the medians over the schedules of the worst
	// replica's percentiles, so one schedule in which the crashed process
	// leads several waves in a row does not set them.
	var p50s, p99s []float64
	var samples int64
	for _, op := range firsts {
		p50s = append(p50s, float64(op.stats.Latency.P50))
		p99s = append(p99s, float64(op.stats.Latency.P99))
		samples += op.stats.Latency.Count
	}
	p50, p99 := median(p50s), median(p99s)
	fmt.Fprintf(os.Stderr, "%s seed=%d ops=%d latency samples=%d p50=%vvt p99=%vvt calibration=%.2fms unscaled tx/s=%.0f\n",
		w.name, o.seed, len(txRate), samples, p50s, p99s, 1e3*median(cals), median(rawRate))
	m := newMetricSet(false)
	m.set("setup_s", median(setups))
	m.set("tx_per_s", median(txRate))
	m.set("waves_per_s", median(waveRate))
	m.set("commit_p50_vt", p50)
	m.set("commit_p99_vt", p99)
	// The simulator has no wall-clock latency; these are the wall time the
	// simulator takes to advance through the same virtual-time latency.
	m.set("commit_p50_ms", p50*median(msPerVT))
	m.set("commit_p99_ms", p99*median(msPerVT))
	m.set("served_frac", 1-ratio(float64(rejected), float64(attempted)))
	m.set("alloc_bytes_per_tx", median(allocPerTx))
	m.set("peak_mem_mb", median(peakMB))
	metrics, err := m.finish()
	if err != nil {
		return result{Attempted: attempted}, err
	}
	return result{Correct: true, Attempted: attempted, Failed: rejected, Metrics: metrics}, nil
}
