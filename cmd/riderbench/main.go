// Command riderbench sweeps the consensus protocols across parameters and
// emits CSV for plotting: per-run commit counts, delivered transactions,
// virtual-time latency, and message/byte costs. The seed sweep fans out
// over a worker pool (sim.Sweep); rows are emitted in seed order and a
// summary line with the per-run means goes to stderr, both independent of
// the worker count.
//
// Usage:
//
//	riderbench -kind asymmetric -system threshold -n 7 -f 2 -waves 10 -seeds 5
//	riderbench -kind symmetric  -system threshold -n 4 -f 1 -tx 8
//	riderbench -kind asymmetric -system counterexample -waves 4 -workers 2
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/harness"
	"repro/internal/quorum"
	"repro/internal/sim"
)

func main() {
	kindFlag := flag.String("kind", "asymmetric", "symmetric | asymmetric")
	system := flag.String("system", "threshold", "threshold | counterexample | federated")
	n := flag.Int("n", 7, "processes (threshold/federated)")
	f := flag.Int("f", 2, "failure threshold (threshold)")
	waves := flag.Int("waves", 10, "waves per run")
	seeds := flag.Int("seeds", 3, "seeds per configuration")
	tx := flag.Int("tx", 4, "transactions per block")
	workers := flag.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	flag.Parse()

	var trust quorum.Assumption
	switch *system {
	case "threshold":
		trust = quorum.NewThreshold(*n, *f)
	case "counterexample":
		trust = quorum.Counterexample()
	case "federated":
		fed, err := quorum.NewFederated(quorum.FederatedConfig{
			N: *n, TopTier: max(3, *n*2/3), TrustedPeers: 2, Tolerance: 1, Seed: 1,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		trust = fed
	default:
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *system)
		os.Exit(2)
	}

	kind := harness.Asymmetric
	if *kindFlag == "symmetric" {
		kind = harness.Symmetric
	}

	// Fan the per-seed runs out over the worker pool; records come back
	// positioned by seed, so the CSV is identical to the old serial loop
	// for every worker count.
	type record struct {
		row          []string
		commits, med int
		vtime        int64
		msgs         int
		hitLimit     bool
	}
	res := sim.Sweep(sim.SeedRange(0, *seeds), *workers, func(seed int64) record {
		r := harness.RunRider(harness.RiderConfig{
			Kind: kind, Trust: trust, NumWaves: *waves, TxPerBlock: *tx,
			Seed: seed, CoinSeed: seed * 101,
		})
		commits, med := summarize(r)
		return record{
			row: []string{
				kind.String(), *system, strconv.Itoa(trust.N()), strconv.FormatInt(seed, 10),
				strconv.Itoa(*waves), strconv.Itoa(commits), strconv.Itoa(med),
				strconv.FormatInt(int64(r.EndTime), 10),
				strconv.Itoa(r.Metrics.MessagesSent), strconv.Itoa(r.Metrics.BytesSent),
				strconv.FormatBool(r.HitLimit),
			},
			commits: commits, med: med, vtime: int64(r.EndTime), msgs: r.Metrics.MessagesSent,
			hitLimit: r.HitLimit,
		}
	})
	if err := res.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()
	_ = w.Write([]string{"kind", "system", "n", "seed", "waves", "max_commits", "median_tx", "vtime", "messages", "bytes", "hit_limit"})
	hitLimits := 0
	firstHitSeed := int64(-1)
	sum := sim.Reduce(res, record{}, func(acc record, seed int64, r record) record {
		_ = w.Write(r.row)
		acc.commits += r.commits
		acc.med += r.med
		acc.vtime += r.vtime
		acc.msgs += r.msgs
		if r.hitLimit {
			hitLimits++
			if firstHitSeed < 0 {
				firstHitSeed = seed
			}
		}
		return acc
	})
	if runs := len(res.Values); runs > 0 {
		fr := float64(runs)
		fmt.Fprintf(os.Stderr, "summary: %d runs, mean commits %.1f, mean median-tx %.1f, mean vtime %.0f, mean msgs %.0f\n",
			runs, float64(sum.commits)/fr, float64(sum.med)/fr, float64(sum.vtime)/fr, float64(sum.msgs)/fr)
		if hitLimits > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: %d/%d runs truncated at their event budget (first seed %d); results understate the full execution\n",
				hitLimits, runs, firstHitSeed)
		}
	}
}

func summarize(res harness.RiderResult) (maxCommits, medianTx int) {
	var txs []int
	for _, nr := range res.Nodes {
		txs = append(txs, len(nr.Blocks))
		if len(nr.Commits) > maxCommits {
			maxCommits = len(nr.Commits)
		}
	}
	if len(txs) == 0 {
		return 0, 0
	}
	// Insertion sort; tiny slice.
	for i := 1; i < len(txs); i++ {
		for j := i; j > 0 && txs[j] < txs[j-1]; j-- {
			txs[j], txs[j-1] = txs[j-1], txs[j]
		}
	}
	return maxCommits, txs[len(txs)/2]
}
