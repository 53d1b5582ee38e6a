package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/rider"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// The tcp-n4 workload: four consensus nodes on a loopback TCP mesh, fed
// open loop by one generator goroutine at a fixed rate per replica, well
// below the rate at which a backlog forms (see README.md).
const (
	tcpN        = 4
	tcpRate     = 1000 // commands per second per replica
	tcpBatch    = 256  // commands per block at most
	tcpMaxQueue = 4096 // a command arriving at a full queue is refused
	tcpKeySpace = 4096
	tcpInterval = time.Second / tcpRate // between one replica's commands
	tcpWarmup   = 500 * time.Millisecond
	tcpDrain    = 5 * time.Second // wait for in-flight commands after the load stops
	tcpRuns     = 10              // clusters one invocation splits its budget over
	// The Go scheduler runs the whole cluster on one thread, so the
	// operating system cannot deschedule one replica while the others run
	// on (see README.md).
	tcpProcs = 1
	// GC horizon in rounds. The service default of 12 is about 10 ms of
	// wall-clock rounds here, less than a replica can fall behind on a
	// loaded host; a vertex it then broadcasts for a pruned round is
	// dropped and its commands are lost (README.md, Known behaviour).
	tcpGCDepth = 48
	// The service default (service.Config).
	tcpPipelineDepth = 8
)

// cmdQueue is the replica's admission queue and the rider.Workload its
// node drains into blocks. The generator and the node loop share it.
type cmdQueue struct {
	mu        sync.Mutex
	q         []string
	peak      int
	submitted int
	rejected  int
}

func (c *cmdQueue) push(cmd string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.q) >= tcpMaxQueue {
		c.rejected++
		return false
	}
	c.q = append(c.q, cmd)
	c.submitted++
	c.peak = max(c.peak, len(c.q))
	return true
}

// NextBlock implements rider.Workload.
func (c *cmdQueue) NextBlock(int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := min(tcpBatch, len(c.q))
	if n == 0 {
		return nil
	}
	block := append([]string(nil), c.q[:n]...)
	c.q = c.q[n:]
	return block
}

func (c *cmdQueue) counts() (submitted, rejected, peak int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.submitted, c.rejected, c.peak
}

// tcpReplica is one node plus the benchmark's view of its deliveries.
type tcpReplica struct {
	self  types.ProcessID
	node  *core.Node
	queue cmdQueue
	epoch time.Time
	// from and to bound the measurement window, as offsets from epoch.
	from, to time.Duration

	// Written by the node's loop goroutine only; read after the cluster
	// has closed.
	lat      []time.Duration // own commands due inside the window
	hashes   []uint64        // rolling hash of the delivered log, per position
	seen     []bool          // own command sequence numbers delivered
	dups     int
	bad      int
	commits  int
	inWindow int // own commands delivered inside the window

	owned   atomic.Int64 // own commands delivered
	decided atomic.Int64 // last decided wave
	first   chan struct{}
	once    sync.Once
}

func formatCmd(self types.ProcessID, seq int, due time.Duration) string {
	return fmt.Sprintf("set k%d p%d.%d@%d", seq%tcpKeySpace, int(self), seq, int64(due))
}

// parseCmd recovers the proposer, sequence number and due time.
func parseCmd(tx string) (pid, seq int, due time.Duration, ok bool) {
	at := strings.LastIndexByte(tx, '@')
	if at < 0 {
		return 0, 0, 0, false
	}
	dot := strings.LastIndexByte(tx[:at], '.')
	p := strings.LastIndexByte(tx[:max(dot, 0)], 'p')
	if dot < 0 || p < 0 {
		return 0, 0, 0, false
	}
	d, err1 := strconv.ParseInt(tx[at+1:], 10, 64)
	s, err2 := strconv.Atoi(tx[dot+1 : at])
	id, err3 := strconv.Atoi(tx[p+1 : dot])
	if err1 != nil || err2 != nil || err3 != nil || s < 0 {
		return 0, 0, 0, false
	}
	return id, s, time.Duration(d), true
}

// deliver is the node's DeliverySink.
func (r *tcpReplica) deliver(d rider.Delivery) {
	now := time.Since(r.epoch)
	for _, tx := range d.Txs {
		h := uint64(14695981039346656037) // FNV-1a of the transaction
		for i := 0; i < len(tx); i++ {
			h = (h ^ uint64(tx[i])) * 1099511628211
		}
		prev := uint64(0)
		if len(r.hashes) > 0 {
			prev = r.hashes[len(r.hashes)-1]
		}
		r.hashes = append(r.hashes, prev*31+h)
		if d.Ref.Source != r.self {
			continue
		}
		pid, seq, due, ok := parseCmd(tx)
		if !ok || pid != int(r.self) {
			r.bad++
			continue
		}
		for seq >= len(r.seen) {
			r.seen = append(r.seen, false)
		}
		if r.seen[seq] {
			r.dups++
			continue
		}
		r.seen[seq] = true
		r.owned.Add(1)
		if due >= r.from && due < r.to {
			r.lat = append(r.lat, now-due)
		}
		if now >= r.from && now < r.to {
			r.inWindow++
		}
	}
}

// commit is the node's CommitSink.
func (r *tcpReplica) commit(ev rider.CommitEvent) {
	r.commits++
	r.decided.Store(int64(ev.Wave))
	r.once.Do(func() { close(r.first) })
}

func tcpTrust() quorum.Assumption { return quorum.NewThreshold(tcpN, 1) }

type tcpCluster struct {
	reps []*tcpReplica
	lc   *transport.LocalCluster
}

// startTCP builds the nodes, wraps them if wrap is set, and starts the
// loopback mesh. Due times and the window are offsets from epoch.
func startTCP(seed int64, epoch time.Time, from, to time.Duration,
	wrap func(types.ProcessID, sim.Node) sim.Node) (*tcpCluster, error) {
	trust := tcpTrust()
	c := coin.NewPRF(seed*17+3, tcpN)
	cl := &tcpCluster{}
	nodes := make([]sim.Node, tcpN)
	for i := range nodes {
		r := &tcpReplica{self: types.ProcessID(i), epoch: epoch, from: from, to: to, first: make(chan struct{})}
		r.node = core.NewNode(core.Config{
			Trust: trust, Coin: c, Workload: &r.queue,
			GCDepth: tcpGCDepth, PipelineDepth: tcpPipelineDepth,
			DeliverySink: r.deliver, CommitSink: r.commit,
		})
		cl.reps = append(cl.reps, r)
		nodes[i] = r.node
		if wrap != nil {
			nodes[i] = wrap(r.self, r.node)
		}
	}
	lc, err := transport.NewLocalCluster(nodes, seed)
	if err != nil {
		return nil, err
	}
	cl.lc = lc
	lc.Start()
	return cl, nil
}

// waitFirstCommit blocks until every replica decided a wave.
func (cl *tcpCluster) waitFirstCommit(timeout time.Duration) error {
	deadline := time.After(timeout)
	for _, r := range cl.reps {
		select {
		case <-r.first:
		case <-deadline:
			return errors.New("tcp: no first commit before the timeout")
		}
	}
	return nil
}

// tcpSetup times a slice of cold starts: listen, dial the mesh, start the
// nodes and wait until every replica decided its first wave. Cold start i
// uses seed seed·setupSliceReps+i, so the median does not hang on one
// coin's first leaders.
func tcpSetup(seed int64, cal time.Duration) ([]float64, error) {
	i := int64(0)
	return setupTimes(func() (func(), error) {
		i++
		cl, err := startTCP(seed*setupSliceReps+i-1, time.Now(), 0, 0, nil)
		if err != nil {
			return nil, err
		}
		return cl.lc.Close, cl.waitFirstCommit(10 * time.Second)
	}, cal)
}

// tcpOutcome is one checked run of the loopback cluster.
type tcpOutcome struct {
	window     time.Duration
	lat        []time.Duration // sorted
	committed  int             // own commands committed inside the window
	delivered  int64           // own commands committed over the whole run
	waves      int64           // decided waves at replica 0 inside the window
	alloc      uint64          // bytes allocated inside the window
	attempted  int64
	failed     int64 // refused, or not committed before the drain timeout
	lateMax    time.Duration
	peakMB     float64 // peak memory the runtime held while the cluster ran
	peakQueue  int
	vertices   int // vertices created by all replicas
	commitFrac float64
	stats      transport.HostStats
}

// runTCPLoad runs one cluster with the open-loop generator for d and
// checks its outputs.
func runTCPLoad(seed int64, d time.Duration, wrap func(types.ProcessID, sim.Node) sim.Node) (tcpOutcome, error) {
	var out tcpOutcome
	epoch := time.Now()
	from, to := tcpWarmup, d
	mem := startMemSampler()
	cl, err := startTCP(seed, epoch, from, to, wrap)
	if err != nil {
		mem.stopMB()
		return out, err
	}
	closed := false
	defer func() {
		if !closed {
			cl.lc.Close()
		}
	}()

	var late atomic.Int64
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		for k := 0; ; k++ {
			due := time.Duration(k) * tcpInterval
			if due >= to {
				return
			}
			if wait := due - time.Since(epoch); wait > 0 {
				time.Sleep(wait)
			}
			if lag := time.Since(epoch) - due; lag > time.Duration(late.Load()) {
				late.Store(int64(lag))
			}
			for _, r := range cl.reps {
				r.queue.push(formatCmd(r.self, k, due))
			}
		}
	}()

	var m0, m1 runtime.MemStats
	time.Sleep(from - time.Since(epoch))
	runtime.ReadMemStats(&m0)
	w0 := cl.reps[0].decided.Load()
	time.Sleep(to - time.Since(epoch))
	w1 := cl.reps[0].decided.Load()
	runtime.ReadMemStats(&m1)
	out.window = to - from
	out.waves = w1 - w0
	out.alloc = m1.TotalAlloc - m0.TotalAlloc
	gen.Wait()
	out.lateMax = time.Duration(late.Load())

	// Drain: every admitted command should commit at its proposer.
	drained := time.Now().Add(tcpDrain)
	for time.Now().Before(drained) {
		done := true
		for _, r := range cl.reps {
			if sub, _, _ := r.queue.counts(); r.owned.Load() < int64(sub) {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// Closing the mesh breaks connections mid-write, so the error counters
	// are read while it is still up.
	out.stats = cl.lc.Stats()
	cl.lc.Close()
	closed = true
	out.peakMB = mem.stopMB()
	if e := out.stats.WriteErrors + out.stats.EncodeErrors + out.stats.Requeued; e != 0 {
		return out, fmt.Errorf("tcp: %d transport write/encode errors and requeues", e)
	}
	for _, r := range cl.reps {
		if sub, _, _ := r.queue.counts(); r.owned.Load() < int64(sub) {
			first := 0
			for first < len(r.seen) && r.seen[first] {
				first++
			}
			fmt.Fprintf(os.Stderr, "tcp: replica %v: %d of %d own commands not committed within %v of the load stopping (first missing: %d)\n",
				r.self, int64(sub)-r.owned.Load(), sub, tcpDrain, first)
		}
	}
	longest := cl.reps[0]
	for _, r := range cl.reps {
		sub, rej, peak := r.queue.counts()
		out.attempted += int64(sub + rej)
		out.failed += int64(rej) + int64(sub) - r.owned.Load()
		out.peakQueue = max(out.peakQueue, peak)
		out.committed += r.inWindow
		out.delivered += r.owned.Load()
		out.lat = append(out.lat, r.lat...)
		out.vertices += r.node.Round()
		if r.dups != 0 || r.bad != 0 {
			return out, fmt.Errorf("tcp: replica %v delivered %d duplicate and %d malformed own commands",
				r.self, r.dups, r.bad)
		}
		if len(r.hashes) > len(longest.hashes) {
			longest = r
		}
	}
	for _, r := range cl.reps {
		if n := len(r.hashes); n > 0 && r.hashes[n-1] != longest.hashes[n-1] {
			return out, fmt.Errorf("tcp: replica %v's log is not a prefix of replica %v's", r.self, longest.self)
		}
	}
	if dw := cl.reps[0].node.DecidedWave(); dw > 0 {
		out.commitFrac = float64(cl.reps[0].commits) / float64(dw)
	}
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	return out, nil
}

// percentile returns the nearest-rank p-quantile of sorted xs.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	i := int(p*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func runTCP(o options) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tcpProcs))
	if o.trace {
		return traceTCP(o)
	}
	// The budget is split over tcpRuns fresh clusters with their own seeds;
	// each figure is the median over them, so one cluster in which a
	// replica fell behind (see README.md) shows in failed, not in every
	// figure.
	var attempted, failed int64
	var setups, p50s, p99s, txRate, waveRate, allocPerTx, served, peakMB []float64
	samples := 0
	for k := 0; k < tcpRuns; k++ {
		cal := calibrate()
		times, err := tcpSetup(o.seed*tcpRuns+int64(k), cal)
		if err != nil {
			return result{Attempted: attempted}, err
		}
		setups = append(setups, times...)
		out, err := runTCPLoad(o.seed*tcpRuns+int64(k), o.seconds/tcpRuns, nil)
		attempted += out.attempted
		failed += out.failed
		if err != nil {
			return result{Attempted: attempted}, err
		}
		sec := out.window.Seconds()
		scale := timeScale(cal)
		// The offered load sets the commit rate, so it is not scaled.
		txRate = append(txRate, float64(out.committed)/sec)
		waveRate = append(waveRate, float64(out.waves)/sec/scale)
		served = append(served, 1-ratio(float64(out.failed), float64(out.attempted)))
		peakMB = append(peakMB, out.peakMB)
		// A cluster that stalled (see README.md) has no latencies; its
		// commands count as failed.
		if out.committed > 0 {
			p50s = append(p50s, float64(percentile(out.lat, 0.50))*scale)
			p99s = append(p99s, float64(percentile(out.lat, 0.99))*scale)
			// The rounds between commands run as fast as the CPU allows,
			// and each allocates, so bytes per command scale like a rate.
			allocPerTx = append(allocPerTx, float64(out.alloc)/float64(out.committed)/scale)
		}
		samples += len(out.lat)
		fmt.Fprintf(os.Stderr, "tcp-n4 seed=%d run=%d samples=%d p50=%v p99=%v waves=%d failed=%d late<=%v calibration=%v\n",
			o.seed, k, len(out.lat), percentile(out.lat, 0.50), percentile(out.lat, 0.99), out.waves, out.failed, out.lateMax, cal)
	}
	if len(p50s) == 0 {
		return result{Attempted: attempted}, errors.New("tcp: no cluster committed a command inside its window")
	}
	p50, p99 := median(p50s), median(p99s)
	m := newMetricSet(false)
	m.set("setup_s", median(setups))
	m.set("tx_per_s", median(txRate))
	m.set("waves_per_s", median(waveRate))
	// Over TCP the nodes' Env clock (transport's hostEnv.Now) ticks in
	// microseconds, so the virtual-time figures are the same latencies in
	// that unit.
	m.set("commit_p50_vt", p50/1e3)
	m.set("commit_p99_vt", p99/1e3)
	m.set("commit_p50_ms", p50/1e6)
	m.set("commit_p99_ms", p99/1e6)
	m.set("served_frac", median(served))
	m.set("alloc_bytes_per_tx", median(allocPerTx))
	m.set("peak_mem_mb", median(peakMB))
	metrics, err := m.finish()
	if err != nil {
		return result{Attempted: attempted}, err
	}
	return result{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}
