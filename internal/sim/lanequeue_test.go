package sim

import (
	"math/rand"
	"testing"

	"repro/internal/types"
)

// refHeap is a verbatim copy of the single 4-ary min-heap the lane queue
// replaced. It is retained here as the differential reference: the lane
// queue's pop sequence must be byte-identical to it on every workload,
// because serial-mode delivery order is defined by this total order.
type refHeap struct {
	events []event
}

const refArity = 4

func (q *refHeap) Len() int { return len(q.events) }

func (q *refHeap) push(e event) {
	q.events = append(q.events, e)
	i := len(q.events) - 1
	for i > 0 {
		parent := (i - 1) / refArity
		if !eventLess(&e, &q.events[parent]) {
			break
		}
		q.events[i] = q.events[parent]
		i = parent
	}
	q.events[i] = e
}

func (q *refHeap) pop() event {
	ev := q.events[0]
	last := len(q.events) - 1
	moved := q.events[last]
	q.events[last] = event{}
	q.events = q.events[:last]
	if last == 0 {
		return ev
	}
	i, n := 0, last
	for {
		first := refArity*i + 1
		if first >= n {
			break
		}
		end := first + refArity
		if end > n {
			end = n
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if eventLess(&q.events[c], &q.events[smallest]) {
				smallest = c
			}
		}
		if !eventLess(&q.events[smallest], &moved) {
			break
		}
		q.events[i] = q.events[smallest]
		i = smallest
	}
	q.events[i] = moved
	return ev
}

// eventKey is the comparable identity of a popped event for the
// differential assertions.
type eventKey struct {
	at   VirtualTime
	seq  uint64
	to   types.ProcessID
	from types.ProcessID
}

func keyOf(e event) eventKey { return eventKey{at: e.at, seq: e.seq, to: e.to, from: e.from} }

// drainBoth pops every remaining event from both queues and asserts the
// sequences are identical.
func drainBoth(t *testing.T, lq *laneQueue, ref *refHeap, ctx string) {
	t.Helper()
	if lq.Len() != ref.Len() {
		t.Fatalf("%s: lane queue holds %d events, reference %d", ctx, lq.Len(), ref.Len())
	}
	for ref.Len() > 0 {
		want, got := ref.pop(), lq.pop()
		if keyOf(want) != keyOf(got) {
			t.Fatalf("%s: pop diverged: lane queue %+v, reference %+v", ctx, keyOf(got), keyOf(want))
		}
	}
	if lq.Len() != 0 {
		t.Fatalf("%s: lane queue not drained: %d left", ctx, lq.Len())
	}
}

// TestLaneQueueDifferentialRandom drives randomized workloads — duplicate
// timestamps, interleaved pushes and pops, varying lane counts — through
// the lane queue and the retained 4-ary heap and asserts identical pop
// sequences.
func TestLaneQueueDifferentialRandom(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 30, 100} {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(n)))
			var lq laneQueue
			lq.init(n)
			var ref refHeap
			var seq uint64
			now := VirtualTime(0)
			ops := 400 + rng.Intn(400)
			for op := 0; op < ops; op++ {
				if ref.Len() > 0 && rng.Intn(3) == 0 {
					want, got := ref.pop(), lq.pop()
					if keyOf(want) != keyOf(got) {
						t.Fatalf("n=%d seed=%d op=%d: pop diverged: lane queue %+v, reference %+v",
							n, seed, op, keyOf(got), keyOf(want))
					}
					// Time is monotone in a real run: later pushes never
					// predate the last pop.
					if want.at > now {
						now = want.at
					}
					continue
				}
				seq++
				e := event{
					// Small delay range forces duplicate timestamps.
					at:   now + VirtualTime(rng.Intn(4)),
					seq:  seq,
					to:   types.ProcessID(rng.Intn(n)),
					from: types.ProcessID(rng.Intn(n)),
				}
				lq.push(e)
				ref.push(e)
			}
			drainBoth(t, &lq, &ref, "random drain")
		}
	}
}

// TestLaneQueueSingleReceiverFlood pins the pathological shape the lanes
// were built to survive: every event targets one receiver, so one lane
// carries the entire backlog while the tournament stays fixed.
func TestLaneQueueSingleReceiverFlood(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(7))
	var lq laneQueue
	lq.init(n)
	var ref refHeap
	var seq uint64
	for i := 0; i < 5000; i++ {
		seq++
		e := event{at: VirtualTime(rng.Intn(50)), seq: seq, to: 3, from: types.ProcessID(rng.Intn(n))}
		lq.push(e)
		ref.push(e)
	}
	drainBoth(t, &lq, &ref, "single-receiver flood")
}

// TestLaneQueueDuplicateTimestamps floods every lane at a handful of
// timestamps: the seq tie-break alone must order the pops.
func TestLaneQueueDuplicateTimestamps(t *testing.T) {
	const n = 9
	var lq laneQueue
	lq.init(n)
	var ref refHeap
	var seq uint64
	for round := 0; round < 40; round++ {
		for to := 0; to < n; to++ {
			seq++
			e := event{at: VirtualTime(round % 3), seq: seq, to: types.ProcessID(to)}
			lq.push(e)
			ref.push(e)
		}
	}
	drainBoth(t, &lq, &ref, "duplicate timestamps")
}

// TestLaneQueueFrontierHead pins the merge front: the tournament winner's
// lane head is always the (time, seq)-least pending event, which is what
// pop removes.
func TestLaneQueueFrontierHead(t *testing.T) {
	var lq laneQueue
	lq.init(4)
	head := func() event { return lq.lanes[lq.winnerLane()][0] }
	lq.push(event{at: 5, seq: 1, to: 2})
	lq.push(event{at: 3, seq: 2, to: 0})
	lq.push(event{at: 3, seq: 3, to: 1})
	if h := head(); h.at != 3 || h.seq != 2 || h.to != 0 {
		t.Fatalf("head = %+v, want at=3 seq=2 to=0", keyOf(h))
	}
	if got := lq.pop(); got.seq != 2 {
		t.Fatalf("pop seq = %d, want 2", got.seq)
	}
	if h := head(); h.at != 3 || h.seq != 3 || h.to != 1 {
		t.Fatalf("head after pop = %+v, want at=3 seq=3 to=1", keyOf(h))
	}
}
