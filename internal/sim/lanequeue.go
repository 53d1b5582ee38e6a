package sim

// The sharded event queue: per-receiver lanes merged through a tournament
// tree.
//
// A single global heap orders all pending events by (time, seq), so every
// push/pop costs O(log total-pending) and the scheduler learns nothing
// about *where* the frontier events go. laneQueue shards the pending set
// by destination instead: one small (time, seq)-ordered binary heap per
// receiver process (a "lane"), merged through a winner tournament tree
// over the lane heads. Push and pop then cost O(log lane-depth + log n),
// where lane depth is the receiver's own backlog — in broadcast-heavy
// protocols the total pending set is ~n× deeper than any one lane. This
// is the serial scheduler's hot path: Step pops one event per delivery.
//
// Ordering contract: (time, seq) is a total order (seq is globally unique
// and monotone), each lane is itself (time, seq)-ordered, and the
// tournament always elects the lane with the globally least head — so the
// pop sequence is byte-identical to the single 4-ary heap this replaces.
// The differential suite in lanequeue_test.go pins that equivalence on
// randomized workloads (duplicate timestamps, interleaved pushes,
// single-receiver floods) against a retained copy of the old heap.
//
// Tournament representation: the classic implicit complete binary tree
// for k-way merging. Conceptual nodes are numbered 1..2k-1; leaf j (for
// j in [k, 2k)) is lane j-k, internal node j (for j in [1, k)) has
// children 2j and 2j+1 and stores, in tour[j], the winning lane of the
// match between its two subtrees. tour[1] is therefore the overall
// winner. This shape is well-formed for every k ≥ 2 (not just powers of
// two): each internal node has exactly two children and leaf depths
// differ by at most one. Updating after a lane's head changes replays
// only the matches on that leaf's root path — O(log k) comparisons.
type laneQueue struct {
	lanes [][]event // lanes[p]: binary min-heap of events for receiver p
	tour  []int32   // tour[1..k-1]: winning lane of each internal match
	k     int
	size  int
}

// init sizes the queue for k receiver lanes.
func (q *laneQueue) init(k int) {
	q.k = k
	q.lanes = make([][]event, k)
	q.size = 0
	if k >= 2 {
		q.tour = make([]int32, k)
		for j := k - 1; j >= 1; j-- {
			q.tour[j] = q.match(j)
		}
	}
}

func (q *laneQueue) Len() int { return q.size }

// contender returns the winning lane of conceptual tree node j.
func (q *laneQueue) contender(j int) int32 {
	if j >= q.k {
		return int32(j - q.k)
	}
	return q.tour[j]
}

// laneLess reports whether lane a's head strictly beats lane b's. An
// empty lane never beats anything; two empty lanes compare equal (the
// caller's left-bias then keeps the choice deterministic).
func (q *laneQueue) laneLess(a, b int32) bool {
	la, lb := q.lanes[a], q.lanes[b]
	if len(la) == 0 {
		return false
	}
	if len(lb) == 0 {
		return true
	}
	return eventLess(&la[0], &lb[0])
}

// match replays the match at internal node j and returns the winner.
func (q *laneQueue) match(j int) int32 {
	a, b := q.contender(2*j), q.contender(2*j+1)
	if q.laneLess(b, a) {
		return b
	}
	return a
}

// update replays the matches on lane's root path after its head changed.
// The walk stops as soon as a match is won by the same lane as before and
// that lane is not the one whose key changed: only `lane`'s key moved, so
// every ancestor match then sees inputs identical to before the update.
// Most pushes of non-frontier events therefore stop after one match,
// which is what keeps the tournament cheaper than re-sifting a global
// heap on small clusters.
func (q *laneQueue) update(lane int) {
	l32 := int32(lane)
	for j := (lane + q.k) >> 1; j >= 1; j >>= 1 {
		w := q.match(j)
		if w == q.tour[j] && w != l32 {
			return
		}
		q.tour[j] = w
	}
}

// winnerLane returns the lane holding the globally least pending event.
// Only meaningful when size > 0.
func (q *laneQueue) winnerLane() int32 {
	if q.k < 2 {
		return 0
	}
	return q.tour[1]
}

// push enqueues e into its receiver's lane; the tournament is replayed
// only when the lane's head actually changed.
func (q *laneQueue) push(e event) {
	lane := int(e.to)
	h := q.lanes[lane]
	headChanged := len(h) == 0 || eventLess(&e, &h[0])
	// Binary sift-up with the hole technique: move parents into the
	// vacated slot and write e once. Each copied event crosses a GC write
	// barrier (Message is an interface), so halving the copies matters as
	// much here as it did in the heap this replaces.
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(&e, &h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	q.lanes[lane] = h
	q.size++
	if headChanged && q.k >= 2 {
		q.update(lane)
	}
}

// pop removes and returns the globally least pending event.
func (q *laneQueue) pop() event {
	w := q.winnerLane()
	h := q.lanes[w]
	ev := h[0]
	last := len(h) - 1
	moved := h[last]
	h[last] = event{} // release the Message reference
	h = h[:last]
	if last > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= last {
				break
			}
			if c+1 < last && eventLess(&h[c+1], &h[c]) {
				c++
			}
			if !eventLess(&h[c], &moved) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = moved
	}
	q.lanes[w] = h
	q.size--
	if q.k >= 2 {
		q.update(int(w))
	}
	return ev
}
