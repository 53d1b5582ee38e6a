// Package share is the asymshare analyzer's fixture: every receiver of
// a broadcast is handed the SAME message value, so Receive-reachable
// code must not write through message memory or package-level
// variables. Negative cases pin the
// confinement recognizers (receiver state, copy-before-mutate, atomics)
// against over-reporting.
package share

import (
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/types"
)

// payload is a message with mutable innards, as a broadcast would share.
type payload struct {
	Data  []byte
	Count int
	Tags  map[string]int
}

// globalHits is the bug class: unsynchronized package state touched from
// handlers.
var globalHits int

// atomicHits is the blessed alternative.
var atomicHits atomic.Int64

// node is a protocol node: its own fields are per-process (confined).
type node struct {
	seen    map[types.ProcessID]bool
	scratch []byte
}

func (n *node) Init(env sim.Env) { n.seen = map[types.ProcessID]bool{} }

// Receive is the analysis root: a broadcast delivers the same message
// to every receiver's handler in turn.
func (n *node) Receive(env sim.Env, from types.ProcessID, msg sim.Message) {
	m, ok := msg.(*payload)
	if !ok {
		return
	}

	// --- positive: writes through shared message memory ---
	m.Count++          // want `memory reachable from the delivered message`
	m.Data[0] = 1      // want `memory reachable from the delivered message`
	m.Tags["seen"] = 1 // want `memory reachable from the delivered message`

	d := m.Data // aliasing a message slice does not confine it
	d[1] = 2    // want `memory reachable from the delivered message`

	scribble(m.Data) // want `call to share\.scribble, which mutates memory reachable`

	// --- positive: package-global writes ---
	globalHits++ // want `package-level variable globalHits`

	bump() // the write inside bump is reported there, once per program

	// --- negative: confined state and blessed idioms ---
	n.seen[from] = true              // receiver state is per-process: clean
	n.scratch = append(n.scratch, 1) // receiver state: clean
	cp := append([]byte(nil), m.Data...)
	cp[0] = 9         // copy-before-mutate: clean
	atomicHits.Add(1) // sync/atomic: clean
	env.Send(from, m) // forwarding through the Env: clean

	local := payload{Data: []byte{1}}
	local.Data[0] = 3 // fresh local memory: clean

	// --- suppression ---
	//lint:confined this instance is never a broadcast receiver
	m.Count = 0
}

// scribble mutates its parameter (MutParams summary); the violation is
// attributed to the call site that passes shared memory in.
func scribble(b []byte) {
	if len(b) > 0 {
		b[0] = 0xFF
	}
}

// bump writes a package-level variable and is reachable from Receive.
func bump() {
	globalHits++ // want `package-level variable globalHits`
}

// helperNotReachable is NOT called from any Receive handler: its global
// write is outside the contract (e.g. setup code).
func helperNotReachable() {
	globalHits = 0
}

//lint:confined stale suppression with nothing to suppress // want `unused //lint:confined directive`
func (n *node) quiet() {
	n.scratch = nil
}
