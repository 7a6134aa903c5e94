package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"horus/internal/message"
)

// Endpoint models the communicating entity (paper §3): it has an
// address, can send and receive messages, and carries one protocol
// stack per joined group. A process may own multiple endpoints, each
// with its own stacks.
//
// All protocol execution for an endpoint happens on its event queue
// (see executor), giving the run-to-completion semantics of the
// paper's event-queue model: layers never see concurrent invocations.
type Endpoint struct {
	id        EndpointID
	transport Transport
	exec      executor

	// groups maps joined addresses to their groups. It is copy-on-
	// write: Join and close install a fresh map under mu, and Deliver
	// loads the current one without locking.
	groups atomic.Pointer[map[GroupAddr]*Group]

	mu        sync.Mutex // guards group-map writers, destroyed and malformed
	destroyed bool
	malformed int

	// cur is the packet whose Up is running, nil outside one. Only the
	// event queue touches it (see Context.Keep and Group.deliver).
	cur *inbound

	trace func(format string, args ...interface{})

	// slowPath pins every stack of this endpoint to the reference
	// paths (zero value: compiled cast plans are used where they exist
	// and inbound packets are recycled). Read on the event queue; set
	// it before traffic flows, or from within Do.
	slowPath bool

	// wireTap observes every transmission (both the compiled and the
	// reference send path) before it reaches the transport. The wire
	// and dests slices may alias reused buffers: taps that retain them
	// must copy. Same setting discipline as slowPath.
	wireTap func(dests []EndpointID, wire []byte)
}

// NewEndpoint creates an endpoint with the given identity on top of a
// transport. This is the endpoint downcall of Table 1.
func NewEndpoint(id EndpointID, t Transport) *Endpoint {
	e := &Endpoint{id: id, transport: t}
	e.groups.Store(&map[GroupAddr]*Group{})
	return e
}

// groupMap returns the current group map. Readers must not modify it.
func (e *Endpoint) groupMap() map[GroupAddr]*Group { return *e.groups.Load() }

// setGroupLocked installs a copy of the group map with addr bound to g, or
// removed when g is nil. Caller holds e.mu.
func (e *Endpoint) setGroupLocked(addr GroupAddr, g *Group) {
	old := e.groupMap()
	m := make(map[GroupAddr]*Group, len(old)+1)
	for a, x := range old {
		m[a] = x
	}
	if g == nil {
		delete(m, addr)
	} else {
		m[addr] = g
	}
	e.groups.Store(&m)
}

// ID returns the endpoint's address.
func (e *Endpoint) ID() EndpointID { return e.id }

// SetTrace installs a trace hook receiving layer diagnostics. Pass nil
// to disable.
func (e *Endpoint) SetTrace(fn func(format string, args ...interface{})) { e.trace = fn }

// SetFastPath selects between the fast paths (true, the default) and
// the reference paths (false) for every stack of this endpoint: the
// compiled cast plan or per-layer casting on the send side, recycled or
// never-recycled inbound packets on the receive side. The differential
// suite runs identical schedules both ways and demands byte-identical
// wire output; applications never need to call this.
func (e *Endpoint) SetFastPath(enabled bool) { e.slowPath = !enabled }

// SetWireTap installs a hook observing every outgoing wire image with
// its destination set, regardless of which send path produced it. The
// wire and dests slices may alias reused buffers — copy to retain. Pass
// nil to disable.
func (e *Endpoint) SetWireTap(fn func(dests []EndpointID, wire []byte)) { e.wireTap = fn }

func (e *Endpoint) tracef(format string, args ...interface{}) {
	if e.trace != nil {
		e.trace(format, args...)
	}
}

// Join composes the given protocol stack for a group address and
// returns the group handle; this is the join downcall of Table 1.
// Upcalls emerging from the stack are passed to h. Layers begin work
// (e.g. a membership layer installs its initial singleton view and
// starts discovery) via zero-delay timers they arm during Init, so the
// first upcalls arrive only after Join returns control to the event
// queue.
func (e *Endpoint) Join(addr GroupAddr, spec StackSpec, h Handler) (*Group, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: join %q: endpoint destroyed", e.id, addr)
	}
	if _, dup := e.groupMap()[addr]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: already joined group %q", e.id, addr)
	}
	e.mu.Unlock()

	g := &Group{addr: addr, ep: e, handler: h}
	// Stack construction runs on the endpoint's event queue: layers
	// arm timers during Init, and on wall-clock transports a zero-delay
	// timer callback could otherwise run concurrently with the rest of
	// the initialization.
	var initErr error
	e.exec.Do(func() {
		var stack *Stack
		stack, initErr = newStack(g, spec)
		g.stack = stack // assigned on the queue: visible to queued work
	})
	if initErr != nil {
		return nil, fmt.Errorf("endpoint %s: join %q: %w", e.id, addr, initErr)
	}

	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: join %q: endpoint destroyed", e.id, addr)
	}
	if _, dup := e.groupMap()[addr]; dup {
		e.mu.Unlock()
		return nil, fmt.Errorf("endpoint %s: already joined group %q", e.id, addr)
	}
	e.setGroupLocked(addr, g)
	e.mu.Unlock()
	if reg, ok := e.transport.(GroupRegistrar); ok {
		reg.JoinGroup(e.id, addr)
	}
	return g, nil
}

// Deliver is called by the transport when wire bytes arrive for this
// endpoint. Packets for groups this endpoint has not joined are
// dropped, which lets transports broadcast on a shared medium. Deliver
// never retains wire: the bytes are copied into the packet's own slab
// before Deliver returns, so a transport may pass a reused read buffer.
//
// The packet's event, message and slab come from a pool and go back to
// it when the stack's Up returns, unless the packet was kept (see
// inbound): a layer that stores the event calls Context.Keep, and a
// packet that reaches the application handler is never recycled.
func (e *Endpoint) Deliver(group GroupAddr, wire []byte) {
	g := e.groupMap()[group]
	if g == nil {
		return
	}
	in := inboundPool.Get().(*inbound)
	slab, err := message.UnmarshalInto(&in.msg, wire, in.slab)
	in.slab = slab
	if err != nil {
		// A garbled length prefix: indistinguishable from line noise,
		// dropped exactly like a checksum failure would be.
		inboundPool.Put(in)
		return
	}
	in.ev = Event{Type: UPacket, Msg: &in.msg}
	e.exec.push(task{g: g, in: in})
}

// upPacket runs one packet entry of the event queue: the arrival
// enters the bottom of the group's stack. Afterwards the packet is
// recycled unless something kept it, or the endpoint is pinned to the
// reference path, whose receive side never recycles (the differential
// suites compare the two).
func (e *Endpoint) upPacket(g *Group, in *inbound) {
	e.cur = in
	defer func() {
		e.cur = nil
		// A garbled packet can corrupt a length prefix deep in a
		// header, making a layer pop past the end of the message.
		// That is line damage, not a program bug: drop the packet
		// like any other loss (NAK repairs it) and count it. A
		// CHKSUM layer placed low in the stack makes this path
		// statistically unreachable, which is exactly the paper's
		// §2 argument for that layer. A packet whose Up panicked is
		// never recycled: a half-run layer may hold it.
		if r := recover(); r != nil {
			e.mu.Lock()
			e.malformed++
			e.mu.Unlock()
			e.tracef("endpoint %s: malformed packet dropped: %v", e.id, r)
			return
		}
		if !in.kept && !e.slowPath {
			in.recycle()
		}
	}()
	g.stack.Up(&in.ev)
}

// keepCurrent marks the packet whose Up is running as kept. Outside a
// packet's Up (timers, downcalls issued from Do) it does nothing.
func (e *Endpoint) keepCurrent() {
	if e.cur != nil {
		e.cur.kept = true
	}
}

// Malformed returns how many inbound packets were dropped because a
// layer could not parse them (garbled in flight).
func (e *Endpoint) Malformed() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.malformed
}

// Group returns the handle for a joined group, or nil.
func (e *Endpoint) Group(addr GroupAddr) *Group {
	return e.groupMap()[addr]
}

// Destroy tears down every group stack and marks the endpoint dead;
// this is the destroy downcall of Table 1. Each stack receives a
// destroy downcall (so layers can cancel timers and say goodbye), then
// its handler receives DESTROY and EXIT upcalls.
func (e *Endpoint) Destroy() {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return
	}
	e.destroyed = true
	gs := make([]*Group, 0, len(e.groupMap()))
	for _, g := range e.groupMap() {
		gs = append(gs, g)
	}
	e.mu.Unlock()

	for _, g := range gs {
		g.close(true)
	}
}

// Do runs fn on the endpoint's event queue. Tests and tools use this
// to interact with stacks with run-to-completion semantics.
func (e *Endpoint) Do(fn func()) { e.exec.Do(fn) }
