package core

import (
	"time"

	"horus/internal/message"
)

// Layer is the abstract data type at the heart of the paper: a
// protocol module with standardized top and bottom interfaces, so that
// layers "can be stacked on top of each other like LEGO blocks" at run
// time (paper §1, Figure 1).
//
// A layer instance is private to one (endpoint, group) pair — "although
// a single layer may be used concurrently by many groups and many
// endpoints in the same process, each instance has its own state"
// (paper §3). Instances are created by a Factory each time a stack is
// composed.
//
// Down receives events travelling from the application toward the
// network; Up receives events travelling from the network toward the
// application. A layer reacts to the event kinds it implements and
// passes everything else through via its Context. All invocations on
// one stack are serialized by the endpoint's event queue, so layer
// code needs no internal locking.
type Layer interface {
	// Name returns the layer's protocol name, e.g. "NAK".
	Name() string
	// Init is called once, after the stack is assembled and before any
	// event is delivered. The layer keeps c for passing events on.
	Init(c *Context) error
	// Down handles an event moving toward the network.
	Down(ev *Event)
	// Up handles an event moving toward the application.
	Up(ev *Event)
}

// Factory creates a fresh layer instance for one (endpoint, group).
type Factory func() Layer

// StackSpec lists the layer factories of a stack, top first. The §7
// example stack TOTAL:MBRSHIP:FRAG:NAK:COM is written
//
//	StackSpec{total.New, mbrship.New, frag.New, nak.New, com.New}
type StackSpec []Factory

// Handler receives the upcalls that emerge from the top of a stack.
// It is the "top-most module that converts the Horus protocol
// abstraction into one matching the needs of a user" (paper §2).
// Handlers run on the endpoint's event queue; they may issue downcalls
// (Cast, Ack, ...) freely — those are enqueued, not recursive. A handler
// may retain ev and ev.Msg: a packet whose processing reaches the
// handler is never recycled (see Context.Keep).
type Handler func(ev *Event)

// Context is a layer's window onto its position in a stack. It carries
// events to the adjacent layers, provides timers and identity, and —
// for the bottom layer only — access to the raw transport.
type Context struct {
	stack *Stack
	index int
	// sub is non-nil for a layer living inside a host-managed segment
	// (see SubStack): Down/Up route within the segment and timers stop
	// firing once the segment is detached. Everything else — identity,
	// transport, timers, tracing — is shared with the outer stack.
	sub *SubStack
}

// Down passes ev to the next layer below that acts on it (transparent
// layers are skipped via the precomputed tables, §10 item 1), or
// absorbs it at the bottom of the stack. A message-bearing downcall
// falling off the bottom means the stack lacks a COM layer; it is
// reported as a SYSTEM_ERROR upcall rather than silently dropped.
func (c *Context) Down(ev *Event) {
	if c.sub != nil {
		c.sub.down(c.index+1, ev)
		return
	}
	n := len(c.stack.layers)
	j := c.stack.skipNextDown(ev.Type, c.index+1, n)
	if j < n {
		c.stack.layers[j].Down(ev)
		if j == n-1 && ev.pool != nil {
			c.stack.releaseDowncall(ev)
		}
		return
	}
	switch ev.Type {
	case DCast, DSend:
		c.stack.deliverUp(&Event{
			Type:   USystemError,
			Reason: "message downcall fell off the bottom of the stack (no COM layer?)",
		})
	default:
		// Control downcalls are absorbed below the bottom layer.
	}
}

// Up passes ev to the next layer above that acts on it, or delivers it
// to the application handler at the top of the stack.
func (c *Context) Up(ev *Event) {
	if c.sub != nil {
		c.sub.up(c.index-1, ev)
		return
	}
	j := c.stack.skipNextUp(ev.Type, c.index-1)
	if j >= 0 {
		c.stack.layers[j].Up(ev)
		return
	}
	c.stack.deliverUp(ev)
}

// SendTo passes a send downcall of msg to the single destination dst
// down the stack, like Down(&Event{Type: DSend, Msg: msg, Dests:
// []EndpointID{dst}}) but without allocating: the event and its
// destination set come from the stack's free list and return to it
// when the bottom layer's Down returns. This is the hand-off rule of
// pooled messages, applied to the event: layers below may queue the
// event and pass it on later, but no layer reads a send downcall after
// passing it down. A downcall that never reaches the bottom is simply
// not reused.
func (c *Context) SendTo(dst EndpointID, msg *message.Message) {
	s := c.stack
	var d *downcall
	if k := len(s.downcalls); k > 0 {
		d = s.downcalls[k-1]
		s.downcalls = s.downcalls[:k-1]
	} else {
		d = new(downcall)
	}
	d.dst[0] = dst
	d.ev = Event{Type: DSend, Msg: msg, Dests: d.dst[:], pool: d}
	c.Down(&d.ev)
}

// downcall is one pooled send downcall: the event and the backing
// array of its one-element destination set.
type downcall struct {
	ev  Event
	dst [1]EndpointID
}

// maxFreeDowncalls caps a stack's downcall free list. Downcalls are
// released as soon as they clear the bottom layer, so a handful covers
// the nesting a single event-queue step produces.
const maxFreeDowncalls = 4

// releaseDowncall takes a pooled send downcall back after the bottom
// layer's Down returned. An event that merely copies a pooled one is
// not the pool's and is left alone.
func (s *Stack) releaseDowncall(ev *Event) {
	d := ev.pool
	if &d.ev != ev {
		return
	}
	*d = downcall{}
	if len(s.downcalls) < maxFreeDowncalls {
		s.downcalls = append(s.downcalls, d)
	}
}

// Keep marks the packet being processed as retained: a layer that
// stores ev — or anything reaching into its message, such as a
// sub-slice of ev.Msg.Body() — past the return of its Up must call Keep
// before the store. Without it the endpoint recycles the packet once
// the stack's Up returns: the event is zeroed and the message's bytes
// are overwritten, ready for the next arrival. Keep is sticky and
// idempotent; outside a packet's Up (a timer, a downcall) there is
// nothing to recycle and it does nothing. ownlint checks that every
// Up-side store is preceded by a Keep.
func (c *Context) Keep(ev *Event) { c.stack.group.ep.keepCurrent() }

// Transmit hands wire bytes for msg to the transport, addressed to
// dests. Only the bottom (COM) layer calls this. The wire image is
// rendered into the stack's reused scratch buffer (the transport must
// not retain it), and a pooled msg is released afterwards: the
// reference path's hand-off rule is the fast path's — once the wire
// has left, the stack is done with the message.
func (c *Context) Transmit(dests []EndpointID, msg *message.Message) {
	s := c.stack
	s.wire = msg.MarshalTo(s.wire[:0])
	c.TransmitWire(dests, s.wire)
	if msg.Pooled() {
		msg.Release()
	}
}

// TransmitWire hands an already-rendered wire image to the transport.
// The compiled cast plan calls this with its scratch buffer; per the
// Transport.Send contract the transport must not retain wire after the
// call returns. The endpoint's wire tap, if any, observes every
// transmission here — both paths, both fabrics.
func (c *Context) TransmitWire(dests []EndpointID, wire []byte) {
	ep := c.stack.group.ep
	if ep.wireTap != nil {
		ep.wireTap(dests, wire)
	}
	ep.transport.Send(ep.id, c.stack.group.addr, dests, wire)
}

// SetTimer schedules fn to run after d on the endpoint's event queue.
// The returned function cancels the timer; cancelling an expired timer
// is a no-op. Timers are silently inert after the stack is destroyed.
func (c *Context) SetTimer(d time.Duration, fn func()) (cancel func()) {
	ep := c.stack.group.ep
	stack := c.stack
	sub := c.sub
	return ep.transport.SetTimer(d, func() {
		ep.exec.Do(func() {
			if stack.destroyed || (sub != nil && sub.detached) {
				return
			}
			fn()
		})
	})
}

// Now returns the transport's current (possibly virtual) time.
func (c *Context) Now() time.Duration { return c.stack.group.ep.transport.Now() }

// EgressFeedback snapshots the local host's egress-congestion ledger
// when the transport meters egress (implements CongestionReporter).
// ok is false on transports without an egress model; adaptive layers
// must degrade to φ-only operation in that case.
func (c *Context) EgressFeedback() (EgressFeedback, bool) {
	ep := c.stack.group.ep
	if r, ok := ep.transport.(CongestionReporter); ok {
		return r.EgressFeedback(ep.id), true
	}
	return EgressFeedback{}, false
}

// Self returns the local endpoint's identifier.
func (c *Context) Self() EndpointID { return c.stack.group.ep.id }

// GroupAddr returns the address of the group this stack serves.
func (c *Context) GroupAddr() GroupAddr { return c.stack.group.addr }

// Tracef emits a trace record through the endpoint's trace hook, if
// one is installed. The TRACE layer and tests use this.
func (c *Context) Tracef(format string, args ...interface{}) {
	c.stack.group.ep.tracef(format, args...)
}

// Base provides pass-through Down/Up and Context bookkeeping for
// layers to embed. A layer embedding Base overrides only the methods
// it cares about and forwards the rest with b.Ctx.Down / b.Ctx.Up.
type Base struct {
	Ctx *Context
}

// Init stores the context. Layers that embed Base and need their own
// Init must call b.Base.Init themselves.
func (b *Base) Init(c *Context) error {
	b.Ctx = c
	return nil
}

// Down passes ev through unchanged.
func (b *Base) Down(ev *Event) { b.Ctx.Down(ev) }

// Up passes ev through unchanged.
func (b *Base) Up(ev *Event) { b.Ctx.Up(ev) }
