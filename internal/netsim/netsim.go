// Package netsim provides the communication substrate underneath every
// Horus stack: a best-effort (property P1) network in the spirit of
// the paper's ATM/internet bottom layers.
//
// The paper's testbed was real ATM hardware; we substitute a
// deterministic discrete-event simulation so that every protocol path
// — message loss (NAK retransmission), garbling (CHKSUM), duplication,
// reordering, partitions (MERGE), and crashes (MBRSHIP flush) — can be
// exercised reproducibly from a seed. Virtual time also makes timer-
// driven protocols testable in microseconds of wall time.
package netsim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"horus/internal/core"
)

// Link describes the behaviour of the medium between two endpoints.
// The zero value is a perfect, zero-latency link.
type Link struct {
	// Delay is the base one-way propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter); jitter
	// larger than the inter-send gap causes reordering.
	Jitter time.Duration
	// LossRate is the probability a packet is silently dropped.
	LossRate float64
	// DupRate is the probability a packet is delivered twice.
	DupRate float64
	// GarbleRate is the probability a random byte of the packet is
	// corrupted in flight.
	GarbleRate float64
	// Bandwidth, when positive, serializes packets on the directed
	// link at Bandwidth bytes per second: each packet occupies the
	// link for size/Bandwidth before propagating, and packets queue
	// behind each other. It makes wire volume observable in virtual
	// time — which is how the compression layer's "improve bandwidth
	// use" benefit is measured.
	Bandwidth int
	// ReorderRate is the probability a packet is held back and
	// released out of order: a held packet re-enters the link only
	// after ReorderDepth later packets have departed on the same
	// directed link (or after ReorderHold of link silence, whichever
	// comes first), so it arrives behind traffic sent after it. Unlike
	// Jitter — which only reorders when it exceeds the inter-send gap —
	// the explicit rule guarantees inversions at any send rate.
	ReorderRate float64
	// ReorderDepth is how many subsequent departures overtake a held
	// packet before it is released; zero means 3.
	ReorderDepth int
	// ReorderHold caps how long a held packet waits for followers on a
	// link that has gone quiet; zero means 250ms.
	ReorderHold time.Duration
}

// Reorder-rule defaults.
const (
	DefaultReorderDepth = 3
	DefaultReorderHold  = 250 * time.Millisecond
)

// Config configures a simulated network.
type Config struct {
	// Seed drives all randomness; runs with equal seeds and schedules
	// are identical.
	Seed int64
	// DefaultLink applies between every pair of endpoints unless
	// overridden with SetLink.
	DefaultLink Link
}

// Stats counts network-level activity, for tests and experiments.
type Stats struct {
	Sent      int // packets handed to the network (per destination)
	Delivered int // packets delivered to an endpoint
	Bytes     int // wire bytes delivered
	Ledger        // rule firings
}

// Network is a simulated broadcast medium connecting endpoints. It
// implements core.Transport. All event execution is driven by Run /
// RunFor / Step on a single goroutine; virtual time only advances
// there.
type Network struct {
	mu        sync.Mutex
	now       time.Duration
	events    eventHeap
	seq       uint64
	endpoints map[core.EndpointID]*core.Endpoint
	order     []core.EndpointID // attach order, for deterministic fan-out
	// groups tracks which endpoints have a stack composed for which
	// group address (core.GroupRegistrar), in join order. Empty-dests
	// broadcasts fan out over this set rather than every attached
	// endpoint: a receiver without the group dropped the packet anyway,
	// so scoping the scan is behaviour-preserving — but it turns the
	// per-broadcast cost from O(cluster endpoints) into O(group
	// members), which is what lets thousands of endpoints share one
	// simulated fabric (see the loadgen harness).
	groups    map[core.GroupAddr][]core.EndpointID
	rules     *Rules
	nextBirth uint64
	stats     Stats // Sent, Delivered, Bytes; the Ledger lives in rules

	// Free lists of the per-packet objects (see recycle.go). Only
	// delivery events and shared fan-out buffers are recycled.
	freeEvents []*event
	freeBufs   [numBufClasses][]*sharedBuf
	freeBytes  int
}

// New creates a network.
func New(cfg Config) *Network {
	return &Network{
		endpoints: make(map[core.EndpointID]*core.Endpoint),
		groups:    make(map[core.GroupAddr][]core.EndpointID),
		rules:     NewRules(cfg.Seed, cfg.DefaultLink),
		nextBirth: 1,
	}
}

// NewEndpoint creates and attaches an endpoint at the named site. The
// endpoint's Birth stamp records attach order, giving the total "age"
// order that coordinator election relies on.
func (n *Network) NewEndpoint(site string) *core.Endpoint {
	n.mu.Lock()
	id := core.EndpointID{Site: site, Birth: n.nextBirth}
	n.nextBirth++
	n.mu.Unlock()
	ep := core.NewEndpoint(id, n)
	n.mu.Lock()
	n.endpoints[id] = ep
	n.order = append(n.order, id)
	n.mu.Unlock()
	return ep
}

// JoinGroup implements core.GroupRegistrar: it records that id has a
// stack composed for group g, making it an empty-dests broadcast
// target for that group. Registration order is join order, so fan-out
// stays deterministic.
func (n *Network) JoinGroup(id core.EndpointID, g core.GroupAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.groups[g] = append(n.groups[g], id)
}

// LeaveGroup implements core.GroupRegistrar: the endpoint's stack for
// g is gone (leave, destroy, or crash) and it stops being a broadcast
// target for the group.
func (n *Network) LeaveGroup(id core.EndpointID, g core.GroupAddr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	members := n.groups[g]
	for i, m := range members {
		if m == id {
			n.groups[g] = append(members[:i], members[i+1:]...)
			break
		}
	}
	if len(n.groups[g]) == 0 {
		delete(n.groups, g)
	}
}

// SetLink overrides the link between a and b in both directions — the
// symmetric wrapper around SetLinkDirected. Per-pair overrides take
// precedence over DefaultLink; an explicit zero-value override means
// "perfect link", not "no override" (use ClearLink to fall back to the
// default).
func (n *Network) SetLink(a, b core.EndpointID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.SetLink(a, b, l)
}

// SetLinkDirected overrides the link for packets travelling from a to
// b only; the reverse direction keeps its current behaviour. Chaos
// schedules use it to model asymmetric faults (a hears b while b is
// deaf to a). Precedence per direction: directed override, then
// DefaultLink.
func (n *Network) SetLinkDirected(a, b core.EndpointID, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.SetLinkDirected(a, b, l)
}

// ClearLink removes any override between a and b (both directions);
// the pair falls back to DefaultLink.
func (n *Network) ClearLink(a, b core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.ClearLink(a, b)
}

// SetDefaultLink replaces the default link applied to all pairs
// without an override.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.SetDefaultLink(l)
}

// SetHost overrides the per-host limits for the named endpoint. An
// explicit zero-value Host means "no limits", same as never calling
// SetHost; the distinction link overrides make (override vs default)
// does not arise because there is no default host rule.
func (n *Network) SetHost(id core.EndpointID, h Host) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.SetHost(id, h)
}

// ClearHost removes the per-host limits for the named endpoint.
func (n *Network) ClearHost(id core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.ClearHost(id)
}

// Crash fail-stops the endpoint: all of its traffic is dropped from
// now on and its protocol execution halts. Other members observe
// silence — exactly the failure model MBRSHIP converts into clean
// view changes.
func (n *Network) Crash(id core.EndpointID) {
	n.mu.Lock()
	ep := n.endpoints[id]
	n.rules.Crash(id)
	n.mu.Unlock()
	if ep != nil {
		ep.Destroy()
	}
}

// Detach removes a (typically crashed) endpoint from the network
// entirely: it stops counting as a broadcast target and its fault
// bookkeeping is forgotten. Chaos schedules detach a crashed
// incarnation when the site rejoins with a fresh endpoint, so repeated
// crash/recover cycles do not grow the fan-out set without bound.
// Detaching a live endpoint crashes it first.
func (n *Network) Detach(id core.EndpointID) {
	n.Crash(id)
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.endpoints, id)
	n.rules.Forget(id)
	for i, e := range n.order {
		if e == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	// Crash→Destroy already deregistered the endpoint's groups through
	// core.GroupRegistrar; sweep anyway so an endpoint the destroy path
	// never reached (e.g. attached but externally constructed) cannot
	// leave a stale broadcast target behind.
	for g, members := range n.groups {
		for i, m := range members {
			if m == id {
				n.groups[g] = append(members[:i], members[i+1:]...)
				break
			}
		}
		if len(n.groups[g]) == 0 {
			delete(n.groups, g)
		}
	}
}

// Crashed reports whether the endpoint has been crashed.
func (n *Network) Crashed(id core.EndpointID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.Crashed(id)
}

// Partition splits the network into component groups; traffic flows
// only within a group. Endpoints not listed join component 0 together.
func (n *Network) Partition(groups ...[]core.EndpointID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.Partition(groups...)
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rules.Heal()
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := n.stats
	s.Ledger = n.rules.Ledger()
	return s
}

// EgressFeedback snapshots the egress ledger for one sending host,
// implementing core.CongestionReporter: the backlog currently queued
// behind the host's token bucket plus the cumulative congestion
// counters charged to that host. Counters survive SetHost/ClearHost
// (they are history, not configuration) and reset only on Detach.
func (n *Network) EgressFeedback(id core.EndpointID) core.EgressFeedback {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rules.EgressFeedback(id, n.now)
}

// Now returns the current virtual time. Part of core.Transport.
func (n *Network) Now() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.now
}

// Send transmits wire bytes best-effort. Part of core.Transport.
// Empty dests broadcasts to every endpoint with a stack composed for
// the group address (the core.GroupRegistrar scoping; endpoints
// without the group dropped the packet anyway).
func (n *Network) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.rules.Crashed(from) {
		return
	}
	targets := dests
	if len(targets) == 0 {
		targets = n.groups[group]
	}
	// One defensive copy shared by the whole fan-out: the caller may
	// reuse wire after Send returns, but deliveries only read the
	// buffer (Deliver never retains wire), so per-destination copies
	// are needed only when a link garbles bytes in flight — the rules
	// clone on that path alone. The copy is reference counted: Send
	// holds one reference for the fan-out, every scheduled or held
	// copy one more, and the last release puts it on a free list.
	shared := n.getBufLocked(wire)
	for _, dst := range targets {
		n.sendOneLocked(from, group, dst, shared)
	}
	n.releaseBufLocked(shared)
}

// sendOneLocked routes one copy of the fan-out's shared defensive copy
// toward dst through the link rules. The rules never mutate it (a
// garbled copy is a clone of its own, never counted). Caller holds
// n.mu.
func (n *Network) sendOneLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, shared *sharedBuf) {
	n.stats.Sent++
	adm := n.rules.Admit(from, dst, n.endpoints[dst] != nil)
	for i := 0; i < adm.Copies; i++ {
		c := n.rules.DrawCopy(adm.Link, shared.b)
		if c.Lost {
			continue
		}
		ref := shared
		if c.Clone {
			ref = nil
		} else {
			shared.refs++
		}
		if c.Hold {
			// A parked copy keeps its reference until its release
			// transmits or drops it.
			n.rules.Hold(from, dst, adm.Link, n.releaser(from, group, dst, c.Buf, ref), n.backstopLocked)
			continue
		}
		n.transmitLocked(from, group, dst, c.Buf, ref)
		n.rules.Depart(from, dst)
	}
}

// transmitLocked times one packet on the directed link and schedules
// its delivery. ref is the shared buffer buf lies in (nil for a
// private clone); the scheduled delivery takes over its reference, a
// dropped packet releases it. Caller holds n.mu.
func (n *Network) transmitLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte, ref *sharedBuf) {
	ep := n.endpoints[dst]
	delay, ok := n.rules.Transmit(from, dst, ep != nil, n.now, len(buf))
	if !ok {
		n.releaseBufLocked(ref)
		return
	}
	// A delivery is plain data on a recycled event, not a closure.
	ev := n.deliveryLocked(n.now + delay)
	ev.dstEp, ev.dst, ev.group, ev.buf, ev.shared = ep, dst, group, buf, ref
}

// releaser returns the release of a held packet: it transmits the
// packet under the rules in force at that moment. Caller holds n.mu
// when calling the result.
func (n *Network) releaser(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte, ref *sharedBuf) func() {
	return func() { n.transmitLocked(from, group, dst, buf, ref) }
}

// backstopLocked arms a reorder hold's backstop as a virtual-time
// event; fireLocked runs under n.mu. Caller holds n.mu.
func (n *Network) backstopLocked(d time.Duration, fireLocked func()) {
	n.scheduleLocked(n.now+d, func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		fireLocked()
	})
}

// deliver runs a delivery event: the packet reaches its endpoint
// unless the endpoint crashed while it was in flight. Either way the
// event and its buffer reference are released afterwards: Deliver
// never retains wire.
func (n *Network) deliver(ev *event) {
	n.mu.Lock()
	dead := n.rules.Crashed(ev.dst)
	if !dead {
		n.stats.Delivered++
		n.stats.Bytes += len(ev.buf)
	}
	n.mu.Unlock()
	if !dead {
		ev.dstEp.Deliver(ev.group, ev.buf)
	}
	n.mu.Lock()
	n.releaseBufLocked(ev.shared)
	n.freeEventLocked(ev)
	n.mu.Unlock()
}

// SetTimer schedules fn after d of virtual time. Part of
// core.Transport. Timer events are never recycled: the returned cancel
// writes to its event whenever it is called, fired or not.
func (n *Network) SetTimer(d time.Duration, fn func()) (cancel func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ev := n.scheduleLocked(n.now+d, fn)
	return func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		ev.cancelled = true
	}
}

// At schedules fn at absolute virtual time t (or now, if t has
// passed). Tests script application behaviour with it.
func (n *Network) At(t time.Duration, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if t < n.now {
		t = n.now
	}
	n.scheduleLocked(t, fn)
}

func (n *Network) scheduleLocked(t time.Duration, fn func()) *event {
	return n.pushLocked(&event{at: t, fn: fn})
}

// pushLocked stamps ev with the next schedule sequence number and
// queues it. Caller holds n.mu.
func (n *Network) pushLocked(ev *event) *event {
	ev.seq = n.seq
	n.seq++
	heap.Push(&n.events, ev)
	return ev
}

// Step executes the next pending event, returning false if none
// remain.
func (n *Network) Step() bool {
	n.mu.Lock()
	for n.events.Len() > 0 {
		ev := heap.Pop(&n.events).(*event)
		if ev.cancelled {
			continue
		}
		n.now = ev.at
		n.mu.Unlock()
		n.run(ev)
		return true
	}
	n.mu.Unlock()
	return false
}

// RunUntil executes events until virtual time exceeds deadline or no
// events remain. Events scheduled exactly at deadline still run.
func (n *Network) RunUntil(deadline time.Duration) {
	for {
		n.mu.Lock()
		run := false
		var ev *event
		for n.events.Len() > 0 {
			peek := n.events[0]
			if peek.cancelled {
				heap.Pop(&n.events)
				continue
			}
			if peek.at > deadline {
				break
			}
			ev = heap.Pop(&n.events).(*event)
			n.now = ev.at
			run = true
			break
		}
		n.mu.Unlock()
		if !run {
			if n.Now() < deadline {
				n.mu.Lock()
				n.now = deadline
				n.mu.Unlock()
			}
			return
		}
		n.run(ev)
	}
}

// run dispatches one due event: a timer runs its fn, a delivery hands
// its packet to the destination endpoint.
func (n *Network) run(ev *event) {
	if ev.fn != nil {
		ev.fn()
		return
	}
	n.deliver(ev)
}

// RunFor advances virtual time by d, executing due events.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now() + d) }

// Pending returns the number of queued events (cancelled ones
// included), for diagnostics.
func (n *Network) Pending() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.events.Len()
}

// String summarizes the network state.
func (n *Network) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return fmt.Sprintf("netsim{t=%v endpoints=%d pending=%d}", n.now, len(n.endpoints), n.events.Len())
}

// event is one scheduled occurrence in the simulation: a timer (fn
// set) or a packet delivery (fn nil; the delivery fields set).
type event struct {
	at        time.Duration
	seq       uint64 // schedule order; ties in time break by seq
	fn        func()
	cancelled bool

	dstEp  *core.Endpoint
	dst    core.EndpointID
	group  core.GroupAddr
	buf    []byte
	shared *sharedBuf // the reference buf holds; nil for a clone
}

// eventHeap is a min-heap over (at, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
