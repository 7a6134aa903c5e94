//horus:wallclock — fault proxy over real UDP sockets: delays, flap
// timers, and bandwidth pacing execute at genuine wall-clock speed.

// Package chaosnet runs the chaos harness's fault vocabulary over
// real UDP sockets: an in-process lossy proxy stands between every
// pair of members, so the same typed schedules that drive the
// simulator (loss ramps, asymmetric loss, flaps, crashes as new
// incarnations, partitions) execute against genuine kernel sockets at
// wall-clock speed.
//
// Topology: each member i owns a real udpnet transport bound to A_i
// and a proxy socket P_i. Peers — the member itself included, for its
// loopback copies — are wired to P_i, never to A_i, so every frame
// addressed to i arrives at the proxy first:
//
//	member j ──A_j──▶ P_i ──(netsim.Rules)──▶ A_i ──▶ member i
//
// The proxy identifies the sender by source address (udpnet sends
// from its listen socket) and hands the frame to netsim.Rules, the
// same rule machine the simulator runs, against the wall clock. The
// fault semantics are therefore netsim's by construction; this package
// owns only the sockets, the proxy loop and wall-clock dispatch of
// delayed and held frames.
//
// The package implements the chaos.Fabric interface structurally (it
// does not import chaos), so `chaos.Config{Fabric: chaosnet.New(...)}`
// runs the whole cluster driver — workload, reconciler, invariant
// checkers — unchanged over UDP. Nothing here is deterministic: the
// kernel schedules delivery, so chaosnet runs validate the protocols
// against real timing, while the simulator remains the replay tool.
package chaosnet

import (
	"fmt"
	"net"
	"sync"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
	"horus/internal/udpnet"
)

// Stats counts proxy-level activity across all members — the fault
// ledger attached to every UDP seed line. The embedded Ledger is the
// rule machine's, so the two fabrics report rule firings under the
// same names.
type Stats struct {
	Forwarded int // frames relayed to a member's real socket
	Unknown   int // frames from an unrecognized source address
	netsim.Ledger
}

// Config parameterizes a UDP fabric.
type Config struct {
	// Seed drives the proxy's fault randomness (loss, jitter, dup,
	// garble draws). Scheduling is still the kernel's, so runs are not
	// replayable — the seed only decouples fault draws from time.
	Seed int64
	// DefaultLink applies to every (src, dst) pair without an
	// override, exactly as in netsim.
	DefaultLink netsim.Link
	// Addr is the listen address for member and proxy sockets;
	// empty means "127.0.0.1:0" (ephemeral loopback).
	Addr string
}

// node is one member's attachment: its real transport and the proxy
// socket every peer sends to instead.
type node struct {
	id    core.EndpointID
	tr    *udpnet.Transport
	proxy *net.UDPConn
	ep    *core.Endpoint
	real  *net.UDPAddr // tr's bound address, the proxy's forward target
}

// Fabric is the UDP implementation of the chaos transport substrate.
// All methods are safe for concurrent use; protocol side effects of
// Crash/Detach run through the victim endpoint's executor.
type Fabric struct {
	addr string

	mu        sync.Mutex
	start     time.Time
	rules     *netsim.Rules
	nodes     map[core.EndpointID]*node
	bySrc     map[string]core.EndpointID // member real addr -> member
	nextBirth uint64
	stats     Stats        // Forwarded, Unknown; the Ledger lives in rules
	retired   udpnet.Stats // transport counters of detached incarnations
	closed    bool

	wg sync.WaitGroup
}

// New builds an empty UDP fabric; endpoints attach via NewEndpoint.
func New(cfg Config) *Fabric {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	return &Fabric{
		addr:      cfg.Addr,
		start:     time.Now(),
		rules:     netsim.NewRules(cfg.Seed, cfg.DefaultLink),
		nodes:     make(map[core.EndpointID]*node),
		bySrc:     make(map[string]core.EndpointID),
		nextBirth: 1,
	}
}

// NewEndpoint boots a member: a real udpnet transport, its proxy
// socket, and full peer wiring in both directions (existing members
// learn the newcomer's proxy; the newcomer learns theirs). Birth
// identities follow call order, matching the simulator, so schedules
// resolve slots identically on either fabric.
func (f *Fabric) NewEndpoint(site string) *core.Endpoint {
	f.mu.Lock()
	id := core.EndpointID{Site: site, Birth: f.nextBirth}
	f.nextBirth++
	f.mu.Unlock()

	tr, err := udpnet.Listen(f.addr, id)
	if err != nil {
		panic(fmt.Sprintf("chaosnet: member socket: %v", err))
	}
	proxyAddr := &net.UDPAddr{IP: tr.Addr().IP, Port: 0}
	proxy, err := net.ListenUDP("udp", proxyAddr)
	if err != nil {
		panic(fmt.Sprintf("chaosnet: proxy socket: %v", err))
	}
	n := &node{id: id, tr: tr, proxy: proxy, real: tr.Addr()}

	f.mu.Lock()
	for _, o := range f.nodes {
		o.tr.AddPeer(id, proxy.LocalAddr().(*net.UDPAddr))
		tr.AddPeer(o.id, o.proxy.LocalAddr().(*net.UDPAddr))
	}
	// The member is a peer of itself, through its own proxy: netsim
	// delivers loopback casts (subject to link faults, exempt from the
	// egress bucket), so the UDP fabric must too, or every self-
	// addressed copy of a group cast silently vanishes.
	tr.AddPeer(id, proxy.LocalAddr().(*net.UDPAddr))
	f.nodes[id] = n
	f.bySrc[tr.Addr().String()] = id
	f.mu.Unlock()

	// The member's transport serves the fabric's egress ledger to its
	// stack: layers polling Context.EgressFeedback over UDP read the
	// same per-host counters the simulator serves natively.
	tr.SetEgressFeedback(func() core.EgressFeedback { return f.EgressFeedback(id) })

	n.ep = tr.NewEndpoint()
	f.wg.Add(1)
	go f.proxyLoop(n)
	return n.ep
}

// EgressFeedback snapshots the egress ledger charged to one sending
// member: current bucket backlog plus cumulative congestion counters.
// Counters survive SetHost/ClearHost and reset only on Detach,
// matching netsim.
func (f *Fabric) EgressFeedback(id core.EndpointID) core.EgressFeedback {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rules.EgressFeedback(id, f.Now())
}

// proxyLoop relays frames arriving at a member's proxy socket to the
// member's real socket, applying the directed link rule for each
// (sender, member) pair.
func (f *Fabric) proxyLoop(n *node) {
	defer f.wg.Done()
	buf := make([]byte, 64*1024+1)
	for {
		sz, src, err := n.proxy.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		pkt := make([]byte, sz)
		copy(pkt, buf[:sz])
		f.route(n, src.String(), pkt)
	}
}

// route runs one frame through the link rules and forwards the
// copies that survive. Rule decisions happen under the fabric lock;
// the socket writes happen outside it (possibly on a timer goroutine).
func (f *Fabric) route(n *node, src string, pkt []byte) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	from, ok := f.bySrc[src]
	if !ok {
		f.stats.Unknown++
		f.mu.Unlock()
		return
	}
	type departure struct {
		delay time.Duration
		buf   []byte
	}
	var out [2]departure
	sent := 0
	adm := f.rules.Admit(from, n.id, f.nodes[n.id] == n)
	for i := 0; i < adm.Copies; i++ {
		c := f.rules.DrawCopy(adm.Link, pkt)
		if c.Lost {
			continue
		}
		if c.Hold {
			f.rules.Hold(from, n.id, adm.Link, f.releaser(from, n, c.Buf), f.backstop)
			continue
		}
		if d, ok := f.rules.Transmit(from, n.id, true, f.Now(), len(c.Buf)); ok {
			out[sent] = departure{d, c.Buf}
			sent++
		}
		f.rules.Depart(from, n.id)
	}
	f.mu.Unlock()

	for _, o := range out[:sent] {
		f.deliverAfter(o.delay, n, o.buf)
	}
}

// releaser returns the release of a held frame: it times the frame
// under the rules in force at that moment and forwards it on a timer,
// since the caller holds f.mu.
func (f *Fabric) releaser(from core.EndpointID, n *node, pkt []byte) func() {
	return func() {
		if d, ok := f.rules.Transmit(from, n.id, f.nodes[n.id] == n, f.Now(), len(pkt)); ok {
			time.AfterFunc(d, func() { f.deliver(n, pkt) })
		}
	}
}

// backstop arms a reorder hold's backstop as a wall-clock timer;
// fireLocked runs under f.mu, and not at all once the fabric is
// closed.
func (f *Fabric) backstop(d time.Duration, fireLocked func()) {
	time.AfterFunc(d, func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if !f.closed {
			fireLocked()
		}
	})
}

// deliverAfter forwards one frame after d of wall time, at once when d
// is not positive. Callers must not hold f.mu.
func (f *Fabric) deliverAfter(d time.Duration, n *node, pkt []byte) {
	if d <= 0 {
		f.deliver(n, pkt)
		return
	}
	time.AfterFunc(d, func() { f.deliver(n, pkt) })
}

// deliver writes one frame to the member's real socket and counts it.
func (f *Fabric) deliver(n *node, pkt []byte) {
	if _, err := n.proxy.WriteToUDP(pkt, n.real); err != nil {
		return // member socket gone; the frame is just lost
	}
	f.mu.Lock()
	f.stats.Forwarded++
	f.mu.Unlock()
}

// Now is wall time since the fabric was built.
func (f *Fabric) Now() time.Duration { return time.Since(f.start) }

// At schedules fn at absolute fabric time t on a timer goroutine. A
// timer that fires after Close returns without running fn — that is
// what ends the cluster's self-re-arming workload ticks. Fired timers
// are not retained, so a long run arming ticks continuously holds only
// the ones still pending.
func (f *Fabric) At(t time.Duration, fn func()) {
	time.AfterFunc(t-f.Now(), func() {
		f.mu.Lock()
		closed := f.closed
		f.mu.Unlock()
		if !closed {
			fn()
		}
	})
}

// RunFor sleeps: on a wall-clock fabric the sockets run themselves.
func (f *Fabric) RunFor(d time.Duration) { time.Sleep(d) }

// SetLink overrides the link in both directions, as in netsim.
func (f *Fabric) SetLink(a, b core.EndpointID, l netsim.Link) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.SetLink(a, b, l)
}

// SetLinkDirected overrides the link for frames from a to b only.
func (f *Fabric) SetLinkDirected(a, b core.EndpointID, l netsim.Link) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.SetLinkDirected(a, b, l)
}

// ClearLink removes overrides between a and b (both directions).
func (f *Fabric) ClearLink(a, b core.EndpointID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.ClearLink(a, b)
}

// SetHost overrides the per-host limits for one member, as in netsim:
// an egress budget applies to every frame the member originates, across
// all destinations, before the per-link rules. Installing a budget
// resets the bucket, so a previous horizon never leaks into it.
func (f *Fabric) SetHost(id core.EndpointID, h netsim.Host) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.SetHost(id, h)
}

// ClearHost removes the per-host limits for one member.
func (f *Fabric) ClearHost(id core.EndpointID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.ClearHost(id)
}

// Crash fail-stops a member: its stacks are destroyed (timers die,
// protocol execution halts) and the proxy swallows everything to or
// from it. Peers observe silence, the failure model the stack turns
// into clean view changes.
func (f *Fabric) Crash(id core.EndpointID) {
	f.mu.Lock()
	n := f.nodes[id]
	f.rules.Crash(id)
	f.mu.Unlock()
	if n != nil {
		n.ep.Destroy()
	}
}

// Detach removes a (typically crashed) incarnation entirely: its
// sockets close, its proxy loop exits, and its fault bookkeeping is
// forgotten. Peers still hold a wiring entry for the dead proxy, but
// frames sent there vanish into a closed socket — exactly the
// best-effort semantics of sending to a dead host.
func (f *Fabric) Detach(id core.EndpointID) {
	f.Crash(id)
	f.mu.Lock()
	n := f.nodes[id]
	if n != nil {
		f.retired.SendErrors += n.tr.Stats().SendErrors
		f.retired.Oversized += n.tr.Stats().Oversized
		f.retired.Malformed += n.tr.Stats().Malformed
		f.retired.Truncated += n.tr.Stats().Truncated
		delete(f.bySrc, n.real.String())
	}
	delete(f.nodes, id)
	f.rules.Forget(id)
	f.mu.Unlock()
	if n != nil {
		n.tr.Close()
		n.proxy.Close()
	}
}

// Partition splits the members into components; frames flow only
// within a component. Members not listed join component 0 together —
// the same convention as netsim.
func (f *Fabric) Partition(groups ...[]core.EndpointID) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.Partition(groups...)
}

// Heal removes all partitions.
func (f *Fabric) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules.Heal()
}

// Stats snapshots the proxy counters.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.stats
	s.Ledger = f.rules.Ledger()
	return s
}

// TransportStats sums the udpnet counters over every incarnation that
// ever attached, including detached ones: transport-level trouble
// (send failures, malformed datagrams) survives the member it
// happened to.
func (f *Fabric) TransportStats() udpnet.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	total := f.retired
	for _, n := range f.nodes {
		s := n.tr.Stats()
		total.SendErrors += s.SendErrors
		total.Oversized += s.Oversized
		total.Malformed += s.Malformed
		total.Truncated += s.Truncated
	}
	return total
}

// Close quiesces the fabric: disarms schedule timers, destroys every
// member stack (cancelling protocol timers), closes all sockets, and
// waits for the proxy goroutines to exit. After Close, recorded
// histories are stable and safe to check.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	nodes := make([]*node, 0, len(f.nodes))
	for _, n := range f.nodes {
		nodes = append(nodes, n)
	}
	f.mu.Unlock()

	for _, n := range nodes {
		n.ep.Destroy()
	}
	for _, n := range nodes {
		n.tr.Close()
		n.proxy.Close()
	}
	f.wg.Wait()
}
