// The link-rule machine: the one implementation of the fault
// vocabulary (Link, Host, crash, partition) that every fabric drives —
// Network against virtual time, RealTime and the chaosnet UDP proxy
// against wall time. The machine never reads a clock: callers pass
// `now`, and reorder holds are released through callbacks the fabric
// supplies, so the rules behave the same whichever clock runs them.

package netsim

import (
	"math/rand"
	"time"

	"horus/internal/core"
)

// Host describes per-host resource limits shared across every outgoing
// link of one endpoint. The zero value imposes none — exactly like the
// zero Link, a perfect host.
type Host struct {
	// EgressBudget, when positive, caps the host's total egress at
	// EgressBudget bytes per second, shared across all outgoing links:
	// before propagating, a packet must acquire tokens from its host's
	// egress bucket first and its link's bandwidth bucket second, so a
	// host saturated by one flow delays every other flow it originates
	// — the shared NIC queue a per-link model cannot express. Loopback
	// copies (a packet a host addresses to itself) never cross the NIC
	// and are exempt.
	EgressBudget int
	// EgressQueue bounds, in bytes, the backlog awaiting egress
	// tokens. A packet that finds a nonempty backlog which it would
	// push past the bound is dropped and counted in the CollapseDropped
	// ledger — the tail drop that makes true congestion collapse
	// (goodput falling as offered load rises) expressible, not just
	// delay. A packet that finds the backlog empty is always admitted,
	// so a budget or queue smaller than one packet produces delay,
	// never a blackhole. Zero means DefaultEgressQueue.
	EgressQueue int
}

// DefaultEgressQueue is the egress backlog bound applied when
// Host.EgressQueue is zero: roughly a real NIC ring's worth of frames.
const DefaultEgressQueue = 64 * 1024

// queueBytes resolves the host's backlog bound.
func (h Host) queueBytes() int {
	if h.EgressQueue > 0 {
		return h.EgressQueue
	}
	return DefaultEgressQueue
}

// Ledger counts rule firings. Every fabric reports it under the same
// names because every fabric runs the same Rules.
type Ledger struct {
	Blocked    int // packets dropped by partition or crash
	Lost       int // packets dropped by loss
	Duplicated int // extra copies due to duplication
	Garbled    int // packets corrupted in flight
	Reordered  int // packets held back by the reorder rule
	Throttled  int // packets that queued behind earlier traffic (bandwidth)
	// Congested counts packets that queued behind earlier traffic in
	// their host's shared egress bucket (Host.EgressBudget) — the
	// per-host analogue of Throttled.
	Congested int
	// CollapseDropped counts packets dropped because the host's
	// bounded egress queue overflowed: offered load exceeded the
	// egress budget for long enough that delay turned into loss.
	CollapseDropped int
}

type pair struct{ a, b core.EndpointID }

// Rules is the fault state of one fabric: the default and directed
// links, crash and partition state, the per-link bandwidth horizons
// and reorder holds, the per-host egress buckets and their counters,
// the seeded rng and the Ledger. It is not safe for concurrent use;
// the fabric calls every method under its own lock, including the
// release and backstop callbacks it hands to Hold.
//
// One packet offered to a directed link goes through Admit (blocking
// and duplication), then DrawCopy per copy (loss, garbling, reorder).
// A copy that is not held goes through Transmit (egress budget,
// jitter, bandwidth) and then Depart; a held copy goes through Hold,
// whose release later calls Transmit again. The rng draws happen in
// exactly that order.
type Rules struct {
	rng        *rand.Rand
	def        Link
	links      map[pair]Link // directed overrides: pair{from, to}
	crashed    map[core.EndpointID]bool
	partition  map[core.EndpointID]int           // partition id; absent = 0
	linkFree   map[pair]time.Duration            // directed link busy-until (bandwidth model)
	held       map[pair][]*heldPacket            // directed link reorder holds
	hosts      map[core.EndpointID]Host          // per-host limits
	egressFree map[core.EndpointID]time.Duration // per-host egress busy-until
	// Per-host slices of the egress ledger, feeding the
	// core.CongestionReporter hook; the Ledger counters remain the sum
	// over hosts.
	egressCongested map[core.EndpointID]uint64
	egressDropped   map[core.EndpointID]uint64
	ledger          Ledger
}

// heldPacket is one packet parked by the reorder rule, waiting for
// `remaining` later departures on its directed link (or the hold
// backstop) before it is released.
type heldPacket struct {
	remaining     int
	released      bool
	releaseLocked func()
}

// NewRules builds the rule machine with the given seed and default
// link.
func NewRules(seed int64, def Link) *Rules {
	return &Rules{
		rng:             rand.New(rand.NewSource(seed)),
		def:             def,
		links:           make(map[pair]Link),
		crashed:         make(map[core.EndpointID]bool),
		partition:       make(map[core.EndpointID]int),
		linkFree:        make(map[pair]time.Duration),
		held:            make(map[pair][]*heldPacket),
		hosts:           make(map[core.EndpointID]Host),
		egressFree:      make(map[core.EndpointID]time.Duration),
		egressCongested: make(map[core.EndpointID]uint64),
		egressDropped:   make(map[core.EndpointID]uint64),
	}
}

// SetLink overrides the link between a and b in both directions.
func (r *Rules) SetLink(a, b core.EndpointID, l Link) {
	r.links[pair{a, b}] = l
	r.links[pair{b, a}] = l
}

// SetLinkDirected overrides the link for packets from a to b only.
func (r *Rules) SetLinkDirected(a, b core.EndpointID, l Link) { r.links[pair{a, b}] = l }

// ClearLink removes any override between a and b (both directions).
func (r *Rules) ClearLink(a, b core.EndpointID) {
	delete(r.links, pair{a, b})
	delete(r.links, pair{b, a})
}

// SetDefaultLink replaces the link applied to pairs without an
// override.
func (r *Rules) SetDefaultLink(l Link) { r.def = l }

// SetHost installs per-host limits. A fresh budget starts with an
// empty bucket: the horizon of a previous, possibly tighter budget
// must not leak into this one.
func (r *Rules) SetHost(id core.EndpointID, h Host) {
	r.hosts[id] = h
	delete(r.egressFree, id)
}

// ClearHost removes the per-host limits for id.
func (r *Rules) ClearHost(id core.EndpointID) {
	delete(r.hosts, id)
	delete(r.egressFree, id)
}

// Crash marks id fail-stopped: packets to or from it are blocked.
func (r *Rules) Crash(id core.EndpointID) { r.crashed[id] = true }

// Crashed reports whether id has been crashed.
func (r *Rules) Crashed(id core.EndpointID) bool {
	// Emptiness guard: the lookup hashes the Site string, and idle
	// fault machinery must not tax the per-packet path.
	return len(r.crashed) != 0 && r.crashed[id]
}

// Partition splits endpoints into components; traffic flows only
// within one. Endpoints not listed join component 0 together.
func (r *Rules) Partition(groups ...[]core.EndpointID) {
	r.partition = make(map[core.EndpointID]int)
	for i, g := range groups {
		for _, id := range g {
			r.partition[id] = i + 1
		}
	}
}

// Heal removes all partitions.
func (r *Rules) Heal() { r.partition = make(map[core.EndpointID]int) }

// Forget drops every piece of state keyed by id: its crash mark,
// partition slot, link overrides, bandwidth horizons, reorder holds,
// host limits and egress counters. A hold already armed still fires
// its backstop; its release then finds the endpoint gone.
func (r *Rules) Forget(id core.EndpointID) {
	delete(r.crashed, id)
	delete(r.partition, id)
	for p := range r.links {
		if p.a == id || p.b == id {
			delete(r.links, p)
		}
	}
	for p := range r.linkFree {
		if p.a == id || p.b == id {
			delete(r.linkFree, p)
		}
	}
	for p := range r.held {
		if p.a == id || p.b == id {
			delete(r.held, p)
		}
	}
	delete(r.hosts, id)
	delete(r.egressFree, id)
	delete(r.egressCongested, id)
	delete(r.egressDropped, id)
}

// Ledger returns the rule-firing counters.
func (r *Rules) Ledger() Ledger { return r.ledger }

// EgressFeedback snapshots the egress ledger for one sending host at
// time now: the backlog queued behind its bucket plus the cumulative
// congestion counters charged to it. Counters survive
// SetHost/ClearHost (they are history, not configuration) and reset
// only on Forget.
func (r *Rules) EgressFeedback(id core.EndpointID, now time.Duration) core.EgressFeedback {
	return core.EgressFeedback{
		BacklogBytes:    BucketBacklog(now, r.egressFree[id], r.hosts[id].EgressBudget),
		Congested:       r.egressCongested[id],
		CollapseDropped: r.egressDropped[id],
	}
}

func (r *Rules) linkFor(from, to core.EndpointID) Link {
	// Fast path: no overrides configured. The pair hash costs two
	// string hashes per packet, which dominates a cluster-scale soak
	// where every link is the default.
	if len(r.links) == 0 {
		return r.def
	}
	if l, ok := r.links[pair{from, to}]; ok {
		return l
	}
	return r.def
}

// Admission is the verdict on one packet offered to a directed link.
type Admission struct {
	Link   Link // the rule in force at admission
	Copies int  // copies to route: 0 when blocked, 2 when duplicated
}

// Admit decides whether a packet from→to enters the link at all.
// attached reports whether the fabric still has the destination. A
// packet to a missing or crashed endpoint, from a crashed one, or
// across a partition is blocked; otherwise the duplication rule draws.
func (r *Rules) Admit(from, to core.EndpointID, attached bool) Admission {
	if !attached || (len(r.crashed) != 0 && (r.crashed[to] || r.crashed[from])) ||
		(len(r.partition) != 0 && r.partition[from] != r.partition[to]) {
		r.ledger.Blocked++
		return Admission{}
	}
	l := r.linkFor(from, to)
	copies := 1
	if l.DupRate > 0 && r.rng.Float64() < l.DupRate {
		copies = 2
		r.ledger.Duplicated++
	}
	return Admission{Link: l, Copies: copies}
}

// Copy is the fate of one copy of an admitted packet.
type Copy struct {
	Buf   []byte // the bytes to carry: the original or a garbled clone
	Lost  bool   // dropped by the loss rule
	Hold  bool   // parked by the reorder rule: route it through Hold
	Clone bool   // Buf is a private garbled clone, not the offered buffer
}

// DrawCopy applies the per-copy rules of l to buf: loss, then
// garbling, then reorder. buf is never modified; a garbled copy is a
// fresh clone, so two copies of a duplicated packet are corrupted
// independently.
func (r *Rules) DrawCopy(l Link, buf []byte) Copy {
	if l.LossRate > 0 && r.rng.Float64() < l.LossRate {
		r.ledger.Lost++
		return Copy{Lost: true}
	}
	clone := false
	if l.GarbleRate > 0 && len(buf) > 0 && r.rng.Float64() < l.GarbleRate {
		buf = append([]byte(nil), buf...)
		buf[r.rng.Intn(len(buf))] ^= byte(1 + r.rng.Intn(255))
		r.ledger.Garbled++
		clone = true
	}
	hold := l.ReorderRate > 0 && r.rng.Float64() < l.ReorderRate
	return Copy{Buf: buf, Hold: hold, Clone: clone}
}

// Transmit times one copy of size bytes leaving from toward to at time
// now: the host egress budget, then propagation delay and jitter,
// then the link's bandwidth serialization. It returns the delay until
// delivery, or ok=false when the copy is dropped — blocked because the
// destination is gone (attached false) or crashed, or collapse-dropped
// by the host's egress queue. Rules are read at call time, so a copy
// released from a reorder hold sees the rules in force when it
// actually departs. The host bucket is acquired before the link
// bucket: the packet clears the sender's NIC first (store-and-
// forward), then contends for the directed link from that moment.
func (r *Rules) Transmit(from, to core.EndpointID, attached bool, now time.Duration, size int) (delay time.Duration, ok bool) {
	if !attached || r.Crashed(to) {
		r.ledger.Blocked++
		return 0, false
	}
	clear := now
	if len(r.hosts) != 0 {
		newFree, c, out := EgressAcquire(r.hosts[from], from, to, now, r.egressFree[from], size)
		clear = c
		switch out {
		case EgressDropped:
			r.ledger.CollapseDropped++
			r.egressDropped[from]++
			return 0, false
		case EgressQueued:
			r.ledger.Congested++
			r.egressCongested[from]++
			r.egressFree[from] = newFree
		case EgressGranted:
			r.egressFree[from] = newFree
		}
	}
	l := r.linkFor(from, to)
	delay = l.Delay
	if l.Jitter > 0 {
		delay += time.Duration(r.rng.Int63n(int64(l.Jitter)))
	}
	if l.Bandwidth > 0 {
		// The packet departs when the link is free — no earlier than
		// its NIC clear time — and occupies it for size/Bandwidth.
		dir := pair{a: from, b: to}
		linkFree, queued := BucketAcquire(clear, r.linkFree[dir], size, l.Bandwidth)
		if queued {
			r.ledger.Throttled++
		}
		r.linkFree[dir] = linkFree
		return delay + linkFree - now, true
	}
	return delay + clear - now, true
}

// Hold parks one copy under l's reorder rule: releaseLocked is called
// after ReorderDepth later departures on the same directed link, or
// when the hold backstop expires on a link gone quiet, whichever comes
// first, and exactly once. backstop must run fireLocked after d on the
// fabric's clock, under the fabric's lock. releaseLocked is expected to
// call Transmit, which re-reads the rules and re-checks the
// destination.
func (r *Rules) Hold(from, to core.EndpointID, l Link, releaseLocked func(), backstop func(d time.Duration, fireLocked func())) {
	depth := l.ReorderDepth
	if depth <= 0 {
		depth = DefaultReorderDepth
	}
	hold := l.ReorderHold
	if hold <= 0 {
		hold = DefaultReorderHold
	}
	r.ledger.Reordered++
	dir := pair{a: from, b: to}
	h := &heldPacket{remaining: depth, releaseLocked: releaseLocked}
	r.held[dir] = append(r.held[dir], h)
	backstop(hold, func() {
		if h.released {
			return
		}
		h.released = true
		hs := r.held[dir]
		for i, x := range hs {
			if x == h {
				r.held[dir] = append(hs[:i], hs[i+1:]...)
				break
			}
		}
		h.releaseLocked()
	})
}

// Depart counts one departure on the directed link from→to against
// its held copies, releasing any whose depth is exhausted. A copy the
// egress queue dropped still counts: the sender attempted it.
func (r *Rules) Depart(from, to core.EndpointID) {
	if len(r.held) == 0 {
		return
	}
	dir := pair{a: from, b: to}
	hs := r.held[dir]
	if len(hs) == 0 {
		return
	}
	keep := hs[:0]
	var release []*heldPacket
	for _, h := range hs {
		h.remaining--
		if h.remaining <= 0 {
			h.released = true
			release = append(release, h)
		} else {
			keep = append(keep, h)
		}
	}
	r.held[dir] = keep
	for _, h := range release {
		h.releaseLocked()
	}
}

// XmitTime is how long size bytes occupy a bucket draining at rate
// bytes per second. Sub-nanosecond remainders truncate toward zero —
// a packet small enough against a fast enough bucket serializes in 0ns
// — and a zero-length packet occupies no time at any rate.
func XmitTime(size, rate int) time.Duration {
	return time.Duration(int64(size) * int64(time.Second) / int64(rate))
}

// BucketAcquire reserves size bytes on a bucket draining at rate
// bytes per second: the transfer starts at max(now, free) — the bucket
// refills nothing across idle gaps beyond becoming immediately
// available, so there is no burst credit — occupies XmitTime(size,
// rate), and the returned newFree is the bucket's next busy-until
// horizon. queued reports whether the packet had to wait behind
// earlier traffic (free > now), which is what the Throttled and
// Congested ledgers count.
func BucketAcquire(now, free time.Duration, size, rate int) (newFree time.Duration, queued bool) {
	depart := now
	if free > depart {
		depart = free
		queued = true
	}
	return depart + XmitTime(size, rate), queued
}

// BucketBacklog is how many bytes are still untransmitted on a bucket
// with busy-until horizon free at time now — the queue depth the
// Host.EgressQueue bound is checked against. A drained or idle bucket
// reports zero.
func BucketBacklog(now, free time.Duration, rate int) int {
	if free <= now {
		return 0
	}
	return int(int64(free-now) * int64(rate) / int64(time.Second))
}

// EgressOutcome is the result of one host-bucket acquisition.
type EgressOutcome uint8

// Egress admission outcomes.
const (
	EgressPass    EgressOutcome = iota // no budget, or loopback: bucket untouched
	EgressGranted                      // tokens acquired, bucket was idle
	EgressQueued                       // tokens acquired behind a backlog (Congested)
	EgressDropped                      // backlog bound exceeded (CollapseDropped)
)

// EgressAcquire runs the admission policy for one packet of size bytes
// leaving host from toward dst at time now, given the host's current
// busy-until horizon free. It returns the new horizon (unchanged
// unless tokens were acquired), the time at which the packet fully
// clears the NIC (now, when the budget does not apply; the bucket is
// store-and-forward, so a granted packet clears only once fully
// serialized), and the ledger outcome.
func EgressAcquire(h Host, from, dst core.EndpointID, now, free time.Duration, size int) (newFree, clear time.Duration, out EgressOutcome) {
	if h.EgressBudget <= 0 || from == dst {
		return free, now, EgressPass
	}
	if backlog := BucketBacklog(now, free, h.EgressBudget); backlog > 0 && backlog+size > h.queueBytes() {
		return free, now, EgressDropped
	}
	newFree, queued := BucketAcquire(now, free, size, h.EgressBudget)
	if queued {
		return newFree, newFree, EgressQueued
	}
	return newFree, newFree, EgressGranted
}
