//horus:wallclock — times set-up on the wall clock (setup_s); crashes, recoveries and casts are scheduled in netsim virtual time only.

package main

import (
	"fmt"
	"math/rand"
	"time"

	"horus/internal/chaos"
	"horus/internal/core"
	"horus/internal/loadgen"
	"horus/internal/message"
	"horus/internal/netsim"
)

// Churn shape: one 12-member group on chaos.DefaultStack
// (MBRSHIP:HBEAT:NAK:COM) casting open-loop while a scripted series of
// crash-and-recover incidents alternately hits the coordinator and a
// seeded non-coordinator slot.
const (
	churnMembers      = 12
	churnRate         = 120.0 // casts/s for the group
	churnBody         = 64
	churnSpacing      = 3 * time.Second // between incidents
	churnDwell        = 600 * time.Millisecond
	churnFirstCrash   = 500 * time.Millisecond // after the measure window opens
	churnReconcile    = 250 * time.Millisecond
	churnFormDeadline = 20 * time.Second
	churnWarm         = 200 * time.Millisecond
	churnDrain        = 3 * time.Second
	churnGroup        = core.GroupAddr("churn")
)

var churnLink = netsim.Link{Delay: time.Millisecond, Jitter: time.Millisecond}

// churnDelivery is one delivery (or LOST_MESSAGE report) as observed
// by one incarnation.
type churnDelivery struct {
	view   core.ViewID
	origin uint32 // slot<<16 | incarnation
	seq    uint64
	lost   bool
	from   core.EndpointID
	at     time.Duration
	due    time.Duration
}

// incarnation is one life of a member slot.
type incarnation struct {
	slot, inc int
	ep        *core.Endpoint
	g         *core.Group
	views     []*core.View
	viewAt    []time.Duration
	dels      []churnDelivery
	seq       uint64
	crashed   bool
	crashedAt time.Duration
}

func (m *incarnation) last() *core.View {
	if len(m.views) == 0 {
		return nil
	}
	return m.views[len(m.views)-1]
}

type churnCluster struct {
	net  *netsim.Network
	loop simLoop
	res  *result
	tr   *tracer

	slots []*incarnation // current incarnation per slot
	all   []*incarnation // every incarnation, in boot order

	crashes  []crashRec
	issued   []issuedCast
	counting bool
	delCap   int // delivery records pre-sized per incarnation once measuring
	buildMs  float64
	joinMs   float64
}

func (c *churnCluster) boot(slot, inc int) error {
	ep := c.net.NewEndpoint(fmt.Sprintf("s%d", slot))
	m := &incarnation{slot: slot, inc: inc, ep: ep, dels: make([]churnDelivery, 0, c.delCap)}
	t0 := wallSeconds()
	spec := traceSpec(chaos.DefaultStack(), c.tr)
	c.buildMs += (wallSeconds() - t0) * 1e3
	t1 := wallSeconds()
	g, err := ep.Join(churnGroup, spec, tracedHandler(c.tr, func(ev *core.Event) { c.handle(m, ev) }))
	c.joinMs += (wallSeconds() - t1) * 1e3
	if err != nil {
		return fmt.Errorf("churn: boot s%d.%d: %w", slot, inc, err)
	}
	m.g = g
	c.slots[slot] = m
	c.all = append(c.all, m)
	return nil
}

func (c *churnCluster) handle(m *incarnation, ev *core.Event) {
	now := c.net.Now()
	switch ev.Type {
	case core.UView:
		m.views = append(m.views, ev.View)
		m.viewAt = append(m.viewAt, now)
	case core.UCast:
		var view core.ViewID
		if v := m.last(); v != nil {
			view = v.ID
		}
		p, ok := parsePayload(ev.Msg.Body())
		if !ok {
			c.res.violation("integrity: s%d.%d delivered a corrupt %d-byte body", m.slot, m.inc, len(ev.Msg.Body()))
			return
		}
		m.dels = append(m.dels, churnDelivery{view: view, origin: p.origin, seq: p.seq, at: now, due: p.due})
		if c.counting {
			c.res.cost.deliveries++
		}
	case core.ULostMessage:
		var view core.ViewID
		if v := m.last(); v != nil {
			view = v.ID
		}
		m.dels = append(m.dels, churnDelivery{view: view, lost: true, from: ev.Source, at: now})
	}
}

// anchor is the live incarnation with the oldest endpoint: MBRSHIP
// grants merges only at its view's coordinator, the oldest member.
func (c *churnCluster) anchor() *incarnation {
	var a *incarnation
	for _, m := range c.slots {
		if !m.crashed && (a == nil || m.ep.ID().Older(a.ep.ID())) {
			a = m
		}
	}
	return a
}

// reconcile points every live member that has lost sight of the anchor
// back at it, every churnReconcile, until the simulation stops.
func (c *churnCluster) reconcile() {
	if a := c.anchor(); a != nil {
		for _, m := range c.slots {
			if v := m.last(); !m.crashed && m != a && (v == nil || !v.Contains(a.ep.ID())) {
				m.g.Merge(a.ep.ID())
			}
		}
	}
	c.net.At(c.net.Now()+churnReconcile, c.reconcile)
}

func (c *churnCluster) converged() bool {
	live := 0
	for _, m := range c.slots {
		if !m.crashed {
			live++
		}
	}
	for _, m := range c.slots {
		if v := m.last(); !m.crashed && (v == nil || v.Size() != live) {
			return false
		}
	}
	return true
}

func bootChurn(seed int64, res *result, tr *tracer) (*churnCluster, error) {
	c := &churnCluster{
		net:   netsim.New(netsim.Config{Seed: seed, DefaultLink: churnLink}),
		res:   res,
		tr:    tr,
		slots: make([]*incarnation, churnMembers),
	}
	c.loop = simLoop{net: c.net, tr: tr}
	for slot := range c.slots {
		if err := c.boot(slot, 0); err != nil {
			return nil, err
		}
	}
	c.net.At(c.net.Now()+churnReconcile, c.reconcile)
	for deadline := c.net.Now() + churnFormDeadline; !c.converged(); {
		if c.net.Now() >= deadline {
			return nil, fmt.Errorf("churn: group did not form a full view within %v", churnFormDeadline)
		}
		c.loop.runUntil(c.net.Now() + 50*time.Millisecond)
	}
	return c, nil
}

// crash fail-stops a slot's incarnation and schedules its recovery as
// a fresh incarnation, as chaos.CrashRecover does.
func (c *churnCluster) crash(slot int) {
	m := c.slots[slot]
	m.crashed, m.crashedAt = true, c.net.Now()
	c.crashes = append(c.crashes, crashRec{at: m.crashedAt, id: m.ep.ID()})
	c.net.Crash(m.ep.ID())
	c.net.At(c.net.Now()+churnDwell, func() {
		c.net.Detach(m.ep.ID())
		if err := c.boot(slot, m.inc+1); err != nil {
			c.res.violation("%v", err)
		}
	})
}

// issuedCast is one cast as its sender issued it.
type issuedCast struct {
	origin uint32 // slot<<16 | incarnation
	seq    uint64
	due    time.Duration
	sender *incarnation
	view   core.ViewID // the sender's view when it issued the cast
}

type crashRec struct {
	at time.Duration
	id core.EndpointID
}

// runChurn is the churn workload: one 12-member group on
// chaos.DefaultStack casting open-loop while members crash and recover.
// chaos.CheckAll judges virtual synchrony over the recorded histories.
func runChurn(seed int64, seconds int, traced bool) (*result, error) {
	res := newResult()
	c, err := setUp(res, traced, func(rep int, last bool, tr *tracer) (*churnCluster, setupCost, error) {
		c, err := bootChurn(setupSeed(seed, rep, last), res, tr)
		if err != nil {
			return nil, setupCost{}, err
		}
		return c, setupCost{c.buildMs, c.joinMs}, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	incidents := seconds
	start := c.net.Now()
	from := start + churnWarm
	to := from + churnFirstCrash + time.Duration(incidents)*churnSpacing
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < incidents; k++ {
		k := k
		victim := rng.Intn(churnMembers - 1) // a non-coordinator, by rank among the others
		c.net.At(from+churnFirstCrash+time.Duration(k)*churnSpacing, func() {
			a := c.anchor()
			slot := a.slot
			if k%2 == 1 {
				var others []int
				for s, m := range c.slots {
					if m != a && !m.crashed {
						others = append(others, s)
					}
				}
				slot = others[victim%len(others)]
			}
			c.crash(slot)
		})
	}
	c.arm(seed, start, to)
	// Pre-size delivery records so their growth stays out of the heap peak.
	c.delCap = int(churnRate*(to-start+churnDrain).Seconds()*1.3) + 1024
	for _, m := range c.slots {
		m.dels = make([]churnDelivery, 0, c.delCap)
	}

	c.loop.runUntil(from)
	c.loop.measure(res, c.groups, from, to, func(on bool) { c.counting = on })
	c.tr = nil // incarnations booted from here on are not traced
	c.loop.runUntil(to + churnDrain)

	c.judge(from, to)
	return res, nil
}

// groups lists every incarnation's group handle.
func (c *churnCluster) groups() []*core.Group {
	gs := make([]*core.Group, len(c.all))
	for i, m := range c.all {
		gs[i] = m.g
	}
	return gs
}

// arm schedules the group's open-loop casts. Each cast goes to a
// seeded pick among the live members currently in a majority view —
// clients talk to the serving component, not to a member that is
// still rejoining.
func (c *churnCluster) arm(seed int64, start, stop time.Duration) {
	for ci, cs := range loadgen.DefaultCohorts() {
		gen := newArrivals(mixSeed(seed, 0, ci), cs, churnRate*cs.Fraction, start, stop)
		pick := rand.New(rand.NewSource(mixSeed(seed, 0, ci) ^ 0x5bd1e995))
		var fire func(t time.Duration)
		fire = func(t time.Duration) {
			var ready []*incarnation
			for _, m := range c.slots {
				if v := m.last(); !m.crashed && v != nil && v.Size() > churnMembers/2 {
					ready = append(ready, m)
				}
			}
			n := pick.Intn(churnMembers)
			if len(ready) > 0 {
				m := ready[n%len(ready)]
				m.seq++
				if c.counting {
					c.res.cost.casts++
				}
				origin := uint32(m.slot)<<16 | uint32(m.inc)
				c.issued = append(c.issued, issuedCast{origin: origin, seq: m.seq, due: t, sender: m, view: m.last().ID})
				body := makePayload(churnBody, t, origin, m.seq)
				castOn(c.tr, m.g, message.New(body), uint64(m.slot)<<48|m.seq)
			}
			if nt, ok := gen.next(); ok {
				c.net.At(nt, func() { fire(nt) })
			}
		}
		if t, ok := gen.next(); ok {
			c.net.At(t, func() { fire(t) })
		}
	}
}

// survives reports whether m outlived view v: it installed a later
// view, or v is its last view and it never crashed.
func (m *incarnation) survives(v core.ViewID) bool {
	for i, w := range m.views {
		if w.ID == v {
			return i+1 < len(m.views) || !m.crashed
		}
	}
	return false
}

// judge builds chaos.History records from the incarnations and runs
// chaos.CheckAll, then credits deliveries and measures failover.
//
// Every cast issued with a due time in [from, to) is judged. A cast
// delivered in view v is expected at every survivor of v (virtual
// synchrony); one delivered nowhere is expected at every survivor of
// the view its sender issued it in. Only a cast no survivor delivered
// and whose sender crashed in its issue view was lost with its sender;
// it is reported, not expected. Latency samples are the due→deliver
// times of every delivery of a cast due in [from, to).
func (c *churnCluster) judge(from, to time.Duration) {
	var hs []*chaos.History
	for _, m := range c.all {
		h := &chaos.History{Slot: m.slot, Inc: m.inc, ID: m.ep.ID(), Views: m.views, Crashed: m.crashed}
		for _, d := range m.dels {
			if d.lost {
				h.Deliveries = append(h.Deliveries, chaos.Delivery{View: d.view, Lost: true, From: d.from})
				continue
			}
			h.Deliveries = append(h.Deliveries, chaos.Delivery{View: d.view,
				Payload: fmt.Sprintf("s%d.%d-%d", d.origin>>16, d.origin&0xffff, d.seq)})
		}
		hs = append(hs, h)
	}
	for _, err := range chaos.CheckAll(hs) {
		c.res.violation("virtual synchrony: %v", err)
	}

	type castKey struct {
		origin uint32
		seq    uint64
	}
	type castInfo struct {
		view      core.ViewID
		due       time.Duration
		delivered map[*incarnation]bool
	}
	casts := map[castKey]*castInfo{}
	for _, m := range c.all {
		for _, d := range m.dels {
			if d.lost {
				continue
			}
			k := castKey{d.origin, d.seq}
			ci := casts[k]
			if ci == nil {
				ci = &castInfo{view: d.view, due: d.due, delivered: map[*incarnation]bool{}}
				casts[k] = ci
			}
			ci.delivered[m] = true
			if d.due >= from && d.due < to {
				c.res.lat = append(c.res.lat, int64(d.at-d.due))
			}
		}
	}
	lostWithSender := 0
	for _, ic := range c.issued {
		if ic.due < from || ic.due >= to {
			continue
		}
		ci := casts[castKey{ic.origin, ic.seq}]
		view := ic.view
		if ci != nil {
			view = ci.view
		}
		var survivors []*incarnation
		anyDelivered := false
		for _, m := range c.all {
			if m.survives(view) {
				survivors = append(survivors, m)
				anyDelivered = anyDelivered || ci != nil && ci.delivered[m]
			}
		}
		if !anyDelivered && !ic.sender.survives(ic.view) {
			lostWithSender++
			continue
		}
		for _, m := range survivors {
			c.res.attempted++
			if ci != nil && ci.delivered[m] {
				c.res.delivered++
			}
		}
	}
	c.res.diag["casts_lost_with_sender"] = metric{float64(lostWithSender), "count"}

	// Failover per crash: from the crash to the first cast delivered in
	// a view without the crashed member, at the last survivor to get
	// there; view install likewise to the new view itself.
	var failovers, installs []float64
	for _, cr := range c.crashes {
		worstCast, worstView, ok := time.Duration(0), time.Duration(0), true
		for _, m := range c.all {
			if m.ep.ID() == cr.id || m.crashed && m.crashedAt <= cr.at+churnSpacing {
				continue
			}
			if m.viewAt == nil || m.viewAt[0] > cr.at {
				continue // booted after the crash
			}
			vi := -1
			for i, v := range m.views {
				if m.viewAt[i] > cr.at && !v.Contains(cr.id) {
					vi = i
					break
				}
			}
			if vi < 0 {
				ok = false
				break
			}
			worstView = max(worstView, m.viewAt[vi]-cr.at)
			got := false
			for _, d := range m.dels {
				if !d.lost && d.at > cr.at && d.view == m.views[vi].ID {
					worstCast = max(worstCast, d.at-cr.at)
					got = true
					break
				}
			}
			ok = ok && got
		}
		if !ok {
			c.res.violation("failover: no cast reached every survivor after the crash of %v at %v", cr.id, cr.at)
			continue
		}
		failovers = append(failovers, float64(worstCast)/1e6)
		installs = append(installs, float64(worstView)/1e6)
	}
	c.res.diag["failover_ms"] = metric{median(failovers), "ms"}
	c.res.diag["failover_samples"] = metric{float64(len(failovers)), "count"}
	c.res.layer["mbrship.view_install_ms"] = metric{median(installs), "ms"}
}
