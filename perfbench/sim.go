//horus:wallclock — set-up timing reads the wall clock around stack construction and Join; the simulation itself runs on netsim virtual time only.

package main

import (
	"fmt"
	"math/rand"
	"time"

	"horus/internal/core"
	"horus/internal/loadgen"
	"horus/internal/message"
	"horus/internal/netsim"
)

// simLoop drives a netsim.Network one Step at a time, so a traced run
// can put a span around each Step. Untraced and traced runs execute the
// same event sequence.
type simLoop struct {
	net *netsim.Network
	tr  *tracer
	// heap, while a cost window is open, samples HeapInuse every
	// heapEvery steps so the peak between GC cycles is not missed.
	heap  *costWindow
	steps int
}

const heapEvery = 64

// runUntil executes events up to virtual time t.
func (s *simLoop) runUntil(t time.Duration) {
	stop := false
	s.net.At(t, func() { stop = true })
	for !stop {
		if s.tr != nil {
			s.tr.open(spanStep, 0)
		}
		ok := s.net.Step()
		if s.tr != nil {
			s.tr.close()
		}
		if s.steps++; s.heap != nil && s.steps%heapEvery == 0 {
			s.heap.sampleHeap()
		}
		if !ok {
			return
		}
	}
}

// staticCluster is groups × members endpoints on one simulated fabric,
// each group running the same stack, with a ledger checking deliveries.
type staticCluster struct {
	net    *netsim.Network
	loop   simLoop
	groups [][]*core.Group
	views  [][]*core.View // last VIEW upcall per member
	led    *ledger
	res    *result

	buildMs, joinMs float64 // set-up split: stack construction, Join calls
	lostReports     int     // LOST_MESSAGE upcalls
}

// clusterShape parameterizes a static-group simulated workload.
type clusterShape struct {
	groups, members int
	link            netsim.Link
	host            netsim.Host
	totalOrder      bool
	// spec builds the stack; its wall time is the stackreg.build_ms share.
	spec func() (core.StackSpec, error)
	// form brings each group to one full view once every member has
	// joined: a static InstallView, or MBRSHIP merges.
	form func(c *staticCluster) error
}

// bootCluster boots, joins and forms a static-group cluster.
func bootCluster(seed int64, sh clusterShape, res *result, tr *tracer) (*staticCluster, error) {
	c := &staticCluster{
		net: netsim.New(netsim.Config{Seed: seed, DefaultLink: sh.link}),
		led: newLedger(res, sh.groups, sh.members, sh.totalOrder),
		res: res,
	}
	c.loop = simLoop{net: c.net, tr: tr}
	t0 := wallSeconds()
	spec, err := sh.spec()
	if err != nil {
		return nil, err
	}
	c.buildMs = (wallSeconds() - t0) * 1e3
	spec = traceSpec(spec, tr)
	c.groups = make([][]*core.Group, sh.groups)
	c.views = make([][]*core.View, sh.groups)
	for gi := range c.groups {
		c.views[gi] = make([]*core.View, sh.members)
		addr := core.GroupAddr(fmt.Sprintf("bench/g%d", gi))
		c.groups[gi] = make([]*core.Group, sh.members)
		for mi := range c.groups[gi] {
			ep := c.net.NewEndpoint(fmt.Sprintf("g%d-m%d", gi, mi))
			if sh.host != (netsim.Host{}) {
				c.net.SetHost(ep.ID(), sh.host)
			}
			gi, mi := gi, mi
			t1 := wallSeconds()
			g, err := ep.Join(addr, spec, tracedHandler(tr, func(ev *core.Event) { c.handle(gi, mi, ev) }))
			c.joinMs += (wallSeconds() - t1) * 1e3
			if err != nil {
				return nil, fmt.Errorf("join g%d-m%d: %w", gi, mi, err)
			}
			c.groups[gi][mi] = g
		}
	}
	return c, sh.form(c)
}

func (c *staticCluster) handle(gi, mi int, ev *core.Event) {
	switch ev.Type {
	case core.UView:
		c.views[gi][mi] = ev.View
	case core.UCast:
		c.led.deliver(gi, mi, ev.Msg.Body(), c.net.Now())
	case core.ULostMessage:
		// NAK reports history a member can no longer obtain, usually
		// pre-join traffic after a merge. It is counted, not judged: a
		// cast genuinely lost fails the ledger's completeness check.
		c.lostReports++
	}
}

// installStatic installs one static view per group (external
// membership, as the fifo stacks expect).
func installStatic(c *staticCluster) error {
	for gi, gs := range c.groups {
		ids := make([]core.EndpointID, len(gs))
		for mi, g := range gs {
			ids[mi] = g.Endpoint().ID()
		}
		v := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, core.GroupAddr(fmt.Sprintf("bench/g%d", gi)), ids)
		for _, g := range gs {
			g.InstallView(v)
		}
	}
	return nil
}

// load is the open-loop cast schedule of one simulated run.
type load struct {
	seed     int64
	rate     float64 // casts/s per group, split over loadgen.DefaultCohorts
	bodySize func(r *rand.Rand) int
}

// arm schedules every group's cohort streams from start to stop; casts
// due in [from, to) are the measured ones.
func (c *staticCluster) arm(l load, start, stop time.Duration) {
	tr := c.loop.tr
	for gi := range c.groups {
		for ci, cs := range loadgen.DefaultCohorts() {
			gi := gi
			gen := newArrivals(mixSeed(l.seed, gi, ci), cs, l.rate*cs.Fraction, start, stop)
			pick := rand.New(rand.NewSource(mixSeed(l.seed, gi, ci) ^ 0x5bd1e995))
			var fire func(t time.Duration)
			fire = func(t time.Duration) {
				origin := pick.Intn(len(c.groups[gi]))
				size := l.bodySize(pick)
				seq := c.led.cast(gi, origin, t)
				body := makePayload(size, t, uint32(origin), seq)
				castOn(tr, c.groups[gi][origin], message.New(body), uint64(origin)<<48|seq)
				if nt, ok := gen.next(); ok {
					c.net.At(nt, func() { fire(nt) })
				}
			}
			if t, ok := gen.next(); ok {
				c.net.At(t, func() { fire(t) })
			}
		}
	}
}

// slice is the virtual-time step of a measure loop: the heap is sampled
// after every slice.
const slice = 20 * time.Millisecond

// measure drives the loop through [from, to) as the host-cost window:
// CPU, allocations, heap, the fabric ledger and, when traced, the spans
// and layer counters cover exactly that window. counting switches the
// workload's delivery count; groups lists the stacks whose counters the
// per-layer metrics read.
func (s *simLoop) measure(res *result, groups func() []*core.Group, from, to time.Duration, counting func(bool)) {
	beforeCounters, beforeNet := readCounters(groups()), s.net.Stats()
	if s.tr != nil {
		s.tr.reset()
	}
	res.cost.begin()
	s.heap = &res.cost
	counting(true)
	for t := from; t < to; t += slice {
		s.runUntil(t + slice)
		res.cost.sampleHeap()
	}
	counting(false)
	s.heap = nil
	res.cost.end()
	after := s.net.Stats()
	res.cost.packets = uint64(after.Sent - beforeNet.Sent)
	res.cost.wireBytes = uint64(after.Bytes - beforeNet.Bytes)
	if s.tr != nil {
		s.tr.report(res, res.cost.wall*1e9)
		layerMetrics(res, readCounters(groups()).sub(beforeCounters), float64(res.cost.casts), (to - from).Seconds())
		s.tr = nil // what follows the window is not measured
	}
}

// all lists every group handle of the cluster.
func (c *staticCluster) all() []*core.Group {
	var gs []*core.Group
	for _, g := range c.groups {
		gs = append(gs, g...)
	}
	return gs
}

// run arms the load and drives the cluster through warm-up, the
// measure window and the drain. The host-cost window (and, traced, the
// span aggregation) covers exactly the measure window; casts due inside
// it are the measured ones, and the drain lets their last deliveries
// land before the ledger is checked.
func (c *staticCluster) run(l load, warm, span, drain time.Duration) {
	start := c.net.Now()
	c.led.from, c.led.to = start+warm, start+warm+span
	// Pre-size the per-delivery records so their growth does not show
	// up in the heap peak.
	perMember := int(l.rate*(warm+span).Seconds()*1.3) + 1024
	c.res.lat = make([]int64, 0, perMember*len(c.groups)*len(c.groups[0]))
	for i := range c.led.orders {
		c.led.orders[i] = make([]uint64, 0, perMember)
	}
	c.arm(l, start, start+warm+span)
	c.loop.runUntil(start + warm)

	c.loop.measure(c.res, c.all, start+warm, start+warm+span, c.led.setCounting)
	c.loop.runUntil(start + warm + span + drain)
	c.res.diag["lost_message_reports"] = metric{float64(c.lostReports), "count"}
	c.led.finish()
}
