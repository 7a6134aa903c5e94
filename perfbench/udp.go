//horus:wallclock — the UDP workload runs on real sockets, so its fabric clock and open-loop generator are the wall clock.

package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"horus/internal/core"
	"horus/internal/loadgen"
	"horus/internal/message"
	"horus/internal/udpnet"
)

// UDP loopback shape: 3 groups × 3 members, fifo NAK:COM on the fast
// path, 64-byte bodies at 800 casts/s per group.
const (
	udpGroups  = 3
	udpMembers = 3
	udpRate    = 800.0
	udpBody    = 64
	udpWarm    = 300 * time.Millisecond
	udpDrain   = 2 * time.Second
)

// udpCluster is the udp-loopback fabric: one udpnet.Transport per
// endpoint on 127.0.0.1, wired directly with AddPeer.
type udpCluster struct {
	base    time.Time // fabric clock origin
	trs     []*udpnet.Transport
	eps     []*core.Endpoint
	groups  [][]*core.Group
	tracers [][]*tracer // per endpoint, when traced
	led     *ledger

	packets, bytes atomic.Uint64 // wire tap
	buildMs        float64
	joinMs         float64
}

func (c *udpCluster) now() time.Duration { return time.Since(c.base) }

func bootUDP(res *result, traced bool) (*udpCluster, error) {
	c := &udpCluster{base: time.Now(), led: newLedger(res, udpGroups, udpMembers, false)}
	t0 := wallSeconds()
	spec, _, err := loadgen.StackSpecFor("fifo")
	if err != nil {
		return nil, err
	}
	c.buildMs = (wallSeconds() - t0) * 1e3
	birth := uint64(1)
	c.groups = make([][]*core.Group, udpGroups)
	c.tracers = make([][]*tracer, udpGroups)
	for gi := range c.groups {
		addr := core.GroupAddr(fmt.Sprintf("bench/g%d", gi))
		trs := make([]*udpnet.Transport, udpMembers)
		ids := make([]core.EndpointID, udpMembers)
		for mi := range trs {
			ids[mi] = core.EndpointID{Site: fmt.Sprintf("g%d-m%d", gi, mi), Birth: birth}
			birth++
			tr, err := udpnet.Listen("127.0.0.1:0", ids[mi])
			if err != nil {
				c.close()
				return nil, err
			}
			trs[mi] = tr
			c.trs = append(c.trs, tr)
		}
		for _, tr := range trs {
			for mi, peer := range trs {
				tr.AddPeer(ids[mi], peer.Addr())
			}
		}
		c.groups[gi] = make([]*core.Group, udpMembers)
		c.tracers[gi] = make([]*tracer, udpMembers)
		for mi, tr := range trs {
			ep := tr.NewEndpoint()
			c.eps = append(c.eps, ep)
			ep.SetWireTap(func(dests []core.EndpointID, wire []byte) {
				n := uint64(len(dests))
				if n == 0 {
					n = udpMembers
				}
				c.packets.Add(n)
				c.bytes.Add(n * uint64(len(wire)))
			})
			var ttr *tracer
			if traced {
				ttr = newTracer(c.base)
				c.tracers[gi][mi] = ttr
			}
			gi, mi := gi, mi
			t1 := wallSeconds()
			g, err := ep.Join(addr, traceSpec(spec, ttr), tracedHandler(ttr, func(ev *core.Event) {
				if ev.Type == core.UCast {
					c.led.deliver(gi, mi, ev.Msg.Body(), c.now())
				}
			}))
			c.joinMs += (wallSeconds() - t1) * 1e3
			if err != nil {
				c.close()
				return nil, fmt.Errorf("join g%d-m%d: %w", gi, mi, err)
			}
			c.groups[gi][mi] = g
		}
		v := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, addr, ids)
		for _, g := range c.groups[gi] {
			g.InstallView(v)
		}
	}
	return c, nil
}

// close destroys every stack (so no layer timer fires again) and then
// closes the sockets, which ends the reader goroutines.
func (c *udpCluster) close() {
	for _, ep := range c.eps {
		ep.Destroy()
	}
	for _, tr := range c.trs {
		_ = tr.Close() // the socket is done with; a close error changes nothing
	}
}

// due is one scheduled cast of the merged open-loop schedule.
type due struct {
	at     time.Duration
	group  int
	stream int
}

// schedule merges every (group, cohort) arrival stream into one
// due-time-ordered list for the single generator goroutine.
func schedule(seed int64, start, stop time.Duration) ([]due, []*rand.Rand) {
	var out []due
	var picks []*rand.Rand
	for gi := 0; gi < udpGroups; gi++ {
		for ci, cs := range loadgen.DefaultCohorts() {
			stream := len(picks)
			picks = append(picks, rand.New(rand.NewSource(mixSeed(seed, gi, ci)^0x5bd1e995)))
			gen := newArrivals(mixSeed(seed, gi, ci), cs, udpRate*cs.Fraction, start, stop)
			for t, ok := gen.next(); ok; t, ok = gen.next() {
				out = append(out, due{t, gi, stream})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, picks
}

// runUDP is the udp-loopback workload: real sockets on the host
// loopback interface, one generator goroutine timing every cast from
// its due time on the wall clock.
func runUDP(seed int64, seconds int, traced bool) (*result, error) {
	res := newResult()
	c, err := setUp(res, traced, func(_ int, _ bool, tr *tracer) (*udpCluster, setupCost, error) {
		c, err := bootUDP(res, tr != nil)
		if err != nil {
			return nil, setupCost{}, err
		}
		return c, setupCost{c.buildMs, c.joinMs}, nil
	}, (*udpCluster).close)
	if err != nil {
		return nil, err
	}
	defer c.close()

	span := time.Duration(seconds) * time.Second
	start := c.now() + 10*time.Millisecond
	from, to := start+udpWarm, start+udpWarm+span
	c.led.from, c.led.to = from, to
	sched, picks := schedule(seed, start, to)

	var all []*core.Group
	for _, gs := range c.groups {
		all = append(all, gs...)
	}
	var (
		lags           []int64
		beforeCounters counters
		beforePk       uint64
		beforeBy       uint64
		open           bool
		lastHeap       time.Duration
	)
	res.lat = make([]int64, 0, int(udpRate*udpGroups*udpMembers*span.Seconds()*1.3))
	for _, d := range sched {
		if !open && d.at >= from {
			open = true
			beforeCounters = c.readCounters(all)
			c.resetTracers()
			beforePk, beforeBy = c.packets.Load(), c.bytes.Load()
			res.cost.begin()
			c.led.setCounting(true)
		}
		if wait := d.at - c.now(); wait > 0 {
			time.Sleep(wait)
		}
		now := c.now()
		if open {
			lags = append(lags, int64(now-d.at))
			if now-lastHeap >= 10*time.Millisecond {
				res.cost.sampleHeap()
				lastHeap = now
			}
		}
		pick := picks[d.stream]
		origin := pick.Intn(udpMembers)
		seq := c.led.cast(d.group, origin, d.at)
		g := c.groups[d.group][origin]
		castOn(c.tracers[d.group][origin], g, message.New(makePayload(udpBody, d.at, uint32(origin), seq)), uint64(origin)<<48|seq)
	}
	if wait := to - c.now(); wait > 0 {
		time.Sleep(wait)
	}
	c.led.setCounting(false)
	res.cost.end()
	res.cost.packets, res.cost.wireBytes = c.packets.Load()-beforePk, c.bytes.Load()-beforeBy
	afterCounters := c.readCounters(all)

	if traced {
		agg := newTracer(c.base)
		for gi, ts := range c.tracers {
			for mi, t := range ts {
				doSync(c.groups[gi][mi].Endpoint(), func() { agg.merge(t) })
			}
		}
		agg.report(res, res.cost.cpu*1e9)
	}

	// Drain: wait until every issued cast has reached every member.
	for deadline := time.Now().Add(udpDrain); time.Now().Before(deadline) && !c.led.complete(); {
		time.Sleep(10 * time.Millisecond)
	}
	c.led.finish()

	res.layer["gen.lag_p99_ms"] = metric{quantileMs(lags, 0.99), "ms"}
	if traced {
		var st udpnet.Stats
		for _, tr := range c.trs {
			s := tr.Stats()
			st.SendErrors += s.SendErrors
			st.Malformed += s.Malformed
			st.Truncated += s.Truncated
		}
		res.layer["udpnet.send_errors"] = metric{float64(st.SendErrors), "count"}
		res.layer["udpnet.malformed"] = metric{float64(st.Malformed), "count"}
		res.layer["udpnet.truncated"] = metric{float64(st.Truncated), "count"}
		layerMetrics(res, afterCounters.sub(beforeCounters), float64(res.cost.casts), span.Seconds())
	}
	return res, nil
}

// readCounters reads every group's counters on its endpoint's event
// queue, so the reads serialize with the stacks.
func (c *udpCluster) readCounters(gs []*core.Group) counters {
	out := counters{}
	for _, g := range gs {
		var one counters
		doSync(g.Endpoint(), func() { one = readCounters([]*core.Group{g}) })
		for k, v := range one {
			out[k] += v
		}
	}
	return out
}

// resetTracers clears each endpoint's tracer on its own event queue.
func (c *udpCluster) resetTracers() {
	for gi, ts := range c.tracers {
		for mi, t := range ts {
			if t != nil {
				doSync(c.groups[gi][mi].Endpoint(), t.reset)
			}
		}
	}
}

// doSync runs fn on ep's event queue and waits for it. Endpoint.Do
// alone returns early when another goroutine is draining the queue.
func doSync(ep *core.Endpoint, fn func()) {
	done := make(chan struct{})
	ep.Do(func() {
		fn()
		close(done)
	})
	<-done
}
