package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// sink joins an endpoint to a trivial stack that records raw packets.
type rawLayer struct {
	core.Base
	got []string
}

func (r *rawLayer) Name() string { return "RAW" }
func (r *rawLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		r.Ctx.Transmit(ev.Dests, ev.Msg)
		return
	}
	r.Ctx.Down(ev)
}
func (r *rawLayer) Up(ev *core.Event) {
	if ev.Type == core.UPacket {
		r.got = append(r.got, string(ev.Msg.Body()))
		return
	}
	r.Ctx.Up(ev)
}

func attach(t *testing.T, net *netsim.Network, site string) (*core.Endpoint, *rawLayer) {
	t.Helper()
	l := &rawLayer{}
	ep := net.NewEndpoint(site)
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
		t.Fatal(err)
	}
	return ep, l
}

func send(ep *core.Endpoint, body string, dests ...core.EndpointID) {
	ep.Do(func() {
		g := ep.Group("g")
		if g == nil {
			// A crashed endpoint's groups are gone; transmitting from
			// the grave is exactly what must not happen.
			return
		}
		g.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New([]byte(body)), Dests: dests})
	})
}

func TestPerfectDelivery(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1})
	a, _ := attach(t, net, "a")
	_, lb := attach(t, net, "b")
	send(a, "hello")
	net.RunFor(time.Millisecond)
	if len(lb.got) != 1 || lb.got[0] != "hello" {
		t.Fatalf("b got %v", lb.got)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() ([]string, netsim.Stats) {
		net := netsim.New(netsim.Config{Seed: 42, DefaultLink: netsim.Link{
			Delay: time.Millisecond, Jitter: 5 * time.Millisecond,
			LossRate: 0.3, DupRate: 0.1, GarbleRate: 0.1,
		}})
		a, _ := attach(t, net, "a")
		_, lb := attach(t, net, "b")
		for i := 0; i < 50; i++ {
			i := i
			net.At(time.Duration(i)*time.Millisecond, func() {
				send(a, fmt.Sprintf("m%02d", i))
			})
		}
		net.RunFor(time.Second)
		return lb.got, net.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats differ across identical seeded runs:\n%+v\n%+v", st1, st2)
	}
	if len(got1) != len(got2) {
		t.Fatalf("deliveries differ: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatalf("delivery %d differs: %q vs %q", i, got1[i], got2[i])
		}
	}
}

func TestLossRateRoughlyHonored(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{LossRate: 0.5}})
	a, _ := attach(t, net, "a")
	_, lb := attach(t, net, "b")
	for i := 0; i < 500; i++ {
		i := i
		net.At(time.Duration(i)*time.Millisecond, func() { send(a, "x") })
	}
	net.RunFor(time.Second)
	// Each cast broadcasts to both endpoints; b's copies = 500.
	if n := len(lb.got); n < 180 || n > 320 {
		t.Fatalf("b received %d of 500 at 50%% loss (outside [180,320])", n)
	}
}

func TestPartitionBlocksAndHeals(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 5})
	a, _ := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	net.Partition([]core.EndpointID{a.ID()}, []core.EndpointID{b.ID()})
	send(a, "blocked")
	net.RunFor(10 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatal("partition leaked a packet")
	}
	net.Heal()
	send(a, "through")
	net.RunFor(10 * time.Millisecond)
	if len(lb.got) != 1 || lb.got[0] != "through" {
		t.Fatalf("after heal: %v", lb.got)
	}
}

func TestCrashSilencesEndpoint(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 6})
	a, la := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	net.Crash(b.ID())
	send(a, "to the dead")
	net.RunFor(10 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatal("crashed endpoint received a packet")
	}
	if !net.Crashed(b.ID()) {
		t.Error("Crashed() = false")
	}
	// And the dead cannot send (the self-delivery to a also vanishes).
	send(b, "from the grave")
	net.RunFor(10 * time.Millisecond)
	for _, g := range la.got {
		if g == "from the grave" {
			t.Fatal("crashed endpoint transmitted")
		}
	}
}

func TestDirectedLinkIsAsymmetric(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 11})
	a, la := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	// a->b is dead; b->a stays perfect.
	net.SetLinkDirected(a.ID(), b.ID(), netsim.Link{LossRate: 1})
	send(a, "a-to-b", b.ID())
	send(b, "b-to-a", a.ID())
	net.RunFor(10 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatalf("b heard %v through a dead directed link", lb.got)
	}
	if len(la.got) != 1 || la.got[0] != "b-to-a" {
		t.Fatalf("a got %v, want the reverse direction intact", la.got)
	}
}

func TestSetLinkIsSymmetricWrapper(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 12})
	a, la := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	net.SetLink(a.ID(), b.ID(), netsim.Link{LossRate: 1})
	send(a, "x", b.ID())
	send(b, "y", a.ID())
	net.RunFor(10 * time.Millisecond)
	if len(la.got) != 0 || len(lb.got) != 0 {
		t.Fatalf("symmetric override leaked: a=%v b=%v", la.got, lb.got)
	}
	// ClearLink falls back to the (perfect) default in both directions.
	net.ClearLink(a.ID(), b.ID())
	send(a, "x2", b.ID())
	send(b, "y2", a.ID())
	net.RunFor(10 * time.Millisecond)
	if len(la.got) != 1 || len(lb.got) != 1 {
		t.Fatalf("after ClearLink: a=%v b=%v", la.got, lb.got)
	}
}

func TestDetachRemovesBroadcastTarget(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 13})
	a, _ := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	net.Crash(b.ID())
	net.Detach(b.ID())
	send(a, "broadcast") // empty dests = all attached endpoints
	net.RunFor(10 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatal("detached endpoint received traffic")
	}
	// Blocked counts nothing for the detached id on broadcast: it is no
	// longer a target at all.
	if st := net.Stats(); st.Blocked != 0 {
		t.Fatalf("broadcast to detached endpoint counted Blocked=%d", st.Blocked)
	}
	// A replacement incarnation at the same site works normally.
	_, lb2 := attach(t, net, "b")
	send(a, "again")
	net.RunFor(10 * time.Millisecond)
	if len(lb2.got) != 1 || lb2.got[0] != "again" {
		t.Fatalf("recovered incarnation got %v", lb2.got)
	}
}

func TestTimersFireInOrder(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 7})
	var order []int
	net.At(30*time.Millisecond, func() { order = append(order, 3) })
	net.At(10*time.Millisecond, func() { order = append(order, 1) })
	net.At(20*time.Millisecond, func() { order = append(order, 2) })
	net.RunFor(time.Second)
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
	if net.Now() != time.Second {
		t.Errorf("Now = %v, want 1s", net.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 8})
	fired := false
	cancel := net.SetTimer(10*time.Millisecond, func() { fired = true })
	cancel()
	net.RunFor(time.Second)
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestGarbleCorruptsBytes(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 9, DefaultLink: netsim.Link{GarbleRate: 1}})
	a, _ := attach(t, net, "a")
	_, lb := attach(t, net, "b")
	send(a, "pristine-content")
	net.RunFor(10 * time.Millisecond)
	st := net.Stats()
	if st.Garbled == 0 {
		t.Fatal("nothing garbled at rate 1")
	}
	// The payload may or may not differ (the flipped byte can hit the
	// framing), but the packet must not vanish silently without being
	// counted.
	if st.Delivered+st.Lost+st.Blocked == 0 {
		t.Fatal("packet accounting lost a packet")
	}
	_ = lb
}

func TestStepGranularity(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 10})
	hits := 0
	net.At(time.Millisecond, func() { hits++ })
	net.At(2*time.Millisecond, func() { hits++ })
	if !net.Step() || hits != 1 {
		t.Fatalf("first step: hits=%d", hits)
	}
	if !net.Step() || hits != 2 {
		t.Fatalf("second step: hits=%d", hits)
	}
	if net.Step() {
		t.Fatal("step on empty queue reported work")
	}
}

func TestRealTimeCrashStopsTraffic(t *testing.T) {
	rt := netsim.NewRealTime(1, netsim.Link{})
	la := &rawLayer{}
	a := rt.NewEndpoint("a")
	if _, err := a.Join("g", core.StackSpec{func() core.Layer { return la }}, nil); err != nil {
		t.Fatal(err)
	}
	b := rt.NewEndpoint("b")
	lb := &rawLayer{}
	if _, err := b.Join("g", core.StackSpec{func() core.Layer { return lb }}, nil); err != nil {
		t.Fatal(err)
	}
	rt.Crash(b.ID())
	send(a, "into the void")
	time.Sleep(50 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatal("crashed real-time endpoint received traffic")
	}
	if rt.Now() <= 0 {
		t.Error("real-time clock not advancing")
	}
}

// TestReorderRuleInvertsOrder: a packet held by the reorder rule is
// overtaken by exactly ReorderDepth later departures — an explicit
// inversion no amount of jitter can guarantee.
func TestReorderRuleInvertsOrder(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 8})
	a, _ := attach(t, net, "a")
	ep, lb := attach(t, net, "b")
	// Hold everything sent while the rule is armed...
	net.SetLinkDirected(a.ID(), ep.ID(), netsim.Link{ReorderRate: 1, ReorderDepth: 2})
	send(a, "first")
	// ...then disarm it, so the followers depart normally and count
	// against the held packet's depth.
	net.At(time.Millisecond, func() { net.ClearLink(a.ID(), ep.ID()) })
	net.At(2*time.Millisecond, func() { send(a, "second") })
	net.At(3*time.Millisecond, func() { send(a, "third") })
	net.RunFor(time.Second)
	want := []string{"second", "third", "first"}
	if len(lb.got) != 3 {
		t.Fatalf("delivered %v, want 3 packets", lb.got)
	}
	for i, w := range want {
		if lb.got[i] != w {
			t.Fatalf("delivery order %v, want %v", lb.got, want)
		}
	}
	if st := net.Stats(); st.Reordered != 1 {
		t.Fatalf("Reordered = %d, want 1", st.Reordered)
	}
}

// TestReorderHoldReleasesOnQuietLink: with no follow-up traffic the
// hold backstop releases the packet, so the rule delays but never
// loses.
func TestReorderHoldReleasesOnQuietLink(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 9, DefaultLink: netsim.Link{
		ReorderRate: 1, ReorderDepth: 5, ReorderHold: 40 * time.Millisecond,
	}})
	a, _ := attach(t, net, "a")
	_, lb := attach(t, net, "b")
	send(a, "lonely")
	net.RunFor(30 * time.Millisecond)
	if len(lb.got) != 0 {
		t.Fatal("held packet delivered before the hold expired")
	}
	net.RunFor(20 * time.Millisecond)
	if len(lb.got) != 1 || lb.got[0] != "lonely" {
		t.Fatalf("after hold: got %v, want the released packet", lb.got)
	}
}

// TestBandwidthThrottledCounter: packets that queue behind earlier
// traffic on a bandwidth-capped link are counted, the first packet on
// an idle link is not.
func TestBandwidthThrottledCounter(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 10, DefaultLink: netsim.Link{Bandwidth: 1000}})
	a, _ := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	for i := 0; i < 5; i++ {
		// Unicast so only the a->b link carries the burst; a broadcast
		// would also queue on the self-delivery link and double the count.
		send(a, fmt.Sprintf("pkt%d", i), b.ID())
	}
	net.RunFor(time.Second)
	if len(lb.got) != 5 {
		t.Fatalf("delivered %d, want 5", len(lb.got))
	}
	st := net.Stats()
	if st.Throttled != 4 {
		t.Fatalf("Throttled = %d, want 4 (burst of 5, first finds the link idle)", st.Throttled)
	}
}

// TestReorderDeterministic: the reorder machinery draws from the same
// seeded rng as every other fault, so runs replay exactly.
func TestReorderDeterministic(t *testing.T) {
	run := func() ([]string, netsim.Stats) {
		net := netsim.New(netsim.Config{Seed: 77, DefaultLink: netsim.Link{
			Delay: time.Millisecond, ReorderRate: 0.4, ReorderDepth: 3,
			ReorderHold: 30 * time.Millisecond,
		}})
		a, _ := attach(t, net, "a")
		_, lb := attach(t, net, "b")
		for i := 0; i < 40; i++ {
			i := i
			net.At(time.Duration(i)*2*time.Millisecond, func() { send(a, fmt.Sprintf("m%02d", i)) })
		}
		net.RunFor(time.Second)
		return lb.got, net.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", st1, st2)
	}
	if st1.Reordered == 0 {
		t.Fatal("reorder rule never fired at rate 0.4 over 40 packets")
	}
	if fmt.Sprint(got1) != fmt.Sprint(got2) {
		t.Fatalf("delivery order diverged:\n%v\n%v", got1, got2)
	}
}

// TestXmitTime: the serialization arithmetic both rate rules share.
// Sub-nanosecond remainders truncate, zero-length packets are free.
func TestXmitTime(t *testing.T) {
	cases := []struct {
		name       string
		size, rate int
		want       time.Duration
	}{
		{"one second exactly", 1000, 1000, time.Second},
		{"zero-length packet", 0, 1000, 0},
		{"sub-nanosecond truncates", 1, 2_000_000_000, 0},
		{"just above a nanosecond", 3, 2_000_000_000, time.Nanosecond},
		{"packet bigger than a second of budget", 3000, 1000, 3 * time.Second},
		{"single byte at 1B/s", 1, 1, time.Second},
	}
	for _, c := range cases {
		if got := netsim.XmitTime(c.size, c.rate); got != c.want {
			t.Errorf("%s: XmitTime(%d, %d) = %v, want %v", c.name, c.size, c.rate, got, c.want)
		}
	}
}

// TestBucketAcquire: the busy-until horizon math — departures start at
// max(now, free), idle gaps don't accrue burst credit, and queued is
// reported exactly when the packet waited.
func TestBucketAcquire(t *testing.T) {
	cases := []struct {
		name       string
		now, free  time.Duration
		size, rate int
		wantFree   time.Duration
		wantQueued bool
	}{
		{"idle bucket", 0, 0, 500, 1000, 500 * time.Millisecond, false},
		{"queued behind backlog", 0, 200 * time.Millisecond, 500, 1000,
			700 * time.Millisecond, true},
		{"refill across a long idle gap", 10 * time.Second, time.Second, 500, 1000,
			10*time.Second + 500*time.Millisecond, false},
		{"horizon equal to now is not queued", time.Second, time.Second, 500, 1000,
			time.Second + 500*time.Millisecond, false},
		{"zero-length packet leaves horizon at depart", 0, 50 * time.Millisecond, 0, 1000,
			50 * time.Millisecond, true},
		{"budget smaller than one packet delays, never blocks", 0, 0, 4096, 1024,
			4 * time.Second, false},
	}
	for _, c := range cases {
		free, queued := netsim.BucketAcquire(c.now, c.free, c.size, c.rate)
		if free != c.wantFree || queued != c.wantQueued {
			t.Errorf("%s: BucketAcquire(%v, %v, %d, %d) = (%v, %v), want (%v, %v)",
				c.name, c.now, c.free, c.size, c.rate, free, queued, c.wantFree, c.wantQueued)
		}
	}
}

// TestBucketBacklog: backlog converts the busy-until horizon back to
// untransmitted bytes; drained and idle buckets report zero.
func TestBucketBacklog(t *testing.T) {
	cases := []struct {
		name      string
		now, free time.Duration
		rate      int
		want      int
	}{
		{"idle", time.Second, 0, 1000, 0},
		{"exactly drained", time.Second, time.Second, 1000, 0},
		{"half a second queued", 0, 500 * time.Millisecond, 1000, 500},
		{"sub-byte residue truncates", 0, time.Nanosecond, 1000, 0},
	}
	for _, c := range cases {
		if got := netsim.BucketBacklog(c.now, c.free, c.rate); got != c.want {
			t.Errorf("%s: BucketBacklog(%v, %v, %d) = %d, want %d",
				c.name, c.now, c.free, c.rate, got, c.want)
		}
	}
}

// TestEgressAcquire: the shared admission policy — pass-through for
// unbudgeted hosts and loopback, tail drop only against a nonempty
// backlog, and ledger outcomes matching what each fabric counts.
func TestEgressAcquire(t *testing.T) {
	from := core.EndpointID{Site: "a", Birth: 1}
	dst := core.EndpointID{Site: "b", Birth: 2}
	budget := netsim.Host{EgressBudget: 1000, EgressQueue: 600}
	cases := []struct {
		name      string
		h         netsim.Host
		from, dst core.EndpointID
		now, free time.Duration
		size      int
		wantFree  time.Duration
		wantClear time.Duration
		wantOut   netsim.EgressOutcome
	}{
		{"no budget passes untouched", netsim.Host{}, from, dst,
			0, 700 * time.Millisecond, 500, 700 * time.Millisecond, 0, netsim.EgressPass},
		{"loopback exempt even with backlog", budget, from, from,
			0, 700 * time.Millisecond, 500, 700 * time.Millisecond, 0, netsim.EgressPass},
		{"idle bucket grants", budget, from, dst,
			0, 0, 500, 500 * time.Millisecond, 500 * time.Millisecond, netsim.EgressGranted},
		{"backlog within queue congests", budget, from, dst,
			0, 100 * time.Millisecond, 500, 600 * time.Millisecond,
			600 * time.Millisecond, netsim.EgressQueued},
		{"backlog past queue drops", budget, from, dst,
			0, 500 * time.Millisecond, 500, 500 * time.Millisecond, 0, netsim.EgressDropped},
		{"empty backlog always admits oversized packet", netsim.Host{EgressBudget: 100, EgressQueue: 10},
			from, dst, 0, 0, 4096, 40960 * time.Millisecond,
			40960 * time.Millisecond, netsim.EgressGranted},
		{"idle gap drains the backlog", budget, from, dst,
			10 * time.Second, time.Second, 500,
			10*time.Second + 500*time.Millisecond,
			10*time.Second + 500*time.Millisecond, netsim.EgressGranted},
	}
	for _, c := range cases {
		free, clear, out := netsim.EgressAcquire(c.h, c.from, c.dst, c.now, c.free, c.size)
		if free != c.wantFree || clear != c.wantClear || out != c.wantOut {
			t.Errorf("%s: EgressAcquire = (%v, %v, %d), want (%v, %v, %d)",
				c.name, free, clear, out, c.wantFree, c.wantClear, c.wantOut)
		}
	}
}

// TestEgressBudgetSharedAcrossLinks: the host bucket is one bucket for
// all destinations — a burst fanned out to two peers queues behind
// itself even though each directed link is idle, and the Congested
// ledger counts every packet that waited.
func TestEgressBudgetSharedAcrossLinks(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 3})
	a, _ := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	c, lc := attach(t, net, "c")
	net.SetHost(a.ID(), netsim.Host{EgressBudget: 1000})
	for i := 0; i < 3; i++ {
		send(a, fmt.Sprintf("to-b%d", i), b.ID())
		send(a, fmt.Sprintf("to-c%d", i), c.ID())
	}
	net.RunFor(time.Minute)
	if len(lb.got) != 3 || len(lc.got) != 3 {
		t.Fatalf("delivered b=%d c=%d, want 3 each", len(lb.got), len(lc.got))
	}
	st := net.Stats()
	if st.Congested != 5 {
		t.Fatalf("Congested = %d, want 5 (burst of 6 across two links, first finds the host idle)", st.Congested)
	}
	if st.Throttled != 0 {
		t.Fatalf("Throttled = %d, want 0 (no link has a bandwidth cap)", st.Throttled)
	}
	if st.CollapseDropped != 0 {
		t.Fatalf("CollapseDropped = %d, want 0 (default queue absorbs the burst)", st.CollapseDropped)
	}
}

// TestEgressQueueOverflowDrops: a bounded egress queue turns sustained
// overload into CollapseDropped losses — but never blackholes: the
// packet that finds the backlog empty is always admitted.
func TestEgressQueueOverflowDrops(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 4})
	a, _ := attach(t, net, "a")
	b, lb := attach(t, net, "b")
	// ~5B/packet payload; budget drains 100 B/s, queue holds ~2 packets.
	net.SetHost(a.ID(), netsim.Host{EgressBudget: 100, EgressQueue: 60})
	for i := 0; i < 10; i++ {
		send(a, fmt.Sprintf("pkt%d", i), b.ID())
	}
	net.RunFor(time.Minute)
	st := net.Stats()
	if st.CollapseDropped == 0 {
		t.Fatal("queue overflow never dropped: CollapseDropped = 0")
	}
	if len(lb.got) == 0 {
		t.Fatal("bounded queue blackholed the link: nothing delivered")
	}
	if len(lb.got)+st.CollapseDropped != 10 {
		t.Fatalf("delivered %d + dropped %d != 10 sent", len(lb.got), st.CollapseDropped)
	}
	// ClearHost lifts the budget: traffic flows freely again.
	net.ClearHost(a.ID())
	send(a, "after", b.ID())
	net.RunFor(time.Second)
	if got := lb.got[len(lb.got)-1]; got != "after" {
		t.Fatalf("after ClearHost, last delivery = %q, want %q", got, "after")
	}
	if post := net.Stats(); post.CollapseDropped != st.CollapseDropped {
		t.Fatalf("ClearHost did not lift the budget: drops grew %d -> %d",
			st.CollapseDropped, post.CollapseDropped)
	}
}

// TestEgressLoopbackExempt: a broadcast's self-copy never crosses the
// NIC, so it is delivered instantly and untouched by the egress
// budget.
func TestEgressLoopbackExempt(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 5})
	a, la := attach(t, net, "a")
	_, lb := attach(t, net, "b")
	net.SetHost(a.ID(), netsim.Host{EgressBudget: 10, EgressQueue: 20})
	for i := 0; i < 4; i++ {
		send(a, fmt.Sprintf("m%d", i)) // broadcast: self + b
	}
	net.RunFor(10 * time.Second)
	if len(la.got) != 4 {
		t.Fatalf("self-copies delivered %d, want 4 (loopback is budget-exempt)", len(la.got))
	}
	st := net.Stats()
	if len(lb.got)+st.CollapseDropped != 4 {
		t.Fatalf("b got %d + dropped %d != 4 (budget applies to the wire copy only)",
			len(lb.got), st.CollapseDropped)
	}
}

// TestEgressDeterministic: the egress machinery keys off virtual time
// and seeded draws only, so runs replay exactly — counters included.
func TestEgressDeterministic(t *testing.T) {
	run := func() ([]string, netsim.Stats) {
		net := netsim.New(netsim.Config{Seed: 42, DefaultLink: netsim.Link{
			Delay: time.Millisecond, Jitter: 2 * time.Millisecond,
		}})
		a, _ := attach(t, net, "a")
		b, lb := attach(t, net, "b")
		net.SetHost(a.ID(), netsim.Host{EgressBudget: 200, EgressQueue: 40})
		for i := 0; i < 30; i++ {
			i := i
			net.At(time.Duration(i)*10*time.Millisecond, func() {
				send(a, fmt.Sprintf("m%02d", i), b.ID())
			})
		}
		net.RunFor(time.Minute)
		return lb.got, net.Stats()
	}
	got1, st1 := run()
	got2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", st1, st2)
	}
	if st1.Congested == 0 || st1.CollapseDropped == 0 {
		t.Fatalf("squeeze never bit: Congested=%d CollapseDropped=%d", st1.Congested, st1.CollapseDropped)
	}
	if fmt.Sprint(got1) != fmt.Sprint(got2) {
		t.Fatalf("deliveries diverged:\n%v\n%v", got1, got2)
	}
}
