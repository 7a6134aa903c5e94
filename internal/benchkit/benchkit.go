// Package benchkit holds the benchmark bodies shared by the root
// `go test -bench` suite and cmd/horus-bench's -json mode: both must
// measure the same code, so the bodies live here as ordinary functions
// of *testing.B and each front end decides only how to invoke them
// (b.Run sub-benchmarks versus testing.Benchmark for machine-readable
// output). Importing testing outside a _test.go file is deliberate —
// testing.Benchmark is the supported way to run a benchmark from a
// binary. The package also owns Snapshot, the one JSON schema that
// horus-bench and horus-load write and gate against.
package benchkit

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/chksum"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/switchp"
	"horus/internal/layers/total"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
)

// Canonical sweep parameters, shared by the -bench suite and the
// -json emitter so the two report the same benchmark names.
var (
	LayerCrossingDepths = []int{0, 1, 2, 4, 8, 16, 32}
	FragOverheadSizes   = []int{64, 1024, 8192, 65536}
	FragRoundTripSizes  = []int{1024, 8192, 65536}
)

// NopLayer passes everything through: the cheapest possible layer,
// isolating the cost of one boundary crossing (§10 item 1: "an
// indirect procedure call each time a layer boundary is crossed").
type NopLayer struct{ core.Base }

// Name implements core.Layer.
func (n *NopLayer) Name() string { return "NOP" }

// Transparent implements core.Skipper: a no-op layer is by definition
// transparent to every event in both directions, so the stack's skip
// tables route traffic straight past it. This is what the paper's §10
// item 1 promises for layers that take no action — the boundary
// crossing disappears entirely rather than costing an indirect call.
func (n *NopLayer) Transparent(t core.EventType, down bool) bool { return true }

// OpaqueNopLayer is a pass-through layer that does NOT declare
// transparency: every event pays the full indirect-call boundary
// crossing. It is the control in the layer-skipping and layer-crossing
// ablations — what every no-op layer cost before §10 item 1.
type OpaqueNopLayer struct{ core.Base }

// Name implements core.Layer.
func (o *OpaqueNopLayer) Name() string { return "ONOP" }

// SinkLayer terminates the stack without a network, counting what
// reaches it.
type SinkLayer struct {
	core.Base
	Count int
}

// Name implements core.Layer.
func (s *SinkLayer) Name() string { return "SINK" }

// Down implements core.Layer.
func (s *SinkLayer) Down(ev *core.Event) { s.Count++ }

// loopLayer reflects downcalls back up, as if the network delivered
// them instantly.
type loopLayer struct {
	core.Base
	src core.EndpointID
}

func (l *loopLayer) Name() string { return "LOOP" }
func (l *loopLayer) Down(ev *core.Event) {
	if ev.Type != core.DCast && ev.Type != core.DSend {
		return
	}
	up := core.UCast
	if ev.Type == core.DSend {
		up = core.USend
	}
	l.Ctx.Up(&core.Event{Type: up, Msg: ev.Msg, Source: l.src})
}

// countLayer counts CAST deliveries reaching the top.
type countLayer struct {
	core.Base
	count *int
}

func (c *countLayer) Name() string { return "COUNT" }
func (c *countLayer) Up(ev *core.Event) {
	if ev.Type == core.UCast {
		*c.count++
	}
}

// LayerCrossing measures the cost of pushing a cast through depth
// no-op layers — the paper's claim that "the cost of a layer can be as
// low as just a few instructions at runtime". Since the no-op layers
// declare transparency, the skip tables collapse the traversal to a
// single jump regardless of depth; the pre-§10 per-boundary cost is
// pinned by BenchmarkLayerSkipping's opaque control.
func LayerCrossing(depth int) func(*testing.B) {
	return func(b *testing.B) {
		net := netsim.New(netsim.Config{Seed: 1})
		ep := net.NewEndpoint("a")
		spec := make(core.StackSpec, 0, depth+1)
		for i := 0; i < depth; i++ {
			spec = append(spec, func() core.Layer { return &NopLayer{} })
		}
		sink := &SinkLayer{}
		spec = append(spec, func() core.Layer { return sink })
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		msg := message.New(make([]byte, 64))
		ev := core.NewCast(msg)
		b.ReportAllocs()
		b.ResetTimer()
		ep.Do(func() {
			for i := 0; i < b.N; i++ {
				g.Stack().Down(ev)
			}
		})
		if sink.Count != b.N {
			b.Fatalf("sink saw %d of %d", sink.Count, b.N)
		}
	}
}

// nullTransport swallows wire bytes: it isolates stack traversal cost
// from fabric cost (netsim allocates per delivered packet, which would
// mask the compiled path's zero-allocation claim).
type nullTransport struct{}

func (nullTransport) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
}
func (nullTransport) SetTimer(d time.Duration, fn func()) (cancel func()) { return func() {} }
func (nullTransport) Now() time.Duration                                  { return 0 }

// CompiledCast measures the §10 compiled send plan end to end on a
// fully compilable stack (HBEAT:CHKSUM:COM) over a null transport,
// with pooled message buffers: the fast variant must run at zero
// allocations per cast in steady state, the ref variant pins the
// per-layer push/pop path for comparison. Both paths release the
// pooled message once its wire image has left.
func CompiledCast(fast bool) func(*testing.B) {
	return func(b *testing.B) {
		ep := core.NewEndpoint(core.EndpointID{Site: "bench", Birth: 1}, nullTransport{})
		ep.SetFastPath(fast)
		spec := core.StackSpec{hbeat.New, chksum.New, com.New}
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !g.Stack().HasCastPlan() {
			b.Fatal("stack did not compile a cast plan")
		}
		body := make([]byte, 64)
		ev := &core.Event{Type: core.DCast}
		b.ReportAllocs()
		b.ResetTimer()
		ep.Do(func() {
			for i := 0; i < b.N; i++ {
				ev.Msg = message.Get(body)
				g.Stack().Down(ev)
			}
		})
		b.StopTimer()
		stats := g.Stack().PlanStats()
		if fast && stats.Fast != uint64(b.N) {
			b.Fatalf("fast path ran %d of %d casts", stats.Fast, b.N)
		}
		if !fast && stats.Fast != 0 {
			b.Fatalf("reference run leaked %d casts onto the fast path", stats.Fast)
		}
	}
}

// FragOverhead measures the marshal cost FRAG adds to the send path
// (§10: "about 50 µsecs" on 1994 hardware); withFrag false is the
// baseline of the bare stack.
func FragOverhead(size int, withFrag bool) func(*testing.B) {
	return func(b *testing.B) {
		net := netsim.New(netsim.Config{Seed: 1})
		ep := net.NewEndpoint("a")
		sink := &SinkLayer{}
		spec := core.StackSpec{}
		if withFrag {
			spec = append(spec, frag.NewWithSize(1400))
		}
		spec = append(spec, func() core.Layer { return sink })
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		body := make([]byte, size)
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		ep.Do(func() {
			for i := 0; i < b.N; i++ {
				g.Stack().Down(core.NewCast(message.New(body)))
			}
		})
	}
}

// FragRoundTrip measures the full split+reassemble path, the closest
// analogue of the paper's one-way FRAG latency number.
func FragRoundTrip(size int) func(*testing.B) {
	return func(b *testing.B) {
		net := netsim.New(netsim.Config{Seed: 1})
		ep := net.NewEndpoint("a")
		// Loopback: what FRAG sends down is fed back up.
		delivered := 0
		loop := &loopLayer{}
		spec := core.StackSpec{
			func() core.Layer { return &countLayer{count: &delivered} },
			frag.NewWithSize(1400),
			func() core.Layer { return loop },
		}
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		body := make([]byte, size)
		b.SetBytes(int64(size))
		b.ReportAllocs()
		b.ResetTimer()
		ep.Do(func() {
			for i := 0; i < b.N; i++ {
				g.Stack().Down(core.NewCast(message.New(body)))
			}
		})
		if delivered != b.N {
			b.Fatalf("delivered %d of %d", delivered, b.N)
		}
	}
}

// SwitchQuiesce measures the delivery pause a run-time stack
// reconfiguration imposes: under a continuous cast workload each
// iteration flips the SWITCH-managed segment (FIFO→TOTAL, then back)
// and records the gap in member 0's delivery stream that straddles the
// commit — from the last cast delivered before the quiesce drained the
// old segment to the first cast the reopened gate delivers after
// RESUME. The gap is virtual time, reported as "vpause-ns/op"
// (deterministic across runs); the wall-clock ns/op is just the cost
// of simulating the cycle.
func SwitchQuiesce(members int) func(*testing.B) {
	return func(b *testing.B) {
		net := netsim.New(netsim.Config{Seed: 7, DefaultLink: netsim.Link{Delay: time.Millisecond}})
		resolver := func(name string) (core.Factory, bool) {
			if name == "TOTAL" {
				return total.NewWith(total.WithRequestRetry(60 * time.Millisecond)), true
			}
			return nil, false
		}
		mk := func() core.StackSpec {
			return core.StackSpec{
				switchp.NewWith(
					switchp.WithResolver(resolver),
					switchp.WithOpaqueBase(property.SegmentBase),
				),
				mbrship.NewWith(
					mbrship.WithGossipPeriod(40*time.Millisecond),
					mbrship.WithFlushTimeout(400*time.Millisecond),
				),
				nak.NewWith(
					nak.WithStatusPeriod(20*time.Millisecond),
					nak.WithNakResend(15*time.Millisecond),
					nak.WithSuspectAfter(0),
				),
				com.New,
			}
		}

		eps := make([]*core.Endpoint, members)
		groups := make([]*core.Group, members)
		views := make([]*core.View, members)
		var deliveries []time.Duration // member 0's delivery instants
		var commits []time.Duration    // member 0's committed-switch instants
		for i := 0; i < members; i++ {
			i := i
			eps[i] = net.NewEndpoint(fmt.Sprintf("n%02d", i))
			g, err := eps[i].Join("bench", mk(), func(ev *core.Event) {
				switch ev.Type {
				case core.UView:
					views[i] = ev.View
				case core.UCast:
					if i == 0 {
						deliveries = append(deliveries, net.Now())
					}
				case core.USwitch:
					if i == 0 && strings.HasPrefix(ev.Reason, "committed") {
						commits = append(commits, net.Now())
					}
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			groups[i] = g
		}
		for i := 1; i < members; i++ {
			i := i
			var tryMerge func()
			tryMerge = func() {
				if views[i] != nil && views[i].Size() >= members {
					return
				}
				groups[i].Merge(eps[0].ID())
				net.At(net.Now()+150*time.Millisecond, tryMerge)
			}
			net.At(net.Now()+time.Duration(i)*50*time.Millisecond, tryMerge)
		}
		net.RunFor(time.Duration(members)*250*time.Millisecond + 2*time.Second)
		for i := 0; i < members; i++ {
			if views[i] == nil || views[i].Size() != members {
				b.Fatalf("group formation failed at member %d", i)
			}
		}

		// Continuous workload: every member casts every 2ms, forever.
		seq := 0
		var tick func()
		tick = func() {
			seq++
			body := []byte(fmt.Sprintf("m%06d", seq))
			for _, g := range groups {
				g.Cast(message.New(body))
			}
			net.At(net.Now()+2*time.Millisecond, tick)
		}
		net.At(net.Now()+2*time.Millisecond, tick)
		net.RunFor(100 * time.Millisecond)

		sw := groups[0].Focus("SWITCH").(*switchp.Switch)
		target := "TOTAL"
		var totalPause time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			before := len(commits)
			eps[0].Do(func() {
				if err := sw.RequestSwitch(target); err != nil {
					b.Fatalf("request %q: %v", target, err)
				}
			})
			deadline := net.Now() + 5*time.Second
			for len(commits) == before && net.Now() < deadline {
				net.RunFor(5 * time.Millisecond)
			}
			if len(commits) == before {
				b.Fatalf("switch to %q never committed", target)
			}
			ct := commits[len(commits)-1]
			// Run until a delivery lands after the commit, then find the
			// gap straddling it.
			for len(deliveries) == 0 || deliveries[len(deliveries)-1] < ct {
				net.RunFor(5 * time.Millisecond)
			}
			// The commit is near the end of the stream: walk backward to
			// the boundary instead of rescanning the whole history.
			j := len(deliveries) - 1
			for j > 0 && deliveries[j-1] >= ct {
				j--
			}
			if j == 0 {
				b.Fatal("no delivery recorded before the commit")
			}
			lastBefore, firstAfter := deliveries[j-1], deliveries[j]
			totalPause += firstAfter - lastBefore
			if target == "TOTAL" {
				target = ""
			} else {
				target = "TOTAL"
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(totalPause.Nanoseconds())/float64(b.N), "vpause-ns/op")
	}
}
