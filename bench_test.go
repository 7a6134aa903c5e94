// Package horus_test holds the §10 performance experiments as Go
// benchmarks — one per claim in the paper's "Performance and Overhead"
// section. Run with:
//
//	go test -bench=. -benchmem .
//
// EXPERIMENTS.md records representative results next to the paper's
// numbers. Protocol-level experiments (latency under loss, stability
// convergence, view-change cost) live in cmd/horus-bench, where
// virtual time makes them deterministic.
package horus_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"horus/internal/benchkit"
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/sched"
	"horus/internal/stackreg"
)

// The shared benchmark bodies — layer crossing, FRAG costs, the
// SWITCH quiesce pause — live in internal/benchkit so cmd/horus-bench
// -json measures exactly this code; nopLayer/sinkLayer ride along as
// benchkit.NopLayer/SinkLayer.
type (
	nopLayer    = benchkit.NopLayer
	opaqueLayer = benchkit.OpaqueNopLayer
	sinkLayer   = benchkit.SinkLayer
)

// BenchmarkLayerCrossing measures the cost of pushing a cast through k
// no-op layers — the paper's claim that "the cost of a layer can be as
// low as just a few instructions at runtime".
func BenchmarkLayerCrossing(b *testing.B) {
	for _, depth := range benchkit.LayerCrossingDepths {
		b.Run(fmt.Sprintf("depth=%d", depth), benchkit.LayerCrossing(depth))
	}
}

// BenchmarkCompiledCast measures the §10 compiled send plan against
// the per-layer reference path on the same stack, with pooled message
// buffers; the fast variant must report zero allocations per cast.
func BenchmarkCompiledCast(b *testing.B) {
	b.Run("path=fast", benchkit.CompiledCast(true))
	b.Run("path=ref", benchkit.CompiledCast(false))
}

// BenchmarkFragOverhead reproduces the paper's §10 measurement: "the
// overhead of the fragmentation/reassembly layer FRAG (which only
// needs one bit of header space) adds about 50 µsecs to the one-way
// latency" on a 1994 Sparc 10. The cost is the marshal/unmarshal round
// trip every message pays; modern hardware shrinks the constant, the
// shape (a per-message copy proportional to size) remains.
func BenchmarkFragOverhead(b *testing.B) {
	for _, size := range benchkit.FragOverheadSizes {
		for _, withFrag := range []bool{false, true} {
			label := "nofrag"
			if withFrag {
				label = "frag"
			}
			b.Run(fmt.Sprintf("size=%d/%s", size, label), benchkit.FragOverhead(size, withFrag))
		}
	}
}

// BenchmarkFragRoundTrip measures the full split+reassemble path, the
// closest analogue of the paper's one-way latency number.
func BenchmarkFragRoundTrip(b *testing.B) {
	for _, size := range benchkit.FragRoundTripSizes {
		b.Run(fmt.Sprintf("size=%d", size), benchkit.FragRoundTrip(size))
	}
}

// BenchmarkSwitchQuiesce measures the delivery pause of a run-time
// stack reconfiguration — last cast delivered before the flush-quiesce
// drains the old segment to first cast after RESUME — under a
// continuous workload on a 3-member group. The pause is virtual time,
// reported as vpause-ns/op; see benchkit.SwitchQuiesce.
func BenchmarkSwitchQuiesce(b *testing.B) {
	b.Run("members=3", benchkit.SwitchQuiesce(3))
}

// BenchmarkDeliver measures the per-packet receive path: one NAK:COM
// data or status packet through Endpoint.Deliver into a 10-member
// group; see benchkit.Deliver.
func BenchmarkDeliver(b *testing.B) {
	for _, kind := range benchkit.DeliverKinds {
		b.Run("kind="+kind, benchkit.Deliver(kind))
	}
}

// BenchmarkLoadTick is the cluster-scale fabric number: one broadcast
// in each of 100 ten-member groups, delivery included; see
// benchkit.LoadTick.
func BenchmarkLoadTick(b *testing.B) { benchkit.LoadTick(b) }

// BenchmarkHeaderPushPop measures the §10 item 3 costs: six layers
// pushing word-aligned headers and popping them on delivery, versus
// the proposed precomputed compact header (BenchmarkCompactHeader).
func BenchmarkHeaderPushPop(b *testing.B) {
	sizes := []int{1, 4, 8, 2, 4, 1} // header bytes of six hypothetical layers
	b.Run("aligned", func(b *testing.B) {
		hdr := make([]byte, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := message.New(nil)
			for _, s := range sizes {
				m.PushAligned(hdr[:s])
			}
			for j := len(sizes) - 1; j >= 0; j-- {
				m.PopAligned(sizes[j])
			}
		}
	})
	b.Run("unaligned", func(b *testing.B) {
		hdr := make([]byte, 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := message.New(nil)
			for _, s := range sizes {
				m.Push(hdr[:s])
			}
			for j := len(sizes) - 1; j >= 0; j-- {
				m.Pop(sizes[j])
			}
		}
	})
}

// BenchmarkCompactHeader measures the paper's proposed fix: a single
// precomputed bit-packed header written and read once per message.
func BenchmarkCompactHeader(b *testing.B) {
	layout, err := message.NewLayout([]message.Field{
		{Layer: "FRAG", Name: "more", Bits: 1},
		{Layer: "NAK", Name: "seq", Bits: 32},
		{Layer: "NAK", Name: "kind", Bits: 3},
		{Layer: "MBRSHIP", Name: "epoch", Bits: 16},
		{Layer: "MBRSHIP", Name: "seq", Bits: 32},
		{Layer: "TOTAL", Name: "ord", Bits: 32},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := message.New(nil)
		h := message.NewCompactHeader(layout)
		h.Set(0, 1)
		h.Set(1, uint64(i))
		h.Set(3, 7)
		h.Set(5, uint64(i))
		h.AttachTo(m)
		g := message.DetachFrom(m, layout)
		if g.Get(0) != 1 {
			b.Fatal("corrupt")
		}
	}
}

// BenchmarkWireBytesAlignedVsCompact reports the space side of §10
// item 3 as custom metrics.
func BenchmarkWireBytesAlignedVsCompact(b *testing.B) {
	sizes := []int{1, 4, 8, 2, 4, 1}
	aligned := 0
	for _, s := range sizes {
		aligned += (s + 3) / 4 * 4
	}
	layout, err := message.NewLayout([]message.Field{
		{Layer: "A", Name: "f", Bits: 1},
		{Layer: "B", Name: "f", Bits: 32},
		{Layer: "C", Name: "f", Bits: 3},
		{Layer: "D", Name: "f", Bits: 16},
		{Layer: "E", Name: "f", Bits: 32},
		{Layer: "F", Name: "f", Bits: 32},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(aligned), "aligned-bytes")
	b.ReportMetric(float64(layout.Size()), "compact-bytes")
	for i := 0; i < b.N; i++ {
		_ = layout.Size()
	}
}

// BenchmarkThreadedVsEventQueue is §10 item 2: locking a shared layer
// from concurrent threads versus posting to a single-threaded event
// queue ("concurrency within a stack does not lead to significant
// gains").
func BenchmarkThreadedVsEventQueue(b *testing.B) {
	work := func(state *int) { *state++ }
	b.Run("monitor-4goroutines", func(b *testing.B) {
		var m sched.Monitor
		state := 0
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m.Do(func() { work(&state) })
				}
			}(b.N / 4)
		}
		wg.Wait()
	})
	b.Run("eventqueue-4goroutines", func(b *testing.B) {
		var q sched.Queue
		state := 0
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					q.Post(func() { work(&state) })
				}
			}(b.N / 4)
		}
		wg.Wait()
	})
	b.Run("eventqueue-single", func(b *testing.B) {
		var q sched.Queue
		state := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Post(func() { work(&state) })
		}
	})
}

// BenchmarkMinimalVsFullStack is the "an application pays only for
// properties it uses" claim: the cost of a cast through COM alone
// versus the full §7 stack plus security layers, on quiet simulated
// networks.
func BenchmarkMinimalVsFullStack(b *testing.B) {
	stacks := []string{
		"COM",
		"NAK:COM",
		"FRAG:NAK:COM",
		"MBRSHIP:FRAG:NAK:COM",
		"GKEY:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:COM",
		"TOTAL:MBRSHIP:FRAG:NAK:SIGN:CHKSUM:COM",
	}
	for _, desc := range stacks {
		b.Run(desc, func(b *testing.B) {
			net := netsim.New(netsim.Config{Seed: 1})
			spec, err := stackreg.Build(desc, property.P1)
			if err != nil {
				b.Fatal(err)
			}
			ep := net.NewEndpoint("a")
			g, err := ep.Join("bench", spec, nil)
			if err != nil {
				b.Fatal(err)
			}
			needsView := true
			for _, name := range property.ParseStack(desc) {
				if name == "MBRSHIP" {
					needsView = false
				}
			}
			if needsView {
				g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "bench",
					[]core.EndpointID{ep.ID()}))
			}
			net.RunFor(10 * time.Millisecond)
			body := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Cast(message.New(body))
				if i%64 == 0 {
					// Drain deliveries and timers so buffers stay flat.
					net.RunFor(time.Millisecond)
				}
			}
		})
	}
}

// BenchmarkNakThroughput drives the reliable FIFO path end to end
// between two simulated endpoints.
func BenchmarkNakThroughput(b *testing.B) {
	net := netsim.New(netsim.Config{Seed: 1})
	mk := func() core.StackSpec {
		return core.StackSpec{nak.NewWith(nak.WithSuspectAfter(0)), com.New}
	}
	epA := net.NewEndpoint("a")
	epB := net.NewEndpoint("b")
	delivered := 0
	ga, err := epA.Join("bench", mk(), nil)
	if err != nil {
		b.Fatal(err)
	}
	gb, err := epB.Join("bench", mk(), func(ev *core.Event) {
		if ev.Type == core.UCast {
			delivered++
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: epA.ID()}, "bench",
		[]core.EndpointID{epA.ID(), epB.ID()})
	ga.InstallView(view)
	gb.InstallView(view)
	body := make([]byte, 256)
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ga.Cast(message.New(body))
		if i%128 == 0 {
			net.RunFor(time.Millisecond)
		}
	}
	net.RunFor(time.Second)
	if delivered < b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkStabilityMatrix measures the bookkeeping behind STABLE
// upcalls.
func BenchmarkStabilityMatrix(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			members := make([]core.EndpointID, n)
			for i := range members {
				members[i] = core.EndpointID{Site: fmt.Sprintf("m%d", i), Birth: uint64(i + 1)}
			}
			m := core.NewStabilityMatrix(members)
			o := core.NewStabilityMatrix(members)
			for i, a := range members {
				for j, bb := range members {
					o.Set(a, bb, uint64(i*j))
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MergeFrom(o)
				_ = m.MinStable(members[0])
			}
		})
	}
}

// BenchmarkStackBuild measures run-time composition: instantiating and
// wiring the full §7 stack. The x-kernel configured protocol graphs at
// compile time; Horus's claim is that run-time composition is cheap
// enough to do per join (§12).
func BenchmarkStackBuild(b *testing.B) {
	net := netsim.New(netsim.Config{Seed: 1})
	spec, err := stackreg.Build("TOTAL:MBRSHIP:FRAG:NAK:COM", property.P1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep := net.NewEndpoint("x")
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		_ = g
		ep.Destroy()
	}
}

// BenchmarkSynthesize measures the §6 minimal-stack search: Dijkstra
// over property sets, the cost of "building a single protocol for the
// particular application on the fly".
func BenchmarkSynthesize(b *testing.B) {
	goals := []property.Set{
		property.P6,
		property.P7,
		property.P5 | property.P14,
		property.P6 | property.P7 | property.P16,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := property.Synthesize(property.P1, goals[i%len(goals)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDerive measures well-formedness checking of a named stack.
func BenchmarkDerive(b *testing.B) {
	stack := property.ParseStack("TOTAL:MBRSHIP:FRAG:NAK:SIGN:CHKSUM:COM")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := property.Derive(property.P1, stack); err != nil {
			b.Fatal(err)
		}
	}
}

// transparentLayer declares every event kind transparent except casts:
// with skip tables, non-cast traffic never invokes it at all.
type transparentLayer struct{ core.Base }

func (l *transparentLayer) Name() string { return "XPARENT" }
func (l *transparentLayer) Transparent(core.EventType, bool) bool {
	return true
}

// BenchmarkLayerSkipping is the §10 item 1 ablation: "we will avoid
// unnecessary invocations of a layer, skipping layers that take no
// action on the way down or up." A 32-deep stack of pass-through
// layers is traversed by a control downcall, with and without
// transparency declared.
func BenchmarkLayerSkipping(b *testing.B) {
	build := func(transparent bool) *core.Group {
		net := netsim.New(netsim.Config{Seed: 1})
		ep := net.NewEndpoint("a")
		spec := make(core.StackSpec, 0, 33)
		for i := 0; i < 32; i++ {
			if transparent {
				spec = append(spec, func() core.Layer { return &transparentLayer{} })
			} else {
				spec = append(spec, func() core.Layer { return &opaqueLayer{} })
			}
		}
		sink := &sinkLayer{}
		spec = append(spec, func() core.Layer { return sink })
		g, err := ep.Join("bench", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	ev := &core.Event{Type: core.DAck}
	b.Run("opaque-32", func(b *testing.B) {
		g := build(false)
		b.ReportAllocs()
		g.Endpoint().Do(func() {
			for i := 0; i < b.N; i++ {
				g.Stack().Down(ev)
			}
		})
	})
	b.Run("transparent-32", func(b *testing.B) {
		g := build(true)
		b.ReportAllocs()
		g.Endpoint().Do(func() {
			for i := 0; i < b.N; i++ {
				g.Stack().Down(ev)
			}
		})
	})
}
