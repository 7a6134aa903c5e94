package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"horus/internal/benchkit"
	"horus/internal/core"
	"horus/internal/layertest"
	"horus/internal/message"
	"horus/internal/stackreg"
)

// The per-layer sandwich sweep: the paper's §10 table for the layers of
// the four workload stacks, at the workloads' body sizes.
//
//	PERFBENCH_SANDWICH=1 go test -run TestSandwichSweep -v .
//
// For each layer L the table gives absolute per-cast costs (ns and
// allocations), next to the baseline row they compare with:
//   - Down fast / Down ref: Group.Cast on a one-endpoint "L:COM" stack
//     on the compiled plan and on the reference path, against COM's row
//     ("COM" alone); the wire difference is L's header bytes per cast.
//   - Down sandwich / Up sandwich: L between the two capture layers of
//     internal/layertest, against the same sandwich around an opaque
//     pass-through layer. COM's own rows include the netsim send.
//
// The receive path has no compiled form, so Up is measured once.

var sandwichLayers = []string{"COM", "NAK", "FRAG", "TOTAL", "MBRSHIP", "HBEAT"}

var sandwichBodies = []int{64, 4096}

// cost is one benchmark's per-operation figures.
type cost struct{ ns, allocs float64 }

func (c cost) String() string { return fmt.Sprintf("%.0f ns / %.1f", c.ns, c.allocs) }

// benchRuns is how many times each cell is measured; the fastest run
// is kept, since interference on a shared host only ever adds time.
const benchRuns = 5

func bench(f func(b *testing.B)) cost {
	best := cost{ns: -1}
	for i := 0; i < benchRuns; i++ {
		r := testing.Benchmark(f)
		if c := (cost{float64(r.NsPerOp()), float64(r.AllocsPerOp())}); best.ns < 0 || c.ns < best.ns {
			best = c
		}
	}
	return best
}

var peer = layertest.ID("peer", 2)

// sandwich builds a layertest harness around the named layer (or the
// opaque pass-through baseline when name is ""), with a two-member view
// installed where the layer takes views from above.
func sandwich(t *testing.T, name string) *layertest.Harness {
	f := func() core.Layer { return &benchkit.OpaqueNopLayer{} }
	if name != "" {
		f = stackreg.Registry()[name]
	}
	h := layertest.New(t, f)
	if name == "MBRSHIP" {
		h.Run(0) // let it install its own singleton view
	} else {
		h.InstallView(h.Self(), peer)
	}
	return h
}

// downRef is the reference-path cost of one cast through the sandwich.
func downRef(t *testing.T, name string, body int) cost {
	return bench(func(b *testing.B) {
		h := sandwich(t, name)
		payload := make([]byte, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.InjectDown(core.NewCast(message.New(payload)))
			if i%1024 == 1023 {
				b.StopTimer()
				h.Net.RunFor(0)
				h.Reset()
				b.StartTimer()
			}
		}
	})
}

// upRef is the reference-path cost of delivering one cast from peer up
// through the sandwich. The inputs are the layer's own Down output,
// generated beforehand by a sender sandwich.
func upRef(t *testing.T, name string, body int) cost {
	return bench(func(b *testing.B) {
		tx, rx := sandwich(t, name), sandwich(t, name)
		var wires [][]byte
		if name == "COM" {
			tx.EP.SetWireTap(func(_ []core.EndpointID, w []byte) { wires = append(wires, append([]byte(nil), w...)) })
		}
		payload := make([]byte, body)
		tx.Reset()
		for i := 0; i < b.N; i++ {
			tx.InjectDown(core.NewCast(message.New(payload)))
		}
		casts := tx.DownOfType(core.DCast)
		per := (len(casts) + len(wires)) / b.N // packets per cast
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < per; k++ {
				if name == "COM" {
					m, err := message.Unmarshal(wires[i*per+k])
					if err != nil {
						b.Fatal(err)
					}
					rx.InjectUp(&core.Event{Type: core.UPacket, Msg: m})
					continue
				}
				rx.InjectUp(&core.Event{Type: core.UCast, Msg: casts[i*per+k].Msg, Source: peer})
			}
			if i%1024 == 1023 {
				b.StopTimer()
				rx.Reset()
				b.StartTimer()
			}
		}
	})
}

// plainTransport transmits nowhere and runs only zero-delay timers (a
// layer's start-up work), so a stack can be timed without a fabric.
type plainTransport struct {
	wireBytes int
	ready     []func()
}

func (p *plainTransport) Send(_ core.EndpointID, _ core.GroupAddr, _ []core.EndpointID, wire []byte) {
	p.wireBytes += len(wire)
}

func (p *plainTransport) SetTimer(d time.Duration, fn func()) func() {
	if d == 0 {
		p.ready = append(p.ready, fn)
	}
	return func() {}
}

func (p *plainTransport) Now() time.Duration { return 0 }

// stackDown times Group.Cast on a one-endpoint stack, returning the
// per-cast cost, the wire bytes one cast puts on the fabric (all of its
// fragments) and whether the compiled plan ran.
func stackDown(names []string, body int, fast bool) (cost, int, bool) {
	var wire int
	var planned bool
	c := bench(func(b *testing.B) {
		tr := &plainTransport{}
		ep := core.NewEndpoint(layertest.ID("self", 1), tr)
		ep.SetFastPath(fast)
		var spec core.StackSpec
		for _, n := range names {
			spec = append(spec, stackreg.Registry()[n])
		}
		g, err := ep.Join("sweep", spec, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, fn := range tr.ready {
			fn()
		}
		if names[0] != "MBRSHIP" {
			g.InstallView(core.NewView(core.ViewID{Seq: 1, Coord: ep.ID()}, "sweep", []core.EndpointID{ep.ID(), peer}))
		}
		payload := make([]byte, body)
		tr.wireBytes = 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Cast(message.New(payload))
		}
		b.StopTimer()
		wire, planned = tr.wireBytes/b.N, g.Stack().PlanStats().Fast > 0
	})
	return c, wire, planned
}

func TestSandwichSweep(t *testing.T) {
	if os.Getenv("PERFBENCH_SANDWICH") == "" {
		t.Skip("set PERFBENCH_SANDWICH=1 to run the per-layer sandwich sweep")
	}
	// Five short runs per cell instead of one long one (see bench).
	if err := flag.Set("test.benchtime", "200ms"); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	fmt.Fprintln(&out, "| stack or sandwich | body B | header B/cast | Down fast | Down ref | Down sandwich | Up sandwich |")
	fmt.Fprintln(&out, "|---|---|---|---|---|---|---|")
	for _, body := range sandwichBodies {
		comFast, comWire, _ := stackDown([]string{"COM"}, body, true)
		comRef, _, _ := stackDown([]string{"COM"}, body, false)
		fmt.Fprintf(&out, "| pass-through (sandwich baseline) | %d | | | | %s | |\n", body, downRef(t, "", body))
		for _, name := range sandwichLayers {
			fast, wire, planned := comFast, comWire, true
			ref, hdr := comRef, comWire-body-4 // beyond the 4-byte header-length prefix
			if name != "COM" {
				fast, wire, planned = stackDown([]string{name, "COM"}, body, true)
				ref, _, _ = stackDown([]string{name, "COM"}, body, false)
				hdr = wire - comWire
			}
			fastCol := fast.String()
			if !planned {
				fastCol = "no plan"
			}
			up := "n/a"
			if name != "TOTAL" && name != "MBRSHIP" {
				up = upRef(t, name, body).String()
			}
			fmt.Fprintf(&out, "| %s | %d | %d | %s | %s | %s | %s |\n",
				name, body, hdr, fastCol, ref, downRef(t, name, body), up)
		}
	}
	for _, body := range sandwichBodies {
		m := message.New(make([]byte, body))
		m.Push(make([]byte, 24))
		w := m.Marshal()
		marshal := bench(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.Marshal()
			}
		})
		unmarshal := bench(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := message.Unmarshal(w); err != nil {
					b.Fatal(err)
				}
			}
		})
		fmt.Fprintf(&out, "| message.Marshal / Unmarshal | %d | 24 | %s | %s | | |\n", body, marshal, unmarshal)
	}
	fmt.Print(out.String())
}
