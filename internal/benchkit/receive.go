package benchkit

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/nak"
	"horus/internal/message"
	"horus/internal/netsim"
)

// receiveBody is the payload size of the fixture's casts.
const receiveBody = 64

// ReceiveFixture isolates the per-packet receive path of the fifo
// stack (NAK:COM). Wire images are captured from a live group on the
// simulator — every member casts once, then gossips its NAK status —
// and replayed into a standalone twin of member 0 whose transport
// discards sends and holds timers until Tick fires them, so a
// measurement sees Endpoint.Deliver and the stack and nothing else.
type ReceiveFixture struct {
	// EP is member 0's twin; its group has the live group's view and
	// has already delivered every member's first cast.
	EP    *core.Endpoint
	Group core.GroupAddr
	// Cast is member 1's first cast (NAK sequence 1) as it left the
	// wire; see DataPacket.
	Cast []byte
	// Status is member 1's first NAK status unicast to member 0: it
	// lists all members' casts as delivered and claims nothing the twin
	// has not seen, so replaying it triggers no repair traffic.
	Status []byte
	// Delivered counts the casts the twin's application received.
	Delivered int

	tr *manualTransport
}

// NewReceiveFixture captures the wire images from a members-strong
// NAK:COM group (members ≥ 2) and builds member 0's twin.
func NewReceiveFixture(members int) (*ReceiveFixture, error) {
	const group = core.GroupAddr("recv")
	spec := func() core.StackSpec {
		return core.StackSpec{
			nak.NewWith(nak.WithStatusPeriod(20*time.Millisecond), nak.WithNakResend(15*time.Millisecond)),
			com.New,
		}
	}
	net := netsim.New(netsim.Config{Seed: 1})
	eps := make([]*core.Endpoint, members)
	ids := make([]core.EndpointID, members)
	for i := range eps {
		eps[i] = net.NewEndpoint(fmt.Sprintf("m%02d", i))
		ids[i] = eps[i].ID()
	}
	view := core.NewView(core.ViewID{Seq: 1, Coord: ids[0]}, group, ids)
	casts := make([][]byte, members)
	var status []byte
	groups := make([]*core.Group, members)
	for i, ep := range eps {
		i := i
		ep.SetWireTap(func(dests []core.EndpointID, w []byte) {
			switch {
			case len(dests) == members && casts[i] == nil:
				casts[i] = append([]byte(nil), w...)
			case i == 1 && len(dests) == 1 && dests[0] == ids[0] && status == nil:
				status = append([]byte(nil), w...)
			}
		})
		g, err := ep.Join(group, spec(), nil)
		if err != nil {
			return nil, err
		}
		g.InstallView(view)
		groups[i] = g
	}
	for _, g := range groups {
		g.Cast(message.New(make([]byte, receiveBody)))
	}
	net.RunFor(30 * time.Millisecond) // deliveries, then one status round
	for i, c := range casts {
		if c == nil {
			return nil, fmt.Errorf("benchkit: member %d's cast was not captured", i)
		}
	}
	if status == nil {
		return nil, fmt.Errorf("benchkit: no status from member 1 to member 0")
	}

	f := &ReceiveFixture{Group: group, Cast: casts[1], Status: status, tr: &manualTransport{}}
	f.EP = core.NewEndpoint(ids[0], f.tr)
	g, err := f.EP.Join(group, spec(), func(ev *core.Event) {
		if ev.Type == core.UCast {
			f.Delivered++
		}
	})
	if err != nil {
		return nil, err
	}
	g.InstallView(view)
	for _, c := range casts {
		f.EP.Deliver(group, c)
	}
	if f.Delivered != members {
		return nil, fmt.Errorf("benchkit: twin delivered %d of %d captured casts", f.Delivered, members)
	}
	if seq := binary.BigEndian.Uint64(f.Cast[f.seqAt():]); seq != 1 {
		return nil, fmt.Errorf("benchkit: captured cast carries NAK sequence %d, want 1", seq)
	}
	return f, nil
}

// seqAt is the offset of the NAK sequence number in Cast: the last
// header field, right in front of the body.
func (f *ReceiveFixture) seqAt() int { return len(f.Cast) - receiveBody - 8 }

// DataPacket returns a copy of Cast renumbered to NAK sequence seq. The
// twin has delivered sequence 1 of member 1's stream, so packets
// numbered 2, 3, ... in order are each delivered to the application.
func (f *ReceiveFixture) DataPacket(seq uint64) []byte {
	w := append([]byte(nil), f.Cast...)
	binary.BigEndian.PutUint64(w[f.seqAt():], seq)
	return w
}

// Tick fires the twin's pending timers — with NAK:COM and no gap, just
// the NAK status period: one status unicast to every other member.
func (f *ReceiveFixture) Tick() {
	due := f.tr.timers
	f.tr.timers = f.tr.spare[:0]
	for _, fn := range due {
		fn()
	}
	f.tr.spare = due[:0]
}

// manualTransport discards sends and holds timers for Tick.
type manualTransport struct {
	timers, spare []func()
}

func (*manualTransport) Send(core.EndpointID, core.GroupAddr, []core.EndpointID, []byte) {}
func (t *manualTransport) SetTimer(d time.Duration, fn func()) (cancel func()) {
	t.timers = append(t.timers, fn)
	return func() {}
}
func (*manualTransport) Now() time.Duration { return 0 }

// DeliverKinds lists the packet kinds Deliver measures.
var DeliverKinds = []string{"data", "status"}

// Deliver measures Endpoint.Deliver of one NAK:COM packet into a
// 10-member group: kind "data" is an in-order cast delivered to the
// application, kind "status" a NAK status unicast. A data packet costs
// two allocations — the inbound entry and its byte slab, kept because
// the application saw them; a status packet is consumed inside NAK and
// recycled, so it costs none.
func Deliver(kind string) func(*testing.B) {
	return func(b *testing.B) {
		f, err := NewReceiveFixture(10)
		if err != nil {
			b.Fatal(err)
		}
		var wire []byte
		switch kind {
		case "data":
			wire = f.DataPacket(2)
		case "status":
			wire = f.Status
		default:
			b.Fatalf("unknown packet kind %q", kind)
		}
		seqAt := f.seqAt()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if kind == "data" {
				// Deliver copies wire, so renumbering in place is safe.
				binary.BigEndian.PutUint64(wire[seqAt:], uint64(i+2))
			}
			f.EP.Deliver(f.Group, wire)
		}
		b.StopTimer()
		if n := f.EP.Malformed(); n != 0 {
			b.Fatalf("%d replayed packets were malformed", n)
		}
		if kind == "data" && f.Delivered != 10+b.N {
			b.Fatalf("application received %d casts, want %d", f.Delivered, 10+b.N)
		}
	}
}

// rawLayer is a stack of one: casts go straight to the transport as a
// broadcast, arrivals are counted.
type rawLayer struct {
	core.Base
	got int
}

func (r *rawLayer) Name() string { return "RAW" }
func (r *rawLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		r.Ctx.Transmit(nil, ev.Msg)
		return
	}
	r.Ctx.Down(ev)
}
func (r *rawLayer) Up(ev *core.Event) {
	if ev.Type == core.UPacket {
		r.got++
		return
	}
	r.Ctx.Up(ev)
}

// LoadFixture is the cluster-scale fabric of LoadTick: 100 groups of
// 10 members on one simulated network, each group with one sender.
type LoadFixture struct {
	net     *netsim.Network
	senders []*core.Group
	body    []byte
}

// NewLoadFixture builds the 100-group x 10-member fabric.
func NewLoadFixture() (*LoadFixture, error) {
	const groups, members = 100, 10
	f := &LoadFixture{
		net:  netsim.New(netsim.Config{Seed: 3, DefaultLink: netsim.Link{Delay: 100 * time.Microsecond}}),
		body: make([]byte, 64),
	}
	for g := 0; g < groups; g++ {
		addr := core.GroupAddr(fmt.Sprintf("grp%d", g))
		for m := 0; m < members; m++ {
			ep := f.net.NewEndpoint(fmt.Sprintf("g%d-m%d", g, m))
			grp, err := ep.Join(addr, core.StackSpec{func() core.Layer { return &rawLayer{} }}, nil)
			if err != nil {
				return nil, err
			}
			if m == 0 {
				f.senders = append(f.senders, grp)
			}
		}
	}
	return f, nil
}

// Tick casts once in every group and runs the fabric until every copy
// has been delivered: 1000 packets end to end.
func (f *LoadFixture) Tick() {
	for _, grp := range f.senders {
		grp.Cast(message.New(f.body))
	}
	f.net.RunFor(time.Millisecond)
}

// LoadTick is the pinned cluster-scale fabric number: one broadcast in
// every group of a 100-group x 10-member fabric (1000 packets end to
// end), including delivery. This is the inner loop of the loadgen
// soak; the broadcast-scoping fix and the packet fast paths are gated
// on it.
func LoadTick(b *testing.B) {
	f, err := NewLoadFixture()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Tick()
	}
}
