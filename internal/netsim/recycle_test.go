package netsim

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
)

// wireLayer is a one-layer stack: casts go out raw, and every arriving
// packet is recorded as the wire image it was parsed from.
type wireLayer struct {
	core.Base
	got [][]byte
}

func (l *wireLayer) Name() string { return "WIRE" }
func (l *wireLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		l.Ctx.Transmit(ev.Dests, ev.Msg)
		return
	}
	l.Ctx.Down(ev)
}
func (l *wireLayer) Up(ev *core.Event) { l.got = append(l.got, ev.Msg.Marshal()) }

func attachWire(t *testing.T, n *Network, site string) (*core.Endpoint, *wireLayer) {
	t.Helper()
	l := &wireLayer{}
	ep := n.NewEndpoint(site)
	if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
		t.Fatal(err)
	}
	return ep, l
}

func castRaw(ep *core.Endpoint, body []byte) {
	ep.Do(func() {
		if g := ep.Group("g"); g != nil {
			g.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New(body)})
		}
	})
}

// stampBody is packet i's body: its number, eight times over, so a
// copy garbled in one byte still names the packet it came from, then
// padding that makes neighbouring packets differ in length. A copy
// whose buffer was refilled by another packet of its size class then
// arrives with a stamp that does not match its length.
func stampBody(i int) []byte {
	var b []byte
	for k := 0; k < 8; k++ {
		b = append(b, fmt.Sprintf("%08d", i)...)
	}
	return append(b, make([]byte, i%29)...)
}

// stampOf recovers the packet number from a delivered wire image by
// majority over the eight stamps.
func stampOf(wire []byte) (int, bool) {
	votes := map[string]int{}
	for k := 0; k < 8; k++ {
		if off := 4 + 8*k; off+8 <= len(wire) {
			votes[string(wire[off:off+8])]++
		}
	}
	for s, v := range votes {
		var i int
		if v >= 5 {
			if _, err := fmt.Sscanf(s, "%08d", &i); err == nil {
				return i, true
			}
		}
	}
	return 0, false
}

// TestRecycledBuffersNeverShared drives one fan-out stream through
// every rule that multiplies or parks a copy — duplication, reorder
// holds, garbling, and a receiver crashing with copies in flight — and
// compares each delivered copy with the packet it was stamped as. A
// shared buffer recycled while another copy still pointed at it would
// deliver some other packet's bytes.
func TestRecycledBuffersNeverShared(t *testing.T) {
	n := New(Config{Seed: 7, DefaultLink: Link{
		Delay: time.Millisecond, Jitter: 2 * time.Millisecond,
		DupRate: 0.3, GarbleRate: 0.2, ReorderRate: 0.3,
	}})
	sender, _ := attachWire(t, n, "s")
	var recv []*wireLayer
	var victim core.EndpointID
	for i := 0; i < 5; i++ {
		ep, l := attachWire(t, n, fmt.Sprintf("r%d", i))
		recv = append(recv, l)
		if i == 0 {
			victim = ep.ID()
		}
	}
	// Bursts of ten, 100ms apart: copies parked at a burst's tail wait
	// for the hold backstop (250ms) while later bursts recycle buffers.
	const packets = 400
	for i := 0; i < packets; i++ {
		i := i
		at := time.Duration(i/10)*100*time.Millisecond + time.Duration(i%10)*100*time.Microsecond
		n.At(at, func() { castRaw(sender, stampBody(i)) })
	}
	n.At(2*time.Second+500*time.Microsecond, func() { n.Crash(victim) })
	n.RunFor(6 * time.Second)

	delivered := 0
	for _, l := range recv {
		for _, w := range l.got {
			i, ok := stampOf(w)
			if !ok {
				t.Fatalf("delivered packet carries no readable stamp: %q", w)
			}
			want := message.New(stampBody(i)).Marshal()
			if len(w) != len(want) {
				t.Fatalf("packet %d arrived with %d bytes, want %d", i, len(w), len(want))
			}
			diff := 0
			for k := range w {
				if w[k] != want[k] {
					diff++
				}
			}
			if diff > 1 {
				t.Fatalf("packet %d arrived with %d corrupted bytes (a garble flips one): its buffer was reused in flight", i, diff)
			}
			delivered++
		}
	}
	led := n.Stats().Ledger
	if led.Duplicated == 0 || led.Garbled == 0 || led.Reordered == 0 || delivered == 0 {
		t.Fatalf("scenario did not exercise every rule: delivered %d, ledger %+v", delivered, led)
	}
	if got, peer := len(recv[0].got), len(recv[1].got); got == 0 || got >= peer {
		t.Fatalf("crashed receiver got %d packets against a peer's %d: the crash did not cut a live stream", got, peer)
	}
	// Non-vacuous: the stream reused its buffers rather than parking
	// one per packet.
	parked := 0
	for _, l := range n.freeBufs {
		parked += len(l)
	}
	if parked == 0 || parked >= packets/2 {
		t.Fatalf("%d buffers parked after %d sends: the free list was not exercised", parked, packets)
	}
}

// TestCancelAfterFireNeverTouchesDelivery calls a fired timer's cancel
// once deliveries are running on recycled events: the timer's event is
// never recycled, so the late cancel cannot drop a packet.
func TestCancelAfterFireNeverTouchesDelivery(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLink: Link{Delay: time.Millisecond}})
	a, la := attachWire(t, n, "a")
	_, lb := attachWire(t, n, "b")
	castRaw(a, []byte("warm"))
	n.RunFor(5 * time.Millisecond) // park a delivery event or two
	fired := false
	cancel := n.SetTimer(time.Millisecond, func() { fired = true })
	n.RunFor(5 * time.Millisecond)
	if !fired {
		t.Fatal("timer did not fire")
	}
	for i := 0; i < 4; i++ {
		castRaw(a, []byte(fmt.Sprintf("after-%d", i)))
	}
	cancel()
	n.RunFor(5 * time.Millisecond)
	for _, l := range []*wireLayer{la, lb} {
		if len(l.got) != 5 {
			t.Fatalf("a member received %d packets, want 5: a late cancel dropped a delivery", len(l.got))
		}
	}
}

// TestFreeListsAreCapped drains a burst far larger than the caps and
// checks what stays parked, so a burst cannot grow the heap for good.
func TestFreeListsAreCapped(t *testing.T) {
	n := New(Config{Seed: 1, DefaultLink: Link{Delay: time.Millisecond}})
	a, _ := attachWire(t, n, "a")
	attachWire(t, n, "b")
	attachWire(t, n, "c")
	body := make([]byte, 900)
	for i := 0; i < maxFreeEvents; i++ {
		castRaw(a, body) // all in flight at once: 2*maxFreeEvents deliveries
	}
	n.RunFor(10 * time.Millisecond)
	if len(n.freeEvents) != maxFreeEvents {
		t.Fatalf("%d delivery events parked, want the cap %d", len(n.freeEvents), maxFreeEvents)
	}
	bytes := 0
	for _, l := range n.freeBufs {
		for _, sb := range l {
			bytes += cap(sb.b)
		}
	}
	if bytes != n.freeBytes || bytes > maxFreeBytes {
		t.Fatalf("%d bytes parked (accounted %d), cap %d", bytes, n.freeBytes, maxFreeBytes)
	}
}
