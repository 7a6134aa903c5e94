package benchkit

import (
	"encoding/binary"
	"testing"
)

// The receive path's allocation budget, pinned so a change that brings
// per-packet garbage back fails go test ./... rather than only the
// benchmark gate.

// TestDeliverAllocs pins Endpoint.Deliver of a NAK:COM packet into a
// 10-member group at two allocations — the inbound entry and its byte
// slab — for an in-order cast and for a NAK status unicast.
func TestDeliverAllocs(t *testing.T) {
	f, err := NewReceiveFixture(10)
	if err != nil {
		t.Fatal(err)
	}
	wire, seq := f.DataPacket(2), uint64(1)
	data := func() {
		// Deliver copies wire, so renumbering in place is safe.
		seq++
		binary.BigEndian.PutUint64(wire[f.seqAt():], seq)
		f.EP.Deliver(f.Group, wire)
	}
	for _, tc := range []struct {
		kind string
		run  func()
	}{
		{"data", data},
		{"status", func() { f.EP.Deliver(f.Group, f.Status) }},
	} {
		got := testing.AllocsPerRun(200, tc.run)
		t.Logf("Deliver(%s): %.1f allocs", tc.kind, got)
		if got > 2 {
			t.Errorf("Deliver(%s): %.1f allocs per packet, want <= 2 (inbound entry + slab)", tc.kind, got)
		}
	}
	if n := f.EP.Malformed(); n != 0 {
		t.Fatalf("%d replayed packets were malformed", n)
	}
	// Every renumbered cast reached the application: the pin measured
	// real deliveries, not duplicates NAK discarded.
	if want := 10 + int(seq) - 1; f.Delivered != want {
		t.Fatalf("application received %d casts, want %d", f.Delivered, want)
	}
}

// TestStatusTickAllocs pins one NAK status period of a 10-member view:
// nine status unicasts, each one allocation (the event with its
// destination array; the message is pooled and the wire is rendered
// into the stack's scratch buffer), plus re-arming the period timer.
func TestStatusTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("status messages come from sync.Pool, which the race detector empties at random")
	}
	f, err := NewReceiveFixture(10)
	if err != nil {
		t.Fatal(err)
	}
	f.Tick() // warm the status table and the message pool
	got := testing.AllocsPerRun(200, f.Tick)
	t.Logf("statusTick: %.1f allocs", got)
	if got > statusTickAllocs {
		t.Fatalf("one status period costs %.1f allocs, pinned at %d", got, statusTickAllocs)
	}
}

// statusTickAllocs is the measured cost of one status period with ten
// members.
const statusTickAllocs = 12
