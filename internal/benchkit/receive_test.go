package benchkit

import (
	"encoding/binary"
	"testing"
)

// The receive path's allocation budget, pinned so a change that brings
// per-packet garbage back fails go test ./... rather than only the
// benchmark gate.

// TestDeliverAllocs pins Endpoint.Deliver of a NAK:COM packet into a
// 10-member group: an in-order cast at two allocations — the inbound
// entry and its byte slab, kept because the application handler saw
// them — and a NAK status unicast at none, since NAK consumes it and
// the endpoint recycles it.
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
		max  float64
	}{
		{"data", data, 2},
		{"status", func() { f.EP.Deliver(f.Group, f.Status) }, 0},
	} {
		got := testing.AllocsPerRun(200, tc.run)
		t.Logf("Deliver(%s): %.1f allocs", tc.kind, got)
		if tc.kind == "status" && raceEnabled {
			continue // recycled packets come from sync.Pool, which the race detector empties at random
		}
		if got > tc.max {
			t.Errorf("Deliver(%s): %.1f allocs per packet, want <= %.0f", tc.kind, got, tc.max)
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
// nine status unicasts that allocate nothing (the message is pooled,
// the wire is rendered into the stack's scratch buffer, and the
// downcall event comes from the stack's free list), plus re-arming the
// period timer.
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
// members: the re-armed timer's closures.
const statusTickAllocs = 3

// TestLoadTickAllocs pins the cluster-scale fabric at no more than one
// allocation per delivered packet: a tick is 1000 deliveries.
func TestLoadTickAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("inbound packets are recycled through sync.Pool, which the race detector empties at random")
	}
	f, err := NewLoadFixture()
	if err != nil {
		t.Fatal(err)
	}
	f.Tick() // warm the free lists
	got := testing.AllocsPerRun(20, f.Tick)
	t.Logf("LoadTick: %.0f allocs per 1000 deliveries", got)
	if got > loadTickAllocs {
		t.Fatalf("one tick costs %.0f allocs, pinned at <= %d (one per delivery)", got, loadTickAllocs)
	}
}

// loadTickAllocs is the LoadTick budget: one allocation per delivery.
const loadTickAllocs = 1000
