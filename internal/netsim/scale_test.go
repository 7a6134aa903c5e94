package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// attachG is attach for an explicit group address, for tests that put
// many groups on one fabric.
func attachG(tb testing.TB, net *netsim.Network, site string, g core.GroupAddr) (*core.Endpoint, *rawLayer) {
	tb.Helper()
	l := &rawLayer{}
	ep := net.NewEndpoint(site)
	if _, err := ep.Join(g, core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
		tb.Fatal(err)
	}
	return ep, l
}

func castG(ep *core.Endpoint, g core.GroupAddr, body []byte) {
	ep.Do(func() {
		grp := ep.Group(g)
		if grp == nil {
			return
		}
		grp.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New(body)})
	})
}

// TestBroadcastScopedToGroup pins the netsim scalability fix: an
// empty-dests broadcast fans out to the endpoints registered for the
// group (core.GroupRegistrar), not to every endpoint on the fabric.
// Before the fix this cluster cost O(1000) per broadcast — the
// thousand-endpoint soak in internal/loadgen is what surfaced it.
func TestBroadcastScopedToGroup(t *testing.T) {
	const groups, members = 100, 10
	net := netsim.New(netsim.Config{Seed: 1})
	eps := make([]*core.Endpoint, 0, groups*members)
	for g := 0; g < groups; g++ {
		addr := core.GroupAddr(fmt.Sprintf("grp%d", g))
		for m := 0; m < members; m++ {
			ep, _ := attachG(t, net, fmt.Sprintf("g%d-m%d", g, m), addr)
			eps = append(eps, ep)
		}
	}
	castG(eps[0], "grp0", []byte("x")) // broadcast: rawLayer passes nil dests
	net.RunFor(time.Millisecond)
	st := net.Stats()
	if st.Sent != members {
		t.Fatalf("broadcast fan-out %d packets, want group size %d (scan not scoped to group)", st.Sent, members)
	}
	if st.Delivered != members || st.Blocked != 0 {
		t.Fatalf("delivered=%d blocked=%d, want %d/0", st.Delivered, st.Blocked, members)
	}
}

// TestBroadcastSkipsDepartedMember verifies the registrar unhooks on
// leave: a member that left the group is no longer a broadcast target.
func TestBroadcastSkipsDepartedMember(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 2})
	a, _ := attachG(t, net, "a", "grp")
	b, _ := attachG(t, net, "b", "grp")
	_, lc := attachG(t, net, "c", "grp")
	b.Do(func() { b.Group("grp").Leave() })
	net.RunFor(time.Millisecond)
	castG(a, "grp", []byte("x"))
	net.RunFor(time.Millisecond)
	st := net.Stats()
	if st.Sent != 2 || st.Blocked != 0 {
		t.Fatalf("sent=%d blocked=%d after leave, want 2/0", st.Sent, st.Blocked)
	}
	if len(lc.got) != 1 {
		t.Fatalf("c got %d packets, want 1", len(lc.got))
	}
}
