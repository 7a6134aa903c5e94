package netsim_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"horus/internal/core"
	"horus/internal/message"
	"horus/internal/netsim"
)

// traceLayer records every packet it receives as one "time dst body"
// line, stamped with the network's virtual clock.
type traceLayer struct {
	core.Base
	net   *netsim.Network
	id    core.EndpointID
	trace *strings.Builder
}

func (l *traceLayer) Name() string { return "TRACE" }
func (l *traceLayer) Down(ev *core.Event) {
	if ev.Type == core.DCast {
		l.Ctx.Transmit(ev.Dests, ev.Msg)
		return
	}
	l.Ctx.Down(ev)
}
func (l *traceLayer) Up(ev *core.Event) {
	if ev.Type == core.UPacket {
		fmt.Fprintf(l.trace, "%d %v %x\n", l.net.Now(), l.id, ev.Msg.Body())
		return
	}
	l.Ctx.Up(ev)
}

// TestGoldenDrawOrder pins the exact behaviour of the rule machine with
// every rule active at once: loss, duplication, garbling, jitter,
// reorder holds released by depth and by backstop, bandwidth
// serialization, an egress budget whose queue overflows, a directed
// override, a partition, a crash and a detach. Any change to the order
// in which rules draw from the seeded rng, or to when they consult the
// clock, changes the delivery trace or the ledger. The expected values
// were recorded before the rules moved into one engine and must not be
// regenerated to make a refactor pass.
func TestGoldenDrawOrder(t *testing.T) {
	net := netsim.New(netsim.Config{Seed: 1313, DefaultLink: netsim.Link{
		Delay: time.Millisecond, Jitter: 3 * time.Millisecond,
		LossRate: 0.05, DupRate: 0.05, GarbleRate: 0.05,
		Bandwidth:   200_000,
		ReorderRate: 0.1, ReorderDepth: 2, ReorderHold: 20 * time.Millisecond,
	}})
	var trace strings.Builder
	var eps []*core.Endpoint
	for _, site := range []string{"a", "b", "c", "d"} {
		ep := net.NewEndpoint(site)
		l := &traceLayer{net: net, id: ep.ID(), trace: &trace}
		if _, err := ep.Join("g", core.StackSpec{func() core.Layer { return l }}, nil); err != nil {
			t.Fatal(err)
		}
		eps = append(eps, ep)
	}
	a, b, c, d := eps[0].ID(), eps[1].ID(), eps[2].ID(), eps[3].ID()
	net.SetLinkDirected(a, b, netsim.Link{
		Delay: 2 * time.Millisecond, Jitter: time.Millisecond, LossRate: 0.2,
		DupRate: 0.2, GarbleRate: 0.2, ReorderRate: 0.3,
	})
	net.SetHost(a, netsim.Host{EgressBudget: 20_000, EgressQueue: 300})

	for i := 0; i < 200; i++ {
		i := i
		for k, ep := range eps {
			k, ep := k, ep
			net.At(time.Duration(i)*2*time.Millisecond+time.Duration(k)*100*time.Microsecond, func() {
				body := fmt.Sprintf("%d-%03d-%s", k, i, strings.Repeat("x", 10+(i*7+k)%50))
				var dests []core.EndpointID
				if i%3 == 1 {
					dests = []core.EndpointID{eps[(k+1)%len(eps)].ID()}
				}
				ep.Do(func() {
					if g := ep.Group("g"); g != nil {
						g.Stack().Down(&core.Event{Type: core.DCast, Msg: message.New([]byte(body)), Dests: dests})
					}
				})
			})
		}
	}
	net.At(100*time.Millisecond, func() { net.Partition([]core.EndpointID{a, b}, []core.EndpointID{c, d}) })
	net.At(200*time.Millisecond, net.Heal)
	net.At(300*time.Millisecond, func() { net.Crash(d) })
	net.At(350*time.Millisecond, func() { net.Detach(d) })
	net.RunFor(time.Second)

	st := net.Stats()
	gotStats := fmt.Sprintf("sent=%d delivered=%d bytes=%d lost=%d garbled=%d duplicated=%d blocked=%d "+
		"reordered=%d throttled=%d congested=%d collapse=%d",
		st.Sent, st.Delivered, st.Bytes, st.Lost, st.Garbled, st.Duplicated, st.Blocked,
		st.Reordered, st.Throttled, st.Congested, st.CollapseDropped)
	gotDigest := fmt.Sprintf("%x", sha256.Sum256([]byte(trace.String())))

	const (
		wantStats = "sent=2149 delivered=1662 bytes=72948 lost=126 garbled=131 duplicated=118 blocked=319 " +
			"reordered=217 throttled=188 congested=206 collapse=158"
		wantDigest = "2cfb86f162982a501e1ae16ff2138962ca3e43b64f1eac5f792fa4d41f00a250"
	)
	if gotStats != wantStats {
		t.Errorf("ledger changed:\n got %s\nwant %s", gotStats, wantStats)
	}
	if gotDigest != wantDigest {
		t.Errorf("delivery trace digest changed:\n got %s\nwant %s", gotDigest, wantDigest)
	}
}
