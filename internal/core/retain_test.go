package core_test

import (
	"bytes"
	"testing"

	"horus/internal/core"
	"horus/internal/message"
)

// The receive side's retention contract: a packet is recycled when the
// stack's Up returns unless a layer kept it, the application handler
// saw it, or its Up panicked. A recycled packet's event is zeroed and
// its bytes poisoned, so a layer that breaks the contract fails loudly.

// poisonByte is the pattern core writes over a recycled packet's slab
// (core/inbound.go).
const poisonByte = 0xA5

// stashLayer stores every arriving event and a slice of its body. With
// keep set it calls Keep first, as the contract demands; without, it
// is the buggy layer the safety net must expose.
type stashLayer struct {
	core.Base
	keep, pass, panics bool
	ev                 *core.Event
	body               []byte
}

func (s *stashLayer) Name() string { return "STASH" }

func (s *stashLayer) Up(ev *core.Event) {
	if s.keep {
		s.Ctx.Keep(ev)
	}
	s.ev = ev
	s.body = ev.Msg.Body()
	if s.panics {
		panic("stash: garbled header")
	}
	if s.pass {
		s.Ctx.Up(ev)
	}
}

// retainWire is the wire image of a message with a recognizable body.
func retainWire(body string) []byte { return message.New([]byte(body)).Marshal() }

func joinStash(t *testing.T, s *stashLayer, h core.Handler) *core.Endpoint {
	t.Helper()
	ep := core.NewEndpoint(core.EndpointID{Site: "self", Birth: 1}, &fakeTransport{})
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return s },
		func() core.Layer { return &passLayer{} },
	}, h); err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestUnkeptPacketIsPoisoned(t *testing.T) {
	s := &stashLayer{}
	ep := joinStash(t, s, nil)
	ep.Deliver("g", retainWire("the quick brown fox"))
	if s.ev == nil {
		t.Fatal("layer never saw the packet")
	}
	if s.ev.Type != 0 || s.ev.Msg != nil {
		t.Fatalf("recycled event not zeroed: %v", s.ev)
	}
	if len(s.body) == 0 {
		t.Fatal("no retained bytes")
	}
	for i, b := range s.body {
		if b != poisonByte {
			t.Fatalf("retained byte %d = %#x, want the poison pattern %#x: a stale alias read live bytes", i, b, poisonByte)
		}
	}
}

func TestKeptPacketSurvives(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer *stashLayer
		h     core.Handler
		fast  bool
	}{
		{"keep", &stashLayer{keep: true}, nil, true},
		{"handler", &stashLayer{pass: true}, func(*core.Event) {}, true},
		{"reference path", &stashLayer{}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := joinStash(t, tc.layer, tc.h)
			ep.SetFastPath(tc.fast)
			ep.Deliver("g", retainWire("first body"))
			first := tc.layer.body
			// A second packet must not land in the first one's storage.
			ep.Deliver("g", retainWire("other body"))
			if !bytes.Equal(first, []byte("first body")) {
				t.Fatalf("retained body = %q, want %q", first, "first body")
			}
		})
	}
}

func TestPanickedPacketIsNotRecycled(t *testing.T) {
	s := &stashLayer{panics: true}
	ep := joinStash(t, s, nil)
	ep.Deliver("g", retainWire("half-parsed"))
	if ep.Malformed() != 1 {
		t.Fatalf("malformed = %d, want 1", ep.Malformed())
	}
	if !bytes.Equal(s.body, []byte("half-parsed")) || s.ev.Msg == nil {
		t.Fatalf("a packet whose Up panicked was recycled: body %q", s.body)
	}
}

// queueLayer parks send downcalls until flushed, like ADAPT's paced
// queue.
type queueLayer struct {
	core.Base
	held []*core.Event
}

func (q *queueLayer) Name() string { return "QUEUE" }
func (q *queueLayer) Down(ev *core.Event) {
	if ev.Type == core.DSend {
		q.held = append(q.held, ev)
		return
	}
	q.Ctx.Down(ev)
}
func (q *queueLayer) flush() {
	held := q.held
	q.held = nil
	for _, ev := range held {
		q.Ctx.Down(ev)
	}
}

// sendBottom transmits send downcalls, like COM.
type sendBottom struct{ core.Base }

func (b *sendBottom) Name() string { return "SENDCOM" }
func (b *sendBottom) Down(ev *core.Event) {
	if ev.Type == core.DSend {
		b.Ctx.Transmit(ev.Dests, ev.Msg)
		return
	}
	b.Ctx.Down(ev)
}

// TestSendToSurvivesQueueing checks the pooled send downcall's hand-off
// rule: the stack reclaims it only once the bottom layer's Down
// returns, so a layer may park it and pass it on later.
func TestSendToSurvivesQueueing(t *testing.T) {
	tr := &fakeTransport{}
	ep := core.NewEndpoint(core.EndpointID{Site: "self", Birth: 1}, tr)
	top, q := &passLayer{}, &queueLayer{}
	if _, err := ep.Join("g", core.StackSpec{
		func() core.Layer { return top },
		func() core.Layer { return q },
		func() core.Layer { return &sendBottom{} },
	}, nil); err != nil {
		t.Fatal(err)
	}
	peers := []core.EndpointID{{Site: "a", Birth: 2}, {Site: "b", Birth: 3}, {Site: "c", Birth: 4}}
	ep.Do(func() {
		top.Ctx.SendTo(peers[0], message.New([]byte("to a")))
		top.Ctx.SendTo(peers[1], message.New([]byte("to b")))
		q.flush()
		top.Ctx.SendTo(peers[2], message.New([]byte("to c"))) // reuses a reclaimed downcall
		q.flush()
	})
	if len(tr.sent) != 3 {
		t.Fatalf("transmitted %d packets, want 3", len(tr.sent))
	}
	for i, s := range tr.sent {
		m, err := message.Unmarshal(s.wire)
		if err != nil {
			t.Fatal(err)
		}
		want := "to " + peers[i].Site
		if len(s.dests) != 1 || s.dests[0] != peers[i] || string(m.Body()) != want {
			t.Fatalf("packet %d went to %v with body %q, want [%v] %q", i, s.dests, m.Body(), peers[i], want)
		}
	}
}
