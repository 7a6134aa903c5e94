// Package retainfix seeds Up-side retention violations: inbound events,
// their messages and sub-slices of their bytes stored past Up without
// Ctx.Keep — directly, on one branch only, through a helper chain, in
// a channel, and in a closure handed to a timer. The clean shapes
// (Keep first, copies, hand-offs, synchronous closures) must stay
// silent.
package retainfix

import (
	"time"

	"horus/internal/core"
	"horus/internal/message"
)

// Store keeps the event in a field without Keep.
type Store struct {
	core.Base
	last *core.Event
}

func (s *Store) Up(ev *core.Event) {
	s.last = ev // want `ev stored into s\.last: retains the inbound packet of ev without Ctx\.Keep\(ev\) on every path`
	s.Ctx.Up(ev)
}

// Kept calls Keep before buffering: clean.
type Kept struct {
	core.Base
	pending map[uint64]*core.Event
}

func (k *Kept) Up(ev *core.Event) {
	k.Ctx.Keep(ev)
	k.pending[1] = ev
}

// Branch keeps on one path only; the store after the join is flagged.
type Branch struct {
	core.Base
	queue []*core.Event
}

func (b *Branch) Up(ev *core.Event) {
	if ev.Type == core.UCast {
		b.Ctx.Keep(ev)
	}
	b.queue = append(b.queue, ev) // want `append\(b\.queue, ev\) stored into b\.queue: retains the inbound packet of ev without Ctx\.Keep\(ev\) on every path`
}

// Helper retains through two same-package hops: the finding carries
// the chain.
type Helper struct {
	core.Base
	held []*core.Event
}

func (h *Helper) Up(ev *core.Event) {
	h.buffer(ev) // want `inbound packet of ev is retained by \(\*Helper\)\.buffer \(ev stored into h\.held\[0\] at retainfix\.go:\d+\) via \(\*Helper\)\.park \(retainfix\.go:\d+\) without Ctx\.Keep\(ev\)`
}

func (h *Helper) buffer(ev *core.Event) { h.park(ev) }
func (h *Helper) park(ev *core.Event)   { h.held[0] = ev }

// HelperKeeps keeps inside the helper before storing: clean.
type HelperKeeps struct {
	core.Base
	held []*core.Event
}

func (h *HelperKeeps) Up(ev *core.Event) { h.hold(ev) }

func (h *HelperKeeps) hold(ev *core.Event) {
	h.Ctx.Keep(ev)
	h.held = append(h.held, ev)
}

// Body retains a sub-slice of the packet's bytes, and the message.
type Body struct {
	core.Base
	tail []byte
	msg  *message.Message
	copy []byte
}

func (b *Body) Up(ev *core.Event) {
	body := ev.Msg.Body()
	b.tail = body[4:] // want `body\[4:\] stored into b\.tail: retains the inbound packet of ev`
	b.msg = ev.Msg    // want `ev\.Msg stored into b\.msg: retains the inbound packet of ev`
	b.copy = append([]byte(nil), body...)
	key := string(ev.Msg.PopBytes())
	_ = key
	b.Ctx.Up(ev)
}

// Popped retains a header slice Pop handed out.
type Popped struct {
	core.Base
	nonce []byte
}

func (p *Popped) Up(ev *core.Event) {
	p.nonce = ev.Msg.Pop(8) // want `ev\.Msg\.Pop\(8\) stored into p\.nonce: retains the inbound packet of ev`
}

// Wrapped stores a fresh event around the packet's message.
type Wrapped struct {
	core.Base
	later []*core.Event
}

func (w *Wrapped) Up(ev *core.Event) {
	w.later = append(w.later, &core.Event{Type: core.UCast, Msg: ev.Msg}) // want `stored into w\.later: retains the inbound packet of ev`
}

// Timer captures the event in a closure the timer outlives Up with.
type Timer struct{ core.Base }

func (t *Timer) Up(ev *core.Event) {
	t.Ctx.SetTimer(time.Millisecond, func() { t.Ctx.Up(ev) }) // want `a closure passed to t\.Ctx\.SetTimer: retains the inbound packet of ev`
}

// Sync runs a closure over the event synchronously, copies a field
// for a timer, and hands the event on: clean.
type Sync struct{ core.Base }

func (s *Sync) Up(ev *core.Event) {
	src := ev.Source
	report := func() { s.Ctx.Up(&core.Event{Type: core.UProblem, Source: ev.Source}) }
	report()
	s.Ctx.SetTimer(time.Millisecond, func() { s.Ctx.Up(&core.Event{Type: core.UProblem, Source: src}) })
	s.Ctx.Up(ev)
}

// Chan sends the event to another goroutine.
type Chan struct {
	core.Base
	out chan *core.Event
}

func (c *Chan) Up(ev *core.Event) {
	c.out <- ev // want `ev sent on channel c\.out: retains the inbound packet of ev`
}

// Holder copies the event into a local struct and buffers that.
type Holder struct {
	core.Base
	parked []pending
}

type pending struct {
	epoch uint64
	ev    *core.Event
}

func (h *Holder) Up(ev *core.Event) {
	p := pending{epoch: 1}
	p.ev = ev
	h.parked = append(h.parked, p) // want `append\(h\.parked, p\) stored into h\.parked: retains the inbound packet of ev`
}

// Suppressed documents a deliberate exception.
type Suppressed struct {
	core.Base
	last *core.Event
}

func (s *Suppressed) Up(ev *core.Event) {
	s.last = ev //horus:own-ok — fixture: the suppression marker silences the finding
}
