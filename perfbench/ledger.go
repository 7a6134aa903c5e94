package main

import (
	"sync"
	"time"
)

// ledger checks and credits the deliveries of a workload whose groups
// have fixed membership (fanout-fifo, paper-stack, udp-loopback).
// Every member must deliver every cast exactly once, in per-origin
// FIFO order, with an intact body; when total order is checked, every
// member of a group must deliver the same sequence. Deliveries are
// credited to the cast's due time, so a window's offered and delivered
// counts are directly comparable and generator lateness shows up as
// latency rather than vanishing.
type ledger struct {
	mu      sync.Mutex // UDP handlers run on socket goroutines
	res     *result
	members int

	from, to time.Duration // due-time window whose casts are measured
	counting bool          // inside the host-cost window

	next   [][]uint64 // [group*members+member][origin] next expected seq
	sent   [][]uint64 // [group][origin] casts issued
	orders [][]uint64 // [group*members+member] delivery order, when checked
}

func newLedger(res *result, groups, members int, totalOrder bool) *ledger {
	l := &ledger{res: res, members: members}
	l.next = make([][]uint64, groups*members)
	for i := range l.next {
		l.next[i] = make([]uint64, members)
		for o := range l.next[i] {
			l.next[i][o] = 1
		}
	}
	l.sent = make([][]uint64, groups)
	for g := range l.sent {
		l.sent[g] = make([]uint64, members)
	}
	if totalOrder {
		l.orders = make([][]uint64, groups*members)
	}
	return l
}

// cast issues the next sequence number for origin in group g and
// credits the cast's expected deliveries when it is due in the window.
func (l *ledger) cast(g, origin int, due time.Duration) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent[g][origin]++
	if l.counting {
		l.res.cost.casts++
	}
	if due >= l.from && due < l.to {
		l.res.attempted += uint64(l.members)
	}
	return l.sent[g][origin]
}

// deliver records member m of group g delivering body at fabric time now.
func (l *ledger) deliver(g, m int, body []byte, now time.Duration) {
	p, ok := parsePayload(body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if !ok || int(p.origin) >= l.members {
		l.res.violation("integrity: g%d m%d delivered a corrupt %d-byte body", g, m, len(body))
		return
	}
	idx := g*l.members + m
	want := l.next[idx][p.origin]
	switch {
	case p.seq < want:
		l.res.violation("exactly-once: g%d m%d delivered origin %d seq %d again", g, m, p.origin, p.seq)
		return
	case p.seq > want:
		l.res.violation("fifo: g%d m%d delivered origin %d seq %d, expected %d", g, m, p.origin, p.seq, want)
	}
	l.next[idx][p.origin] = p.seq + 1
	if l.counting {
		l.res.cost.deliveries++
	}
	if l.orders != nil {
		l.orders[idx] = append(l.orders[idx], uint64(p.origin)<<48|p.seq)
	}
	if p.due >= l.from && p.due < l.to {
		l.res.delivered++
		l.res.lat = append(l.res.lat, int64(now-p.due))
	}
}

// setCounting opens or closes the host-cost window.
func (l *ledger) setCounting(on bool) {
	l.mu.Lock()
	l.counting = on
	l.mu.Unlock()
}

// complete reports whether every issued cast has reached every member.
func (l *ledger) complete() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for g := range l.sent {
		for m := 0; m < l.members; m++ {
			for o, n := range l.sent[g] {
				if l.next[g*l.members+m][o]-1 != n {
					return false
				}
			}
		}
	}
	return true
}

// finish runs the end-of-run checks: nothing issued may be missing at
// any member, and with total order every member's delivery sequence
// must match its group's first member.
func (l *ledger) finish() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for g := range l.sent {
		for m := 0; m < l.members; m++ {
			for o, n := range l.sent[g] {
				if got := l.next[g*l.members+m][o] - 1; got != n {
					l.res.gap("completeness: g%d m%d delivered %d of origin %d's %d casts", g, m, got, o, n)
				}
			}
		}
		if l.orders == nil {
			continue
		}
		ref := l.orders[g*l.members]
		for m := 1; m < l.members; m++ {
			o := l.orders[g*l.members+m]
			for i := range o {
				if i >= len(ref) || o[i] != ref[i] {
					l.res.violation("total order: g%d m%d diverges from m0 at delivery %d", g, m, i)
					break
				}
			}
		}
	}
}
