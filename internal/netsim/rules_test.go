package netsim

import (
	"bytes"
	"testing"
	"time"

	"horus/internal/core"
)

// fakeBackstops collects the hold backstops a Rules arms, so a test
// fires them by hand instead of waiting on a clock.
type fakeBackstops struct {
	delays []time.Duration
	fires  []func()
}

func (b *fakeBackstops) schedule(d time.Duration, fire func()) {
	b.delays = append(b.delays, d)
	b.fires = append(b.fires, fire)
}

var (
	ruleA = core.EndpointID{Site: "a", Birth: 1}
	ruleB = core.EndpointID{Site: "b", Birth: 2}
	ruleC = core.EndpointID{Site: "c", Birth: 3}
)

// route drives one packet through r the way every fabric does and
// returns the bytes of every copy that survived loss. Released holds
// append their delivery delay to released.
func route(r *Rules, from, to core.EndpointID, now time.Duration, buf []byte, bs *fakeBackstops, released *[]time.Duration) (bufs [][]byte) {
	adm := r.Admit(from, to, true)
	for i := 0; i < adm.Copies; i++ {
		c := r.DrawCopy(adm.Link, buf)
		if c.Lost {
			continue
		}
		bufs = append(bufs, c.Buf)
		if c.Hold {
			size := len(c.Buf)
			r.Hold(from, to, adm.Link, func() {
				if d, ok := r.Transmit(from, to, true, now, size); ok {
					*released = append(*released, d)
				}
			}, bs.schedule)
			continue
		}
		r.Transmit(from, to, true, now, len(c.Buf))
		r.Depart(from, to)
	}
	return bufs
}

// TestRulesDupGarbleIndependentCopies: a duplicated packet is garbled
// per copy, each copy a separate clone, and the original is untouched.
func TestRulesDupGarbleIndependentCopies(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := NewRules(seed, Link{DupRate: 1, GarbleRate: 1})
		orig := []byte("0123456789abcdef")
		pkt := append([]byte(nil), orig...)
		bufs := route(r, ruleA, ruleB, 0, pkt, &fakeBackstops{}, nil)
		if len(bufs) != 2 {
			t.Fatalf("seed %d: %d copies, want 2", seed, len(bufs))
		}
		if got := r.Ledger(); got.Duplicated != 1 || got.Garbled != 2 {
			t.Fatalf("seed %d: ledger %+v, want Duplicated=1 Garbled=2", seed, got)
		}
		if !bytes.Equal(pkt, orig) {
			t.Fatalf("seed %d: garbling mutated the caller's buffer", seed)
		}
		for i, b := range bufs {
			if bytes.Equal(b, orig) {
				t.Fatalf("seed %d: copy %d left intact", seed, i)
			}
		}
		if &bufs[0][0] == &bufs[1][0] {
			t.Fatalf("seed %d: both copies share one buffer", seed)
		}
	}
}

// TestRulesHoldRelease: a held copy is released by ReorderDepth later
// departures, or by its backstop when the link goes quiet — exactly
// once either way.
func TestRulesHoldRelease(t *testing.T) {
	cases := []struct {
		name         string
		followers    int
		fireBackstop bool
		wantReleased int
	}{
		{"depth reached", 2, false, 1},
		{"depth reached, late backstop is a no-op", 2, true, 1},
		{"quiet link, backstop releases", 1, true, 1},
		{"quiet link, backstop pending", 1, false, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRules(1, Link{})
			r.SetLinkDirected(ruleA, ruleB, Link{ReorderRate: 1, ReorderDepth: 2, ReorderHold: 40 * time.Millisecond})
			var bs fakeBackstops
			var released []time.Duration
			route(r, ruleA, ruleB, 0, []byte("held"), &bs, &released)
			if len(bs.delays) != 1 || bs.delays[0] != 40*time.Millisecond {
				t.Fatalf("backstops %v, want one at 40ms", bs.delays)
			}
			r.ClearLink(ruleA, ruleB)
			for i := 0; i < c.followers; i++ {
				route(r, ruleA, ruleB, 0, []byte("next"), &bs, &released)
			}
			if c.fireBackstop {
				bs.fires[0]()
			}
			if len(released) != c.wantReleased {
				t.Fatalf("released %d times, want %d", len(released), c.wantReleased)
			}
			if got := r.Ledger().Reordered; got != 1 {
				t.Fatalf("Reordered = %d, want 1", got)
			}
		})
	}
}

// TestRulesHoldDefaults: zero depth and hold mean the defaults.
func TestRulesHoldDefaults(t *testing.T) {
	r := NewRules(1, Link{ReorderRate: 1})
	var bs fakeBackstops
	var released []time.Duration
	route(r, ruleA, ruleB, 0, []byte("held"), &bs, &released)
	if len(bs.delays) != 1 || bs.delays[0] != DefaultReorderHold {
		t.Fatalf("backstops %v, want one at %v", bs.delays, DefaultReorderHold)
	}
	r.SetDefaultLink(Link{})
	for i := 0; i < DefaultReorderDepth; i++ {
		if len(released) != 0 {
			t.Fatalf("released after %d of %d departures", i, DefaultReorderDepth)
		}
		route(r, ruleA, ruleB, 0, []byte("next"), &bs, &released)
	}
	if len(released) != 1 {
		t.Fatalf("released %d times after %d departures, want 1", len(released), DefaultReorderDepth)
	}
}

// TestRulesReleaseRereadsRules: a release is timed by the link and
// crash state in force when it departs, not when it was held.
func TestRulesReleaseRereadsRules(t *testing.T) {
	hold := Link{ReorderRate: 1, ReorderDepth: 5, Delay: time.Millisecond}

	r := NewRules(1, hold)
	var bs fakeBackstops
	var released []time.Duration
	route(r, ruleA, ruleB, 0, []byte("held"), &bs, &released)
	r.SetDefaultLink(Link{Delay: 7 * time.Millisecond})
	bs.fires[0]()
	if len(released) != 1 || released[0] != 7*time.Millisecond {
		t.Fatalf("released with delays %v, want [7ms] from the link in force at release", released)
	}

	r = NewRules(1, hold)
	bs, released = fakeBackstops{}, nil
	route(r, ruleA, ruleB, 0, []byte("held"), &bs, &released)
	r.Crash(ruleB)
	bs.fires[0]()
	if len(released) != 0 {
		t.Fatalf("a copy held for a crashed endpoint departed: %v", released)
	}
	if got := r.Ledger().Blocked; got != 1 {
		t.Fatalf("Blocked = %d, want 1 for the release to a crashed endpoint", got)
	}
}

// TestRulesForgetLeavesNoState: after Forget, no map holds a key that
// mentions the endpoint; state of other endpoints survives.
func TestRulesForgetLeavesNoState(t *testing.T) {
	r := NewRules(1, Link{})
	var bs fakeBackstops
	var released []time.Duration
	r.SetLinkDirected(ruleA, ruleC, Link{ReorderRate: 1, ReorderDepth: 10})
	route(r, ruleA, ruleC, 0, []byte("held"), &bs, &released)
	// 6, 7 and 8 bytes against 10 B/s and a 20-byte queue: granted,
	// congested, collapse-dropped.
	r.SetHost(ruleA, Host{EgressBudget: 10, EgressQueue: 20})
	r.SetLinkDirected(ruleA, ruleB, Link{Bandwidth: 1000})
	for _, pkt := range []string{"xxxxxx", "yyyyyyy", "zzzzzzzz"} {
		route(r, ruleA, ruleB, 0, []byte(pkt), &bs, &released)
	}
	r.SetLink(ruleB, ruleC, Link{Bandwidth: 1000})
	route(r, ruleB, ruleC, 0, []byte("other"), &bs, &released)
	r.Partition([]core.EndpointID{ruleA, ruleB})
	r.Crash(ruleA)

	mentions := func(id core.EndpointID) []string {
		var where []string
		for p := range r.links {
			if p.a == id || p.b == id {
				where = append(where, "links")
			}
		}
		for p := range r.linkFree {
			if p.a == id || p.b == id {
				where = append(where, "linkFree")
			}
		}
		for p := range r.held {
			if p.a == id || p.b == id {
				where = append(where, "held")
			}
		}
		if _, ok := r.crashed[id]; ok {
			where = append(where, "crashed")
		}
		if _, ok := r.partition[id]; ok {
			where = append(where, "partition")
		}
		if _, ok := r.hosts[id]; ok {
			where = append(where, "hosts")
		}
		if _, ok := r.egressFree[id]; ok {
			where = append(where, "egressFree")
		}
		if _, ok := r.egressCongested[id]; ok {
			where = append(where, "egressCongested")
		}
		if _, ok := r.egressDropped[id]; ok {
			where = append(where, "egressDropped")
		}
		return where
	}
	before := mentions(ruleA)
	for _, m := range []string{"links", "linkFree", "held", "crashed", "partition", "hosts", "egressFree", "egressCongested", "egressDropped"} {
		found := false
		for _, w := range before {
			found = found || w == m
		}
		if !found {
			t.Fatalf("setup never populated %s for a (have %v)", m, before)
		}
	}

	r.Forget(ruleA)
	if left := mentions(ruleA); len(left) != 0 {
		t.Fatalf("Forget left state behind in %v", left)
	}
	if got := mentions(ruleB); len(got) != 4 {
		t.Fatalf("Forget(a) touched b's state: left %v, want links×2, linkFree, partition", got)
	}
}
