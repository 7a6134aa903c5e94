//horus:wallclock — RealTime is the wall-clock transport by definition:
// goroutines and real timers stand in for the simulator's event queue.

package netsim

import (
	"sync"
	"time"

	"horus/internal/core"
)

// RealTime is a goroutine-based in-process transport using wall-clock
// timers. It provides the same best-effort semantics as Network — the
// same link rules between every pair — but runs in real time, for
// example programs that want to feel like a live system. Determinism
// is not guaranteed; tests should use Network.
type RealTime struct {
	mu        sync.Mutex
	rules     *Rules
	endpoints map[core.EndpointID]*core.Endpoint
	order     []core.EndpointID
	nextBirth uint64
	start     time.Time
}

// NewRealTime creates a real-time transport with the given link
// behaviour between every pair.
func NewRealTime(seed int64, link Link) *RealTime {
	return &RealTime{
		rules:     NewRules(seed, link),
		endpoints: make(map[core.EndpointID]*core.Endpoint),
		nextBirth: 1,
		start:     time.Now(),
	}
}

// NewEndpoint creates and attaches an endpoint at the named site.
func (r *RealTime) NewEndpoint(site string) *core.Endpoint {
	r.mu.Lock()
	id := core.EndpointID{Site: site, Birth: r.nextBirth}
	r.nextBirth++
	r.mu.Unlock()
	ep := core.NewEndpoint(id, r)
	r.mu.Lock()
	r.endpoints[id] = ep
	r.order = append(r.order, id)
	r.mu.Unlock()
	return ep
}

// Crash fail-stops the endpoint.
func (r *RealTime) Crash(id core.EndpointID) {
	r.mu.Lock()
	ep := r.endpoints[id]
	r.rules.Crash(id)
	r.mu.Unlock()
	if ep != nil {
		ep.Destroy()
	}
}

// Send implements core.Transport.
func (r *RealTime) Send(from core.EndpointID, group core.GroupAddr, dests []core.EndpointID, wire []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rules.Crashed(from) {
		return
	}
	targets := dests
	if len(targets) == 0 {
		targets = r.order
	}
	// One copy shared by every destination: deliveries only read it.
	shared := append([]byte(nil), wire...)
	for _, dst := range targets {
		adm := r.rules.Admit(from, dst, r.endpoints[dst] != nil)
		for i := 0; i < adm.Copies; i++ {
			c := r.rules.DrawCopy(adm.Link, shared)
			if c.Lost {
				continue
			}
			if c.Hold {
				r.rules.Hold(from, dst, adm.Link, r.releaser(from, group, dst, c.Buf), r.backstop)
				continue
			}
			r.transmitLocked(from, group, dst, c.Buf)
			r.rules.Depart(from, dst)
		}
	}
}

// transmitLocked times one packet through the rules and delivers it
// on a timer goroutine, so Send never blocks on the receiver. Caller
// holds r.mu.
func (r *RealTime) transmitLocked(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte) {
	ep := r.endpoints[dst]
	delay, ok := r.rules.Transmit(from, dst, ep != nil, r.Now(), len(buf))
	if !ok {
		return
	}
	time.AfterFunc(delay, func() { ep.Deliver(group, buf) })
}

// releaser returns the release of a held packet: it transmits the
// packet under the rules in force at that moment. Caller holds r.mu
// when calling the result.
func (r *RealTime) releaser(from core.EndpointID, group core.GroupAddr, dst core.EndpointID, buf []byte) func() {
	return func() { r.transmitLocked(from, group, dst, buf) }
}

// backstop arms a reorder hold's backstop as a wall-clock timer;
// fireLocked runs under r.mu.
func (r *RealTime) backstop(d time.Duration, fireLocked func()) {
	time.AfterFunc(d, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		fireLocked()
	})
}

// SetTimer implements core.Transport using wall-clock timers.
func (r *RealTime) SetTimer(d time.Duration, fn func()) (cancel func()) {
	t := time.AfterFunc(d, fn)
	return func() { t.Stop() }
}

// Now implements core.Transport: wall time since transport creation.
func (r *RealTime) Now() time.Duration { return time.Since(r.start) }
