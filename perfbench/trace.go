//horus:wallclock — spans time host execution with the monotonic wall clock; span times are reported, never fed back into the simulation.

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"horus/internal/core"
	"horus/internal/message"
)

// Span kinds. Layer spans are laid out as layerBase + 2*layer + dir.
const (
	spanStep    = iota // netsim.Network.Step that fired a timer or generator event
	spanDeliver        // netsim.Network.Step that delivered a packet (Endpoint.Deliver)
	spanCast           // Group.Cast, including the compiled plan
	spanHandler        // application handler
	layerBase
)

// numSpans counts the span kinds: the four above plus Down and Up for
// each traced layer.
const numSpans = layerBase + 2*6

// comUp is the bottom layer's Up span: a Step that opens it delivered
// a packet.
var comUp = layerSpan("COM", false)

// tracedLayers are the modules whose Down/Up the decorator times.
var tracedLayers = []string{"COM", "NAK", "FRAG", "TOTAL", "MBRSHIP", "HBEAT"}

var spanNames = func() []string {
	names := []string{"netsim.step", "core.deliver", "core.cast", "app.handler"}
	for _, l := range tracedLayers {
		names = append(names, strings.ToLower(l)+".down", strings.ToLower(l)+".up")
	}
	return names
}()

func layerSpan(name string, down bool) int {
	for i, l := range tracedLayers {
		if l == name {
			if down {
				return layerBase + 2*i
			}
			return layerBase + 2*i + 1
		}
	}
	return -1
}

// spanRec is one raw span of the bounded sample.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cast   uint64 `json:"cast"` // origin<<48|seq of the cast being sent, 0 if unknown
}

type openSpan struct {
	kind     int
	id       uint64
	parent   uint64
	cast     uint64
	start    int64
	children int64 // time covered by direct children
}

// tracer records spans for the stacks of one execution context: the
// whole simulation (one goroutine), or one UDP endpoint (its executor
// serializes every span). Sums are aggregated online; raw spans are
// kept only as a bounded sample.
type tracer struct {
	base  time.Time
	stack []openSpan
	seq   uint64

	total [numSpans]int64 // summed self time per kind, ns
	count [numSpans]uint64

	sample []spanRec
}

// The raw span sample keeps every 61st span, at most 4096 of them.
const (
	spanSampleEvery = 61
	spanSampleCap   = 4096
)

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, sample: make([]spanRec, 0, spanSampleCap)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) open(kind int, cast uint64) {
	t.seq++
	var parent uint64
	if n := len(t.stack); n > 0 {
		top := &t.stack[n-1]
		parent = top.id
		if cast == 0 {
			cast = top.cast
		}
		if top.kind == spanStep && kind == comUp {
			top.kind = spanDeliver // this step delivered a packet
		}
	}
	t.stack = append(t.stack, openSpan{kind: kind, id: t.seq, parent: parent, cast: cast, start: t.now()})
}

func (t *tracer) close() {
	end := t.now()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - s.start
	t.total[s.kind] += dur - s.children
	t.count[s.kind]++
	if n > 0 {
		t.stack[n-1].children += dur
	}
	if s.id%spanSampleEvery == 0 && len(t.sample) < cap(t.sample) {
		t.sample = append(t.sample, spanRec{ID: s.id, Parent: s.parent, Name: spanNames[s.kind], Start: s.start, End: end, Cast: s.cast})
	}
}

// reset discards everything recorded so far; the measure window starts
// with no span open.
func (t *tracer) reset() {
	t.total, t.count = [numSpans]int64{}, [numSpans]uint64{}
	t.sample = t.sample[:0]
}

// merge folds another tracer's sums and sample into t.
func (t *tracer) merge(o *tracer) {
	for i := range t.total {
		t.total[i] += o.total[i]
		t.count[i] += o.count[i]
	}
	for _, s := range o.sample {
		if len(t.sample) < cap(t.sample) {
			t.sample = append(t.sample, s)
		}
	}
}

// report writes the per-span self times as µs per delivery, plus the
// unattributed remainder of the measured time, so that the self times
// and trace.unattributed_us add up to trace.measured_us by definition.
// measured is the traced run's measured time in ns: the wall time of
// the measure phase on the simulated fabric, process CPU on UDP.
func (t *tracer) report(res *result, measured float64) {
	d := float64(max(res.cost.deliveries, 1))
	var selfSum float64
	for k, name := range spanNames {
		res.layer[name+".self_us"] = metric{float64(t.total[k]) / 1e3 / d, "us/delivery"}
		selfSum += float64(t.total[k])
	}
	res.layer["trace.measured_us"] = metric{measured / 1e3 / d, "us/delivery"}
	res.layer["trace.unattributed_us"] = metric{(measured - selfSum) / 1e3 / d, "us/delivery"}
	res.layer["netsim.events_per_delivery"] = metric{float64(t.count[spanStep]+t.count[spanDeliver]) / d, "count"}
	res.spans = t.sample
}

// writeSpans writes the raw span sample under .bench_build/spans.
func (r *result) writeSpans(workload string, seed int64) error {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, seed)), b, 0o644)
}

// tracedLayer is the timing decorator wrapped around every layer of a
// traced stack. It forwards core.Skipper and core.CastCompiler, so the
// traced stack skips the same layers and compiles the same send plan
// as the untraced one, and exposes the inner layer for Stats reads.
type tracedLayer struct {
	inner    core.Layer
	tr       *tracer
	up, down int
}

// traceSpec wraps every factory of spec in the timing decorator; a nil
// tracer returns spec unchanged.
func traceSpec(spec core.StackSpec, tr *tracer) core.StackSpec {
	if tr == nil {
		return spec
	}
	out := make(core.StackSpec, len(spec))
	for i, f := range spec {
		f := f
		out[i] = func() core.Layer {
			l := f()
			return &tracedLayer{inner: l, tr: tr, up: layerSpan(l.Name(), false), down: layerSpan(l.Name(), true)}
		}
	}
	return out
}

func (l *tracedLayer) Name() string               { return l.inner.Name() }
func (l *tracedLayer) Init(c *core.Context) error { return l.inner.Init(c) }
func (l *tracedLayer) Inner() core.Layer          { return l.inner }

func (l *tracedLayer) Down(ev *core.Event) {
	l.tr.open(l.down, 0)
	l.inner.Down(ev)
	l.tr.close()
}

func (l *tracedLayer) Up(ev *core.Event) {
	l.tr.open(l.up, 0)
	l.inner.Up(ev)
	l.tr.close()
}

// Transparent forwards core.Skipper.
func (l *tracedLayer) Transparent(t core.EventType, down bool) bool {
	s, ok := l.inner.(core.Skipper)
	return ok && s.Transparent(t, down)
}

// CompileCast forwards core.CastCompiler, timing the hooks that do the
// layer's per-cast work (Fill, Transmit, Post) as its Down span. The
// pure eligibility hooks are passed through untouched.
func (l *tracedLayer) CompileCast() (core.CompiledCast, bool) {
	c, ok := l.inner.(core.CastCompiler)
	if !ok {
		return core.CompiledCast{}, false
	}
	cc, ok := c.CompileCast()
	if !ok {
		return cc, false
	}
	if fill := cc.Fill; fill != nil {
		cc.Fill = func(f *core.CastFrame) {
			l.tr.open(l.down, 0)
			fill(f)
			l.tr.close()
		}
	}
	if transmit := cc.Transmit; transmit != nil {
		cc.Transmit = func(ev *core.Event, w []byte) {
			l.tr.open(l.down, 0)
			transmit(ev, w)
			l.tr.close()
		}
	}
	if post := cc.Post; post != nil {
		cc.Post = func(ev *core.Event) {
			l.tr.open(l.down, 0)
			post(ev)
			l.tr.close()
		}
	}
	return cc, true
}

// unwrap returns the layer under a tracing decorator.
func unwrap(l core.Layer) core.Layer {
	if t, ok := l.(*tracedLayer); ok {
		return t.inner
	}
	return l
}

// tracedHandler wraps an application handler in its span.
func tracedHandler(tr *tracer, h core.Handler) core.Handler {
	if tr == nil {
		return h
	}
	return func(ev *core.Event) {
		tr.open(spanHandler, 0)
		h(ev)
		tr.close()
	}
}

// castOn issues g.Cast(m), inside a Group.Cast span when traced. The
// span opens on the endpoint's event queue and closes in a closure
// queued behind the cast, so it covers the cast's own execution.
func castOn(tr *tracer, g *core.Group, m *message.Message, id uint64) {
	if tr == nil {
		g.Cast(m)
		return
	}
	ep := g.Endpoint()
	ep.Do(func() {
		tr.open(spanCast, id)
		g.Cast(m)
		ep.Do(tr.close)
	})
}
