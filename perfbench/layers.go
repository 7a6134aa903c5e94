package main

import (
	"horus/internal/core"
	"horus/internal/layers/com"
	"horus/internal/layers/frag"
	"horus/internal/layers/hbeat"
	"horus/internal/layers/mbrship"
	"horus/internal/layers/nak"
	"horus/internal/layers/total"
)

// counters is a flat snapshot of the layer Stats() accessors (read via
// Group.Focus), the compiled-plan counters and Endpoint.Malformed,
// summed over a set of groups.
type counters map[string]float64

// readCounters sums the counters of every group. Callers serialize
// with the groups' event queues (the simulation loop, or Endpoint.Do).
func readCounters(gs []*core.Group) counters {
	c := counters{}
	for _, g := range gs {
		ps := g.Stack().PlanStats()
		c["plan.fast"] += float64(ps.Fast)
		c["plan.fallback"] += float64(ps.Fallback)
		c["core.malformed"] += float64(g.Endpoint().Malformed())
		for _, name := range tracedLayers {
			l := g.Focus(name)
			if l == nil {
				continue
			}
			switch s := unwrap(l).(type) {
			case *com.Com:
				c["com.filtered"] += float64(s.Stats().Filtered)
			case *nak.Nak:
				st := s.Stats()
				c["nak.status"] += float64(st.StatusSent)
				c["nak.retransmits"] += float64(st.Retransmits)
				c["nak.duplicates"] += float64(st.Duplicates)
			case *frag.Frag:
				st := s.Stats()
				c["frag.fragments"] += float64(st.Fragments)
				c["frag.reassembled"] += float64(st.Reassembled)
			case *total.Total:
				st := s.Stats()
				c["total.tokenops"] += float64(st.TokenOps)
				c["total.requests"] += float64(st.Requests)
				c["total.resubmits"] += float64(st.Resubmits)
			case *mbrship.Mbrship:
				st := s.Stats()
				c["mbrship.views"] += float64(st.ViewsInstalled)
				c["mbrship.flushes"] += float64(st.FlushRounds)
				c["mbrship.granted"] += float64(st.MergesGranted)
				c["mbrship.denied"] += float64(st.MergesDenied)
				c["mbrship.stale"] += float64(st.StaleDropped)
			case *hbeat.Hbeat:
				st := s.Stats()
				c["hbeat.beats"] += float64(st.BeatsSent)
				c["hbeat.suspicions"] += float64(st.Suspicions)
				c["hbeat.rearmed"] += float64(st.Rearmed)
			}
		}
	}
	return c
}

// sub returns c - b key-wise.
func (c counters) sub(b counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - b[k]
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a counter delta over the host-cost window into the
// per-layer metrics. casts is the number of casts issued in the window
// and seconds its length in fabric time.
func layerMetrics(res *result, d counters, casts, seconds float64) {
	del := float64(max(res.cost.deliveries, 1))
	useful := 1.0 // no retransmission attempted, nothing wasted
	if d["nak.retransmits"] > 0 {
		useful = 1 - d["nak.duplicates"]/d["nak.retransmits"]
	}
	falseSusp := ratio(d["hbeat.rearmed"], d["hbeat.suspicions"])
	set := func(name, unit string, v float64) { res.layer[name] = metric{v, unit} }
	set("core.plan.fast_share", "ratio", ratio(d["plan.fast"], d["plan.fast"]+d["plan.fallback"]))
	set("core.malformed", "count", d["core.malformed"])
	set("nak.status_per_delivery", "count", d["nak.status"]/del)
	set("nak.retransmits_per_delivery", "count", d["nak.retransmits"]/del)
	set("nak.retransmit_useful_ratio", "ratio", useful)
	set("total.token_ops_per_cast", "count", ratio(d["total.tokenops"], casts))
	set("total.requests_per_cast", "count", ratio(d["total.requests"], casts))
	set("total.resubmits", "count", d["total.resubmits"])
	set("frag.fragments_per_cast", "count", ratio(d["frag.fragments"], casts))
	set("frag.reassembled", "count", d["frag.reassembled"])
	set("mbrship.flush_rounds", "count", d["mbrship.flushes"])
	set("mbrship.views_installed", "count", d["mbrship.views"])
	set("mbrship.merge_grant_ratio", "ratio", ratio(d["mbrship.granted"], d["mbrship.granted"]+d["mbrship.denied"]))
	set("mbrship.stale_dropped", "count", d["mbrship.stale"])
	set("hbeat.beats_per_s", "1/s", ratio(d["hbeat.beats"], seconds))
	set("hbeat.suspicions", "count", d["hbeat.suspicions"])
	set("hbeat.false_suspicion_ratio", "ratio", falseSusp)
	set("com.filtered", "count", d["com.filtered"])
	set("runtime.gc_cpu_share", "ratio", res.cost.gcShare)
	set("runtime.gc_cycles", "count", float64(res.cost.gcCycles))
	// Metrics only some workloads measure read 0 elsewhere.
	for k, unit := range map[string]string{
		"udpnet.send_errors": "count", "udpnet.malformed": "count", "udpnet.truncated": "count",
		"mbrship.view_install_ms": "ms", "gen.lag_p99_ms": "ms",
	} {
		if _, ok := res.layer[k]; !ok {
			res.layer[k] = metric{0, unit}
		}
	}
}
