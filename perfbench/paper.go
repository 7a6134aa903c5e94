package main

import (
	"fmt"
	"math/rand"
	"time"

	"horus/internal/core"
	"horus/internal/netsim"
	"horus/internal/property"
	"horus/internal/stackreg"
)

// paperStack is the paper's §7 example stack.
const paperStack = "TOTAL:MBRSHIP:FRAG:NAK:COM"

// Paper-stack shape: 8 groups × 8 members, 1 % link loss, and a
// per-endpoint egress budget that puts the knee inside kneeGrid.
var (
	paperLink = netsim.Link{Delay: 100 * time.Microsecond, Jitter: 200 * time.Microsecond, LossRate: 0.01}
	paperHost = netsim.Host{EgressBudget: 8000000, EgressQueue: 256 << 10}
	kneeGrid  = []float64{25, 50, 100, 150, 200, 300, 400, 600}
)

const (
	paperRate            = 50.0 // casts/s per group in the measure window
	paperSpanPerSecond   = 3 * time.Second
	kneeLatencyBound     = 50 * time.Millisecond
	kneeRatioBound       = 0.95
	kneePointSpan        = 3 * time.Second
	paperLargeBodyShare  = 0.25
	paperLargeBody       = 4096
	paperSmallBody       = 64
	paperFormDeadline    = 30 * time.Second
	paperMergeRetryEvery = 150 * time.Millisecond
)

func paperShape() clusterShape {
	return clusterShape{
		groups: 8, members: 8, link: paperLink, host: paperHost, totalOrder: true,
		spec: func() (core.StackSpec, error) { return stackreg.Build(paperStack, property.P1) },
		form: mergeForm,
	}
}

func paperLoad(seed int64, rate float64) load {
	return load{seed: seed, rate: rate, bodySize: func(r *rand.Rand) int {
		if r.Float64() < paperLargeBodyShare {
			return paperLargeBody
		}
		return paperSmallBody
	}}
}

// runPaper is the paper-stack workload: the §7 stack from
// stackreg.Build with groups formed by real MBRSHIP merges, mixed
// 64 B / 4 KiB bodies (FRAG splits the large ones), 1 % loss and an
// egress budget. The measure window runs at paperRate; a load sweep on
// fresh clusters then locates knee_cps.
func runPaper(seed int64, seconds int, traced bool) (*result, error) {
	res := newResult()
	c, err := setupStatic(seed, paperShape(), res, traced)
	if err != nil {
		return nil, err
	}
	c.run(paperLoad(seed, paperRate), 200*time.Millisecond, time.Duration(seconds)*paperSpanPerSecond, time.Second)
	if !traced {
		knee, err := sweepKnee(seed, res)
		if err != nil {
			return nil, err
		}
		res.diag["knee_cps"] = metric{knee, "1/s"}
	}
	return res, nil
}

// sweepKnee runs the load grid on fresh clusters and returns the
// highest rate of the passing prefix: p99 ≤ kneeLatencyBound and
// delivered ratio ≥ kneeRatioBound. Each point checks the same
// correctness properties as the measured run, except that the first
// point past the knee is not required to be complete.
func sweepKnee(seed int64, res *result) (float64, error) {
	knee := 0.0
	for _, rate := range kneeGrid {
		pt := newResult()
		c, err := bootCluster(seed, paperShape(), pt, nil)
		if err != nil {
			return 0, err
		}
		c.run(paperLoad(seed, rate), 200*time.Millisecond, kneePointSpan, time.Second)
		ratio := float64(pt.delivered) / float64(max(pt.attempted, 1))
		p99 := quantileMs(pt.lat, 0.99)
		res.diag[fmt.Sprintf("knee_point_%g_p99_ms", rate)] = metric{p99, "ms"}
		res.diag[fmt.Sprintf("knee_point_%g_ratio", rate)] = metric{ratio, "ratio"}
		for _, e := range pt.errs {
			res.violation("knee sweep at %g casts/s: %s", rate, e)
		}
		if p99 > float64(kneeLatencyBound)/1e6 || ratio < kneeRatioBound {
			break // past the knee casts may still be missing after the drain
		}
		for _, e := range pt.gaps {
			res.gap("knee sweep at %g casts/s: %s", rate, e)
		}
		knee = rate
	}
	return knee, nil
}

// mergeForm brings every group to one full view through MBRSHIP merges
// toward its first (oldest) member, retrying denied or lost requests.
func mergeForm(c *staticCluster) error {
	deadline := c.net.Now() + paperFormDeadline
	for c.net.Now() < deadline {
		done := true
		for gi, gs := range c.groups {
			coord := gs[0].Endpoint().ID()
			for mi, g := range gs {
				if v := c.views[gi][mi]; v == nil || v.Size() != len(gs) || v.ID != c.views[gi][0].ID {
					done = false
					if mi > 0 && (v == nil || !v.Contains(coord)) {
						g.Merge(coord)
					}
				}
			}
		}
		if done {
			return nil
		}
		c.loop.runUntil(c.net.Now() + paperMergeRetryEvery)
	}
	return fmt.Errorf("paper-stack: groups did not form full views within %v", paperFormDeadline)
}
