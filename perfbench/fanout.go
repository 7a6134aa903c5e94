package main

import (
	"math/rand"
	"time"

	"horus/internal/core"
	"horus/internal/loadgen"
	"horus/internal/netsim"
)

// runFanout is the fanout-fifo workload: 100 groups × 10 members on the
// simulated fabric, fifo NAK:COM on the compiled fast path, 64-byte
// bodies at 200 casts/s per group from the default cohort mix, lossless
// 200 µs ± 100 µs links. Every cast fans out to ten receivers, so the
// per-packet receive path dominates.
func runFanout(seed int64, seconds int, traced bool) (*result, error) {
	sh := clusterShape{
		groups: 100, members: 10,
		link: netsim.Link{Delay: 100 * time.Microsecond, Jitter: 200 * time.Microsecond},
		spec: func() (core.StackSpec, error) {
			spec, _, err := loadgen.StackSpecFor("fifo")
			return spec, err
		},
		form: installStatic,
	}
	res := newResult()
	c, err := setupStatic(seed, sh, res, traced)
	if err != nil {
		return nil, err
	}
	l := load{seed: seed, rate: 200, bodySize: func(*rand.Rand) int { return 64 }}
	c.run(l, 200*time.Millisecond, time.Duration(seconds)*fanoutSpanPerSecond, 300*time.Millisecond)
	return res, nil
}

// fanoutSpanPerSecond is the virtual measure span per requested second.
// The span is a fixed function of -seconds, never of the host's speed,
// so the virtual-time metrics of a seed are reproducible anywhere.
const fanoutSpanPerSecond = 170 * time.Millisecond

// setupStatic sets up a static-group cluster (see setUp) and returns
// the instance to measure.
func setupStatic(seed int64, sh clusterShape, res *result, traced bool) (*staticCluster, error) {
	return setUp(res, traced, func(rep int, last bool, tr *tracer) (*staticCluster, setupCost, error) {
		c, err := bootCluster(setupSeed(seed, rep, last), sh, res, tr)
		if err != nil {
			return nil, setupCost{}, err
		}
		return c, setupCost{c.buildMs, c.joinMs}, nil
	}, nil)
}
