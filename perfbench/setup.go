//horus:wallclock — set-up is timed on the process CPU clock and the wall clock (setup_s); nothing timed here is scheduled on a simulated fabric.

package main

import (
	"runtime"
	"time"
)

// Set-up repetition: every workload sets up setupWarm times uncounted,
// then at least minSetups times and until setupBudget has passed (at
// most maxSetups times in all), and reports the median as setup_s.
// Cheap set-ups repeat more, which is what steadies a median of
// sub-millisecond times.
const (
	setupWarm   = 2
	minSetups   = 9
	maxSetups   = 101
	setupBudget = 1500 * time.Millisecond
)

// setupCost is the split of one set-up that the per-layer metrics report.
type setupCost struct{ buildMs, joinMs float64 }

// setUp runs boot repeatedly, timing each call. Only the last instance
// is measured: it alone is traced (when traced) and built on the run's
// seed; boot derives another seed for the earlier ones, so the median
// averages over seed-dependent membership convergence. discard releases
// each earlier instance.
//
// Each set-up starts from a collected heap and is timed in process CPU
// seconds (user+sys, garbage collection included): on a shared host the
// wall time of a set-up also holds the time the process waited for a
// CPU, which moves with the neighbours' load. The median wall time is
// reported as the setup_wall_s diagnostic.
func setUp[T any](res *result, traced bool, boot func(rep int, last bool, tr *tracer) (T, setupCost, error), discard func(T)) (T, error) {
	var (
		walls, builds, joins []float64
		spent                float64
	)
	for i := 0; ; i++ {
		n := i + 1 - setupWarm // counted set-ups once this one is done
		last := i+1 >= maxSetups || (n >= minSetups && spent >= setupBudget.Seconds())
		var tr *tracer
		if traced && last {
			tr = newTracer(time.Now())
		}
		runtime.GC()
		t0, c0 := wallSeconds(), cpuSeconds()
		inst, sc, err := boot(i, last, tr)
		if err != nil {
			return inst, err
		}
		cpu, wall := cpuSeconds()-c0, wallSeconds()-t0
		if n > 0 {
			spent += wall
			res.setup = append(res.setup, cpu)
			walls = append(walls, wall)
			builds, joins = append(builds, sc.buildMs), append(joins, sc.joinMs)
		}
		if last {
			res.diag["setup_wall_s"] = metric{median(walls), "s"}
			res.layer["stackreg.build_ms"] = metric{median(builds), "ms"}
			res.layer["core.join_ms"] = metric{median(joins), "ms"}
			return inst, nil
		}
		if discard != nil {
			discard(inst)
		}
	}
}

// setupSeed is the seed set-up rep is built on: the run's own for the
// measured (last) one, a derived one otherwise.
func setupSeed(seed int64, rep int, last bool) int64 {
	if last {
		return seed
	}
	return mixSeed(seed, 1<<10+rep, 0)
}
