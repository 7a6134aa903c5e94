package main

import (
	"reflect"
	"testing"
)

// virtualMetrics extracts every figure of a simulated run that is a
// function of fabric (virtual) time and the seed alone.
func virtualMetrics(r *result) map[string]float64 {
	e2e := r.endToEnd()
	out := map[string]float64{
		"attempted": float64(r.attempted),
		"delivered": float64(r.delivered),
	}
	for _, k := range []string{"latency_p50_ms", "wire_bytes_per_delivery", "packets_per_delivery", "delivered_ratio"} {
		out[k] = e2e[k].Value
	}
	for _, k := range []string{"latency_p99_ms", "knee_cps", "failover_ms", "latency_samples"} {
		if m, ok := r.diag[k]; ok {
			out[k] = m.Value
		}
	}
	return out
}

// TestSimDeterminism runs each simulated workload twice on one seed and
// demands identical virtual-time metrics, and checks that a second seed
// changes them (the seed reaches the inputs).
func TestSimDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every simulated workload three times")
	}
	for _, name := range []string{"fanout-fifo", "paper-stack", "churn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			var got []map[string]float64
			for _, seed := range []int64{11, 11, 12} {
				r, err := workloads[name](seed, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				if fails := r.failures(); len(fails) > 0 {
					t.Fatalf("seed %d: correctness: %v", seed, fails)
				}
				got = append(got, virtualMetrics(r))
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("same seed, different virtual-time metrics:\n%v\n%v", got[0], got[1])
			}
			if reflect.DeepEqual(got[0], got[2]) {
				t.Errorf("seeds 11 and 12 gave identical metrics %v", got[0])
			}
		})
	}
}
