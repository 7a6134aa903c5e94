// Command perfbench is the repository's cost ledger: it runs one named
// workload through real composed Horus stacks, checks that every
// delivery is correct, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics of a separate traced run) as one JSON
// object on the last line of standard output.
//
//	go run . -workload fanout-fifo -seed 1 -seconds 10 -trace 0
//
// The workloads, metrics and their rationale are documented in
// METRICS.md next to this file. The process exits non-zero when any
// correctness check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workload runs one benchmark workload. traced selects the span-
// recording stack decorator; the result carries everything measured.
type workload func(seed int64, seconds int, traced bool) (*result, error)

var workloads = map[string]workload{
	"fanout-fifo":  runFanout,
	"paper-stack":  runPaper,
	"churn":        runChurn,
	"udp-loopback": runUDP,
}

func main() {
	name := flag.String("workload", "", "workload name: fanout-fifo, paper-stack, churn or udp-loopback")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measure-phase length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}

	res, err := run(*seed, *seconds, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	metrics := res.endToEnd()
	if *trace == 1 {
		// The traced run is a second, separate measurement of the same
		// seed; end-to-end numbers always come from the untraced one.
		tres, err := run(*seed, *seconds, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		tres.errs = append(res.errs, tres.errs...)
		tres.gaps = append(res.gaps, tres.gaps...)
		tres.layer["trace.overhead_ratio"] = metric{tres.cpuPerDelivery() / res.cpuPerDelivery(), "ratio"}
		if err := tres.writeSpans(*name, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		res, metrics = tres, tres.layer
	}

	for _, k := range sortedKeys(res.diag) {
		m := res.diag[k]
		fmt.Printf("diag %s %s %v\n", k, m.Unit, m.Value)
	}
	fails := res.failures()
	for _, e := range fails {
		fmt.Fprintln(os.Stderr, "perfbench: correctness:", e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(fails) == 0, res.attempted, res.attempted - res.delivered, metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
