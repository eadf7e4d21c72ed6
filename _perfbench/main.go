// Command perfbench is the repository's benchmark: it drives the
// simulator's tick pipeline (mobility, link build, hierarchy, CHLM
// table update, handoff accounting) and the CHLM lookup path through
// their public entry points, times them on the host, checks that the
// simulated output is unchanged, and prints one JSON result line.
//
//	bash _perfbench/run.sh --workload lookup-2k --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the output gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", defaultSeed, "benchmark seed; the simulation seed and lookup pairs derive from it")
	seconds := flag.Float64("seconds", 20, "measured host seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := runBench(options{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBench performs one run and writes a readable report to out. An
// operation is a measured tick or a lookup. A lookup fails when it does
// not find its destination; when any digest or checksum check fails,
// every operation of the run counts as failed.
func runBench(opt options, out io.Writer) (result, error) {
	b, err := newBench(opt)
	if err != nil {
		return result{}, err
	}
	if err := b.run(); err != nil {
		return result{}, err
	}
	defs, values := endToEnd, b.endToEndValues()
	if opt.trace {
		defs, values = perLayer, b.perLayerValues()
	}
	attempted := b.ticks + b.lookups
	failed := b.failedLookups
	if len(b.mismatches) > 0 {
		failed = attempted
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}

	fmt.Fprintf(out, "perfbench %s seed=%d trace=%v: %d episodes, %d measured ticks, %d lookups (%d failed)\n",
		opt.workload.name, opt.seed, opt.trace, b.episodes, b.ticks, b.lookups, b.failedLookups)
	for _, m := range b.mismatches {
		fmt.Fprintf(out, "MISMATCH %s\n", m)
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s has no samples", d.name)
		}
		res.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	if !opt.trace {
		fmt.Fprintf(out, "  %-32s %14.6g us (host reference, not a program metric; host times above are scaled by %d/host.ref_us = %.4f)\n",
			"host.ref_us", median(b.refUS), refNominalUS, b.hostScale())
	}
	return res, nil
}
