package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyN keeps the tests fast; golden digests apply only at defaultN.
const tinyN = 96

func tinyRun(t *testing.T, w workload, seed uint64, trace bool) (result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := runBench(options{workload: w, seed: seed, seconds: 0.01, trace: trace, n: tinyN}, &out)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", w.name, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
			w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// The exact counts must repeat exactly across runs of one seed: a
// later change may claim a count change only because they do.
func TestExactCountsRepeat(t *testing.T) {
	exact := []string{
		"lm.keys_per_tick", "lm.selects_per_tick", "topology.edges",
		"lm.transfers_per_tick", "lm.query_packets_per_query",
	}
	for _, w := range workloads {
		a, _ := tinyRun(t, w, 7, true)
		b, _ := tinyRun(t, w, 7, true)
		for _, name := range exact {
			va, vb := a.Metrics[name].Value, b.Metrics[name].Value
			if va != vb || va <= 0 {
				t.Errorf("%s %s: %v then %v", w.name, name, va, vb)
			}
		}
	}
}

// Every named metric is printed, in the JSON line and the report, with
// its unit.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	w := workloads[len(workloads)-1]
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		res, report := tinyRun(t, w, 3, trace)
		if len(res.Metrics) != len(defs) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit {
				t.Errorf("trace=%v: metric %s = %+v, want unit %q", trace, d.name, m, d.unit)
			}
			if !strings.Contains(report, d.name) {
				t.Errorf("trace=%v: report lacks %s", trace, d.name)
			}
		}
	}
}

// A different seed must give a different digest, or the gate would
// not see a changed simulation.
func TestDigestSeesChangedOutput(t *testing.T) {
	w := workloads[0]
	b, err := newBench(options{workload: w, seed: 1, n: tinyN})
	if err != nil {
		t.Fatal(err)
	}
	defer b.ref.close()
	x, err := b.episode(1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	y, err := b.episode(2, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if x.digest == y.digest || x.checksum == y.checksum {
		t.Errorf("seeds 1 and 2 give the same output %v", x)
	}
}

// The catalog here and BENCHMARK.json name the same workloads and
// metrics, with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: %s vs %s", i, spec.Workloads[i].Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark %d", len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
