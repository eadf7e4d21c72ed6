package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (checked by TestCatalogMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd metrics come from untraced episodes.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"us_per_simsec", "us"},
	{"tick_ms_p50", "ms"},
	{"tick_ms_p95", "ms"},
	{"alloc_kb_per_tick", "KiB"},
	{"steady_heap_mb", "MiB"},
	{"query_us_p99", "us"},
}

// perLayer metrics come from traced episodes, plus the host reference
// and the median lookup time of the traced run's untraced twins. The
// median lookup time is not an end-to-end metric: it moves about 1.6×
// between the host's fast and slow phases, so its run-to-run spread
// exceeds any bound the benchmark may set.
var perLayer = []metricDef{
	{"mobility.advance_ms", "ms"},
	{"topology.rebuild_ms", "ms"},
	{"topology.edges", "count"},
	{"topology.rebuild_ns_per_edge", "ns"},
	{"topology.link_events_per_tick", "count"},
	{"cluster.maintain_ms", "ms"},
	{"cluster.diff_ms", "ms"},
	{"cluster.levels", "count"},
	{"cluster.nodes_all_levels", "count"},
	{"cluster.maintain_ns_per_node", "ns"},
	{"lm.update_ms", "ms"},
	{"lm.selects_per_tick", "count"},
	{"lm.keys_per_tick", "count"},
	{"lm.update_ns_per_key", "ns"},
	{"lm.measure_ms", "ms"},
	{"lm.transfers_per_tick", "count"},
	{"lm.table_entries", "count"},
	{"lm.query_selects_per_query", "count"},
	{"lm.query_keys_per_query", "count"},
	{"lm.query_ns_per_key", "ns"},
	{"lm.query_packets_per_query", "packets"},
	{"lm.query_us_p50", "us"},
	{"simnet.untimed_ms", "ms"},
	{"simnet.trace_overhead_ratio", "x"},
	{"runtime.gc_per_100_ticks", "count"},
	{"runtime.gc_pause_ms_per_tick", "ms"},
	{"host.ref_us", "us"},
}

// refNominalUS is the host speed the end-to-end host times are scaled
// to: a reference kernel time, in µs, typical of a 2-vCPU KVM Xeon
// guest, where host.ref_us ranged from 5.5k to 10.4k.
const refNominalUS = 8000

// hostScale is the factor that converts this run's host times to the
// nominal host speed. The host's memory contention drifts by up to 1.3×
// between sets of runs minutes apart, and the reference kernel, timed
// in the same run, drifts with it (see README.md, Host noise).
func (b *bench) hostScale() float64 { return refNominalUS / median(b.refUS) }

// endToEndValues computes the end-to-end metrics of an untraced run.
// Host times are scaled to the nominal host speed.
func (b *bench) endToEndValues() map[string]float64 {
	t, s := &b.untraced, b.hostScale()
	return map[string]float64{
		"setup_s":           s * median(b.setupS),
		"us_per_simsec":     s * median(t.episodeUS),
		"tick_ms_p50":       s * quantile(sorted(t.tickMS), 0.50),
		"tick_ms_p95":       s * quantile(sorted(t.tickMS), 0.95),
		"alloc_kb_per_tick": ratio(float64(t.allocBytes)/1024, t.allocTicks),
		"steady_heap_mb":    median(t.heapMB),
		"query_us_p99":      s * median(t.queryP99),
	}
}

// perLayerValues computes the per-layer metrics of a traced run.
// Times are medians over all traced ticks (or lookup batches); work
// counts cover the first exactEpisodes traced episodes, so they repeat
// exactly for a seed.
func (b *bench) perLayerValues() map[string]float64 {
	l, c := &b.lay, &b.lay.exact
	tracedP50 := quantile(sorted(b.traced.tickMS), 0.5)
	untracedP50 := quantile(sorted(b.untraced.tickMS), 0.5)
	return map[string]float64{
		"mobility.advance_ms":           median(l.advance),
		"topology.rebuild_ms":           median(l.rebuild),
		"topology.edges":                ratio(float64(c.edges), c.ticks),
		"topology.rebuild_ns_per_edge":  median(l.rebuildPerEdge),
		"topology.link_events_per_tick": ratio(c.linkEventsPerTick, c.episodes),
		"cluster.maintain_ms":           median(l.cluster),
		"cluster.diff_ms":               median(l.diff),
		"cluster.levels":                ratio(c.levels, c.episodes),
		"cluster.nodes_all_levels":      ratio(c.nodesAllLevels, c.episodes),
		"cluster.maintain_ns_per_node":  median(l.clusterPerNode),
		"lm.update_ms":                  median(l.update),
		"lm.selects_per_tick":           ratio(float64(c.selects), c.ticks),
		"lm.keys_per_tick":              ratio(float64(c.keys), c.ticks),
		"lm.update_ns_per_key":          median(l.updatePerKey),
		"lm.measure_ms":                 median(l.measure),
		"lm.transfers_per_tick":         ratio(float64(c.transfers), c.ticks),
		"lm.table_entries":              ratio(float64(c.entries), c.ticks),
		"lm.query_selects_per_query":    ratio(float64(c.querySelects), c.queries),
		"lm.query_keys_per_query":       ratio(float64(c.queryKeys), c.queries),
		"lm.query_ns_per_key":           median(l.queryPerKey),
		"lm.query_packets_per_query":    ratio(float64(c.queryPackets), c.queries),
		"lm.query_us_p50":               median(b.untraced.queryP50),
		"simnet.untimed_ms":             median(l.untimed),
		"simnet.trace_overhead_ratio":   tracedP50 / untracedP50,
		"runtime.gc_per_100_ticks":      ratio(100*float64(l.gcs), l.ticks),
		"runtime.gc_pause_ms_per_tick":  ratio(float64(l.gcPauseNS)/1e6, l.ticks),
		"host.ref_us":                   median(b.refUS),
	}
}

func ratio(x float64, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return x / float64(n)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quantile interpolates linearly between the order statistics of a
// sorted sample; NaN for an empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
