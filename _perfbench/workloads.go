package main

import "repro/internal/simnet"

// workload is one traffic definition: node count, speed, link model,
// scan interval and location lookups. It never names an
// implementation knob (engine, maintainer, intra-tick parallelism,
// elector), so a change to any of those shows up as a measured gain or
// loss here rather than as a benchmark edit.
type workload struct {
	name string
	link string  // level-0 link model; "" keeps the default unit disk
	scan float64 // scan interval, s; 0 keeps the default (1 s at μ=10)

	// One episode simulates warmup+duration seconds from a fresh
	// Stepper; only ticks after warmup are measured.
	warmup, duration float64

	// lookups is the closed-loop lookup count after every measured
	// tick. Workloads with none still resolve probeLookups lookups on
	// the final snapshot of each episode, so every workload measures
	// the read path and checks that lookups succeed.
	lookups int
}

const (
	defaultN     = 2048
	defaultSeed  = 1
	mu           = 10.0 // node speed, m/s (the paper's waypoint μ)
	probeLookups = 8192
)

var workloads = []workload{
	{
		name:   "lookup-2k",
		warmup: 10, duration: 20,
		lookups: 8192,
	},
	{
		name:   "shadow-2k",
		link:   simnet.LinkLogShadow,
		warmup: 10, duration: 20,
	},
	{
		name:   "fine-2k",
		scan:   0.1,
		warmup: 1, duration: 2,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config builds a fresh simulation config for one episode. Nothing in
// it carries state between episodes: elector and hash are left to
// their defaults, or set to a fresh benchmark-side wrapper by the
// caller in traced episodes.
func (w workload) config(n int, simSeed uint64) simnet.Config {
	return simnet.Config{
		N:            n,
		Seed:         simSeed,
		Mu:           mu,
		Link:         w.link,
		ScanInterval: w.scan,
		Warmup:       w.warmup,
		Duration:     w.duration,
	}
}

// Seeds derived from the benchmark seed: episode e of a run has its
// own seed, and the simulation seed and lookup-pair stream are
// independent functions of that.
func episodeSeed(seed uint64, e int) uint64 { return splitmix(splitmix(seed) + uint64(e)) }

func simSeed(seed uint64) uint64    { return splitmix(seed ^ 0x5349_4d00) }
func lookupSeed(seed uint64) uint64 { return splitmix(seed ^ 0x4c4b_5550) }

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
