package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/lm"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/topology"
)

const (
	setupReps     = 9   // fresh constructions timed before the episodes
	exactEpisodes = 4   // traced episodes the exact per-layer counts cover
	minTicks      = 200 // measured ticks per untraced run, so ≥ 10 lie beyond p95
	refSamples    = 3   // host reference samples after each episode
)

// options selects one benchmark run.
type options struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	n        int // node count; 0 keeps defaultN
}

// countingHash is the traced episodes' hash family: it delegates to
// the default rendezvous hash and counts Select calls and candidate
// keys.
type countingHash struct {
	inner         lm.Rendezvous
	selects, keys atomic.Int64
}

func (c *countingHash) Select(owner uint64, level int, keys []uint64) int {
	c.selects.Add(1)
	c.keys.Add(int64(len(keys)))
	return c.inner.Select(owner, level, keys)
}

func (c *countingHash) Name() string { return c.inner.Name() }

// timings are the host-time samples of one kind of episode (traced or
// untraced).
type timings struct {
	tickMS     []float64 // per measured tick
	episodeUS  []float64 // host µs per simulated second, per episode
	allocBytes uint64    // TotalAlloc over measured ticks
	allocTicks int64
	heapMB     []float64 // live heap after a forced GC, per episode
	queryP50   []float64 // µs, per lookup batch
	queryP99   []float64
}

// layers are the traced episodes' per-layer samples.
type layers struct {
	advance, rebuild, cluster, diff, update, measure, untimed []float64 // ms per tick
	rebuildPerEdge, clusterPerNode, updatePerKey              []float64 // ns per unit, per tick
	queryPerKey                                               []float64 // ns per key, per lookup batch

	ticks     int64 // all traced ticks
	gcs       uint32
	gcPauseNS uint64

	exact exactCounts
}

// exactCounts are work counts over the first exactEpisodes traced
// episodes of a run, whose seeds depend only on the run's seed: they
// repeat exactly across runs of one seed.
type exactCounts struct {
	episodes, ticks, edges, entries, selects, keys, transfers int64
	queries, querySelects, queryKeys, queryPackets            int64
	// Summed per-episode Results values.
	linkEventsPerTick, levels, nodesAllLevels float64
}

// episodeOut identifies an episode's simulated output.
type episodeOut struct {
	digest   string
	checksum uint64 // over the episode's lookup answers
}

// bench accumulates one run.
type bench struct {
	opt      options
	n        int
	setupS   []float64
	untraced timings
	traced   timings
	lay      layers
	ref      *refKernel
	refUS    []float64

	ticks, lookups, failedLookups int64
	episodes                      int
	mismatches                    []string

	queryBuf []float64
}

// phaseTimers are the simulator's own phase spans, resolved from the
// episode's registry.
type phaseTimers struct {
	total, advance, rebuild, cluster, diff, update, measure *obs.Timer
}

func newPhaseTimers(reg *obs.Registry) phaseTimers {
	return phaseTimers{
		total:   reg.Timer(obs.PhaseTick),
		advance: reg.Timer(obs.PhaseAdvance),
		rebuild: reg.Timer(obs.PhaseRebuild),
		cluster: reg.Timer(obs.PhaseCluster),
		diff:    reg.Timer(obs.PhaseDiff),
		update:  reg.Timer(obs.PhaseLMUpdate),
		measure: reg.Timer(obs.PhaseMeasure),
	}
}

// phaseSample is a snapshot of the accumulated phase seconds.
type phaseSample struct {
	total, advance, rebuild, cluster, diff, update, measure float64
}

func (p phaseTimers) sample() phaseSample {
	return phaseSample{
		total: p.total.Seconds(), advance: p.advance.Seconds(), rebuild: p.rebuild.Seconds(),
		cluster: p.cluster.Seconds(), diff: p.diff.Seconds(), update: p.update.Seconds(),
		measure: p.measure.Seconds(),
	}
}

func newBench(opt options) (*bench, error) {
	n := opt.n
	if n == 0 {
		n = defaultN
	}
	ref, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	return &bench{opt: opt, n: n, ref: ref}, nil
}

// run executes the golden episode, the set-up repetitions and then
// measured episodes until opt.seconds have passed and, untraced,
// minTicks ticks are measured. Episode e simulates
// episodeSeed(seed, e), so a run averages over many independent
// placements. A traced run measures every episode twice, traced and
// untraced, and checks that both give the same output; it runs at
// least exactEpisodes pairs.
func (b *bench) run() error {
	defer b.ref.close()
	b.sampleRef()
	gold, err := b.episode(episodeSeed(defaultSeed, 0), false, false)
	if err != nil {
		return err
	}
	if want, ok := goldens[b.opt.workload.name]; b.n == defaultN && (!ok || want != (golden{gold.digest, gold.checksum})) {
		b.mismatches = append(b.mismatches, fmt.Sprintf(
			"golden: default-seed episode gives digest %s checksum %016x, recorded %s %016x",
			gold.digest, gold.checksum, want.digest, want.checksum))
	}
	for e := 0; e < setupReps; e++ {
		if err := b.timeSetup(episodeSeed(b.opt.seed, e)); err != nil {
			return err
		}
	}
	start := time.Now()
	for e := 0; ; e++ {
		seed := episodeSeed(b.opt.seed, e)
		out, err := b.episode(seed, false, true)
		if err != nil {
			return err
		}
		if b.opt.trace {
			traced, err := b.episode(seed, true, true)
			if err != nil {
				return err
			}
			if traced != out {
				b.mismatches = append(b.mismatches, fmt.Sprintf(
					"episode %d: traced digest %s checksum %016x, untraced %s %016x",
					e, traced.digest, traced.checksum, out.digest, out.checksum))
			}
		}
		if b.opt.seed == defaultSeed && e == 0 && out != gold {
			b.mismatches = append(b.mismatches, fmt.Sprintf(
				"episode 0 at the default seed gives digest %s checksum %016x, the golden episode %s %016x",
				out.digest, out.checksum, gold.digest, gold.checksum))
		}
		b.episodes++
		b.sampleRef()
		enough := len(b.untraced.tickMS) >= minTicks
		if b.opt.trace {
			enough = b.episodes >= exactEpisodes
		}
		if enough && time.Since(start).Seconds() >= b.opt.seconds {
			return nil
		}
	}
}

func (b *bench) sampleRef() {
	for i := 0; i < refSamples; i++ {
		b.refUS = append(b.refUS, b.ref.sampleUS())
	}
}

// timeSetup times one fresh construction.
func (b *bench) timeSetup(seed uint64) error {
	cfg := b.opt.workload.config(b.n, simSeed(seed))
	t0 := time.Now()
	st, err := simnet.NewStepper(cfg)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	st.Close()
	b.setupS = append(b.setupS, d.Seconds())
	return nil
}

// episode simulates one workload episode from a fresh Stepper. With
// record set, its host timings (and, when traced, its layer samples)
// join the run's; otherwise it only reports its output.
func (b *bench) episode(seed uint64, traced, record bool) (episodeOut, error) {
	w := b.opt.workload
	cfg := w.config(b.n, simSeed(seed))
	var hash *countingHash
	var pt phaseTimers
	var transfers *obs.Counter
	exact := &b.lay.exact
	counting := traced && record && exact.episodes < exactEpisodes
	if traced {
		reg := obs.NewRegistry()
		hash = &countingHash{}
		cfg.Metrics, cfg.Hash = reg, hash
		pt = newPhaseTimers(reg)
		transfers = reg.Counter("sim.transfers")
	}
	tm := &b.untraced
	if traced {
		tm = &b.traced
	}

	t0 := time.Now()
	st, err := simnet.NewStepper(cfg)
	setup := time.Since(t0)
	if err != nil {
		return episodeOut{}, fmt.Errorf("episode set-up: %w", err)
	}
	defer st.Close()
	if record && !traced {
		b.setupS = append(b.setupS, setup.Seconds())
	}
	eff := st.Config()
	hop := topology.NewEuclideanHops(st.Positions(), eff.RTX, eff.Detour)
	rng := rand.New(rand.NewPCG(lookupSeed(seed), 0))
	var scr lm.QueryScratch
	var out episodeOut

	for {
		t, ok := st.NextTime()
		if !ok || t > eff.Warmup {
			break
		}
		st.Step()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	measured := int64(0)
	var busy time.Duration
	var transfers0 int64
	if traced {
		transfers0 = transfers.Value()
	}
	for {
		var before phaseSample
		var sel0, keys0 int64
		if traced {
			before = pt.sample()
			sel0, keys0 = hash.selects.Load(), hash.keys.Load()
		}
		t0 := time.Now()
		if !st.Step() {
			break
		}
		d := time.Since(t0)
		measured++
		busy += d
		if record {
			b.ticks++
			tm.tickMS = append(tm.tickMS, float64(d.Nanoseconds())/1e6)
		}
		if traced && record {
			b.layerTick(st, pt.sample(), before, hash.selects.Load()-sel0, hash.keys.Load()-keys0, counting)
		}
		if w.lookups > 0 {
			b.lookupBatch(st, hop, rng, &scr, hash, w.lookups, tm, record, counting, &out)
		}
	}
	runtime.ReadMemStats(&ms1)
	if record {
		tm.episodeUS = append(tm.episodeUS, float64(busy.Nanoseconds())/1e3/(float64(measured)*eff.ScanInterval))
		tm.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		tm.allocTicks += measured
		if counting {
			exact.transfers += transfers.Value() - transfers0
		}
		if traced {
			b.lay.gcs += ms1.NumGC - ms0.NumGC
			b.lay.gcPauseNS += ms1.PauseTotalNs - ms0.PauseTotalNs
		}
	}
	if w.lookups == 0 {
		b.lookupBatch(st, hop, rng, &scr, hash, probeLookups, tm, record, counting, &out)
	}
	if record {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		tm.heapMB = append(tm.heapMB, float64(ms.HeapAlloc)/(1<<20))
	}

	res, err := st.Results()
	if err != nil {
		return episodeOut{}, fmt.Errorf("episode results: %w", err)
	}
	out.digest = resultsDigest(res)
	if counting {
		exact.episodes++
		exact.linkEventsPerTick += res.F0 * float64(eff.N) * eff.ScanInterval / 2
		exact.levels += res.MeanLevels
		exact.nodesAllLevels += sum(res.NodesByLevel)
	}
	return out, nil
}

// layerTick records one traced tick's per-layer samples.
func (b *bench) layerTick(st *simnet.Stepper, after, before phaseSample, selects, keys int64, counting bool) {
	l := &b.lay
	ms := func(a, b float64) float64 { return (a - b) * 1e3 }
	edges := int64(st.Graph().EdgeCount())
	h := st.Hierarchy()
	nodes := 0
	for k := 0; k <= h.L(); k++ {
		nodes += len(h.LevelNodes(k))
	}
	l.ticks++
	if c := &l.exact; counting {
		c.ticks++
		c.edges += edges
		c.entries += int64(st.Table().EntryCount())
		c.selects += selects
		c.keys += keys
	}
	l.advance = append(l.advance, ms(after.advance, before.advance))
	l.rebuild = append(l.rebuild, ms(after.rebuild, before.rebuild))
	l.cluster = append(l.cluster, ms(after.cluster, before.cluster))
	l.diff = append(l.diff, ms(after.diff, before.diff))
	l.update = append(l.update, ms(after.update, before.update))
	l.measure = append(l.measure, ms(after.measure, before.measure))
	phases := (after.advance - before.advance) + (after.rebuild - before.rebuild) +
		(after.cluster - before.cluster) + (after.diff - before.diff) +
		(after.update - before.update) + (after.measure - before.measure)
	l.untimed = append(l.untimed, ms(after.total-before.total, phases))
	l.rebuildPerEdge = append(l.rebuildPerEdge, perUnitNS(after.rebuild-before.rebuild, edges))
	l.clusterPerNode = append(l.clusterPerNode, perUnitNS(after.cluster-before.cluster, int64(nodes)))
	l.updatePerKey = append(l.updatePerKey, perUnitNS(after.update-before.update, keys))
}

// lookupBatch resolves count lookups between uniformly drawn distinct
// nodes of the live level-0 set, timing each call. A lookup fails when
// it does not find its destination; every answer is folded into the
// episode's checksum.
func (b *bench) lookupBatch(st *simnet.Stepper, hop topology.HopModel, rng *rand.Rand,
	scr *lm.QueryScratch, hash *countingHash, count int, tm *timings, record, counting bool, out *episodeOut) {
	sel, h, ids := st.Selector(), st.Hierarchy(), st.Identities()
	nodes := h.LevelNodes(0)
	var sel0, keys0 int64
	if hash != nil {
		sel0, keys0 = hash.selects.Load(), hash.keys.Load()
	}
	durs := b.queryBuf[:0]
	var packets int64
	var failed int64
	for i := 0; i < count; i++ {
		if len(nodes) < 2 {
			failed++
			continue
		}
		q := nodes[rng.IntN(len(nodes))]
		d := nodes[rng.IntN(len(nodes))]
		for d == q {
			d = nodes[rng.IntN(len(nodes))]
		}
		t0 := time.Now()
		res := lm.QueryWith(sel, h, ids, hop, q, d, scr)
		durs = append(durs, float64(time.Since(t0).Nanoseconds()))
		if !res.Found {
			failed++
		}
		packets += int64(res.Packets)
		c := splitmix(out.checksum ^ uint64(q)<<32 ^ uint64(d))
		c = splitmix(c ^ uint64(res.Packets)<<32 ^ uint64(res.Level)<<1 ^ boolBit(res.Found))
		out.checksum = splitmix(c ^ uint64(uint32(res.Server)))
	}
	b.queryBuf = durs
	if !record {
		return
	}
	b.lookups += int64(count)
	b.failedLookups += failed
	total := sum(durs)
	sort.Float64s(durs)
	tm.queryP50 = append(tm.queryP50, quantile(durs, 0.50)/1e3)
	tm.queryP99 = append(tm.queryP99, quantile(durs, 0.99)/1e3)
	if hash == nil {
		return
	}
	keys := hash.keys.Load() - keys0
	b.lay.queryPerKey = append(b.lay.queryPerKey, total/float64(keys))
	if c := &b.lay.exact; counting {
		c.queries += int64(count)
		c.querySelects += hash.selects.Load() - sel0
		c.queryKeys += keys
		c.queryPackets += packets
	}
}

func boolBit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

func perUnitNS(seconds float64, units int64) float64 {
	if units == 0 {
		return 0
	}
	return seconds * 1e9 / float64(units)
}
