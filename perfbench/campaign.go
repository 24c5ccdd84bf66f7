package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

// The campaign shape is cmd/classfuzz's default: 100 generated seeds,
// 1000 iterations, classfuzz[stbr], uniform draw, one engine worker.
const (
	campaignSeedCount  = 100
	campaignIterations = 1000
	// campaignConfigs distinct (corpus, campaign seed) pairs are run in
	// rotation, so every configuration repeats several times per run
	// and each repeat is checked against the first.
	campaignConfigs = 32
	// campaignTailPct: the ~200 campaigns of a traced run's untraced
	// half leave ~20 beyond p90 and fewer than ten beyond p99.
	campaignTailPct = 90
	// campaignSetupReps: set-up is repeated and its median reported.
	campaignSetupReps = 15
)

// Stream labels for deriving workload inputs from the workload seed.
const (
	streamCampaign    = 0xbe7c_0001
	streamDifftest    = 0xbe7c_0002
	streamDaemon      = 0xbe7c_0003
	streamSubmissions = 0xbe7c_0004
	streamReplayDraw  = 0xbe7c_0005
)

// campaignInput is one campaign configuration: a generated corpus and
// the campaign seed, which (as in cmd/classfuzz) also seeded the corpus.
type campaignInput struct {
	rand  int64
	seeds []*jimple.Class
}

func makeCampaignInputs(seed int64, stream uint64, n int) []campaignInput {
	out := make([]campaignInput, n)
	for c := range out {
		r := prng.Mix(seed, stream, uint64(c))
		out[c] = campaignInput{rand: r, seeds: seedgen.Generate(seedgen.DefaultOptions(campaignSeedCount, r))}
	}
	return out
}

// campaignConfig sets exactly the fields cmd/classfuzz sets by default.
func (in campaignInput) config() campaign.Config {
	return campaign.Config{
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		Source:     campaign.FlatSeeds(in.seeds),
		Iterations: campaignIterations,
		Rand:       in.rand,
		RefSpec:    jvm.HotSpot9(),
		Workers:    1,
	}
}

// timedSetup runs build reps times and returns the last result and the
// median CPU time of a set-up.
func timedSetup[T any](reps int, build func() (T, error)) (T, time.Duration, error) {
	var v T
	var err error
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC() // no earlier garbage is collected inside the timed set-up
		c0 := cpuTime()
		v, err = build()
		ds = append(ds, cpuTime()-c0)
		if err != nil {
			return v, 0, err
		}
	}
	return v, medianDuration(ds), nil
}

// campaignDigest pins everything a campaign decides: the draw log, the
// generated count, the unique-statistics count and the accepted suite.
func campaignDigest(res *campaign.Result) [32]byte {
	h := sha256.New()
	var b []byte
	b = binary.AppendVarint(b, int64(len(res.Gen)))
	b = binary.AppendVarint(b, int64(res.GenUniqueStats))
	for _, d := range res.Draws {
		b = binary.AppendVarint(b, int64(d.PoolIndex))
		b = binary.AppendVarint(b, int64(d.Parent))
		b = binary.AppendVarint(b, int64(d.MutatorID))
		if d.Generated {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	h.Write(b)
	for _, g := range res.Test {
		h.Write([]byte(g.Name))
		h.Write(g.Data)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// campaignRun is the untraced part of the campaign workload.
type campaignRun struct {
	durations  []time.Duration // wall time per campaign
	cpu        []time.Duration // process CPU time per campaign
	iterations int64
	tests      int64
	first      []*campaign.Result // first result per configuration
	runs       []int64            // campaigns run per configuration
	mallocs    uint64
	allocBytes uint64
}

// runCampaigns runs the configurations back to back for window, checking
// every repeat against the configuration's first result.
func runCampaigns(inputs []campaignInput, window time.Duration, rep *report) *campaignRun {
	run := &campaignRun{first: make([]*campaign.Result, len(inputs)), runs: make([]int64, len(inputs))}
	digests := make([][32]byte, len(inputs))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(window)
	for k := 0; time.Now().Before(deadline); k++ {
		c := k % len(inputs)
		t0, c0 := time.Now(), cpuTime()
		res, err := campaign.Run(inputs[c].config())
		d, cd := time.Since(t0), cpuTime()-c0
		rep.attempted += campaignIterations
		run.runs[c]++
		if err != nil {
			rep.fail(campaignIterations, "campaign %d: %v", k, err)
			continue
		}
		run.durations = append(run.durations, d)
		run.cpu = append(run.cpu, cd)
		run.iterations += int64(res.Iterations)
		run.tests += int64(len(res.Test))
		dg := campaignDigest(res)
		if run.first[c] == nil {
			run.first[c], digests[c] = res, dg
		} else if dg != digests[c] {
			rep.fail(campaignIterations, "campaign %d repeats configuration %d with a different result", k, c)
		}
	}
	runtime.ReadMemStats(&after)
	run.mallocs = after.Mallocs - before.Mallocs
	run.allocBytes = after.TotalAlloc - before.TotalAlloc
	return run
}

func runCampaignWorkload(opts options) (*report, error) {
	rep := &report{}
	inputs, setup, err := timedSetup(campaignSetupReps, func() ([]campaignInput, error) {
		return makeCampaignInputs(opts.seed, streamCampaign, campaignConfigs), nil
	})
	if err != nil {
		return nil, err
	}
	// One untimed campaign lets the heap and caches reach steady state.
	if _, err := campaign.Run(inputs[0].config()); err != nil {
		return nil, fmt.Errorf("warm-up campaign: %w", err)
	}

	window := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		window /= 2
	}
	run := runCampaigns(inputs, window, rep)
	if len(run.durations) == 0 {
		return nil, fmt.Errorf("no campaign completed")
	}
	wall, cpu := total(run.durations), total(run.cpu)

	var tr *tracer
	var lc *layerCounts
	if opts.trace {
		tr = newTracer()
		lc = &layerCounts{reg: telemetry.New()}
	}
	replayStart := time.Now()
	var replayed int64
	for c, res := range run.first {
		if res == nil {
			continue
		}
		if err := replayCampaign(inputs[c], res, int64(c), tr, lc); err != nil {
			rep.fail(run.runs[c]*campaignIterations, "replay of configuration %d: %v", c, err)
		}
		replayed += int64(res.Iterations)
	}
	replayWall := time.Since(replayStart)

	cs := durationsMs(run.cpu)
	rep.note("campaigns", float64(len(cs)), "count")
	if !opts.trace {
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("ops_per_cpu_s", float64(run.iterations)/cpu.Seconds(), "1/s")
		rep.set("op_p50_ms", percentile(durationsMs(run.durations), 50), "ms")
		rep.note("iters_per_s", float64(run.iterations)/wall.Seconds(), "1/s")
		rep.note("us_per_test", us(wall)/float64(run.tests), "us")
		rep.note("cpu_us_per_test", us(cpu)/float64(run.tests), "us")
		rep.note("campaign_cpu_p50_ms", percentile(cs, 50), "ms")
		rep.note("cpu_per_wall", cpu.Seconds()/wall.Seconds(), "ratio")
		return rep, nil
	}
	rep.set("op_tail_ms", percentile(durationsMs(run.durations), campaignTailPct), "ms")

	self := tr.selfTimes()
	n := float64(replayed)
	per := func(names ...string) float64 {
		var d time.Duration
		for _, name := range names {
			d += self[name]
		}
		return us(d) / n
	}
	wallPerIter := us(wall) / float64(run.iterations)
	layers := map[string][]string{
		"campaign.seed_init_us": {spanSeedInit},
		"campaign.draw_us":      {spanDraw},
		"mcmc.next_us":          {spanMCMCNext, spanMCMCRecord},
		"jimple.clone_us":       {spanClone},
		"mutation.apply_us":     {spanApply},
		"jimple.lower_us":       {spanLower},
		"classfile.write_us":    {spanWrite},
		"classfile.parse_us":    {spanParse},
		"jvm.ref.run_us":        {spanRefRun},
		"coverage.trace_us":     {spanTrace},
		"coverage.suite_us":     {spanSuite},
	}
	var attributed float64
	for name, spans := range layers {
		v := per(spans...)
		attributed += v
		rep.set(name, v, "us")
	}
	rep.set("jvm.ref.phase.parse_us", per(spanParse), "us")
	snap := lc.reg.Snapshot()
	for _, p := range refPhases() {
		rep.set("jvm.ref.phase."+p+"_us", float64(snap.Hist("jvm."+jvm.HotSpot9().Name+".phase."+p+"_ns").Sum)/1e3/n, "us")
	}
	rep.set("campaign.allocs_per_iter", float64(run.mallocs)/float64(run.iterations), "count")
	rep.set("campaign.bytes_per_iter", float64(run.allocBytes)/float64(run.iterations), "B")
	rep.set("campaign.unattributed_pct", 100*(wallPerIter-attributed)/wallPerIter, "%")
	rep.set("mutation.applied_ratio", ratio(float64(lc.applied), float64(lc.drawn)), "ratio")
	rep.set("coverage.accept_ratio", ratio(float64(lc.accepted), float64(lc.generated)), "ratio")
	rep.set("trace.overhead_pct", 100*(us(replayWall)/n-wallPerIter)/wallPerIter, "%")
	rep.note("campaign.wall_us_per_iter", wallPerIter, "us")
	rep.note("campaign.replay_loop_us", per(spanIter), "us")
	if opts.spans != "" {
		if err := tr.write(opts.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	fillZeroLayers(rep)
	return rep, nil
}

// Span names of the campaign replay; each is one call (or a short run
// of calls) into one layer's exported API.
const (
	spanIter       = "campaign.iteration"
	spanSeedInit   = "campaign.seed_init"
	spanDraw       = "campaign.draw"
	spanMCMCNext   = "mcmc.next"
	spanMCMCRecord = "mcmc.record"
	spanClone      = "jimple.clone"
	spanApply      = "mutation.apply"
	spanLower      = "jimple.lower"
	spanWrite      = "classfile.write"
	spanParse      = "classfile.parse"
	spanRefRun     = "jvm.ref.run"
	spanTrace      = "coverage.trace"
	spanSuite      = "coverage.suite"
)

// refPhases names the reference VM's timed pipeline stages
// (jvm.AllPhases minus "invoked", which is the absence of a rejection).
func refPhases() []string {
	var out []string
	for _, p := range jvm.AllPhases() {
		if p != jvm.PhaseInvoked {
			out = append(out, p.String())
		}
	}
	return out
}

// layerCounts accumulates the replay's work counts and the reference
// VM's phase histograms.
type layerCounts struct {
	reg                                 *telemetry.Registry
	drawn, applied, generated, accepted int64
}

// replayCampaign rebuilds a finished campaign outside-in from its draw
// log: it initialises the suite from the seeds, then for every
// iteration draws the parent from its own append-only pool, clones it,
// applies the logged mutator under campaign.DeriveRNG, applies the
// mutant fix-ups, lowers, serialises, parses, runs the reference VM and
// decides acceptance. Every accepted mutant must equal the campaign's
// Result.Test entry name for name and byte for byte. With a tracer each
// call is a span; lc (may be nil) collects counts.
func replayCampaign(in campaignInput, res *campaign.Result, campaignID int64, tr *tracer, lc *layerCounts) error {
	if len(res.Draws) != res.Iterations {
		return fmt.Errorf("draw log has %d entries for %d iterations", len(res.Draws), res.Iterations)
	}
	muts := mutation.Registry()
	vm := jvm.New(jvm.HotSpot9())
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)
	// One verify memo per campaign, warmed by the seed runs, as the
	// engine attaches to its reference VMs.
	vm.SetVerifyMemo(jvm.NewVerifyMemo())
	suite := coverage.NewSuite(coverage.STBR)
	genStats := coverage.NewSuite(coverage.STBR)
	merged := coverage.NewTrace()

	sp := tr.begin(spanSeedInit, -1, campaignID<<32)
	type entry struct {
		class *jimple.Class
		iter  int
	}
	pool := make([]entry, 0, len(in.seeds)+len(res.Test))
	for _, s := range in.seeds {
		pool = append(pool, entry{s, -1})
		f, err := jimple.Lower(s)
		if err != nil {
			continue
		}
		data, err := f.Bytes()
		if err != nil {
			continue
		}
		rec.Reset()
		vm.Run(data)
		t := rec.Trace()
		merged = coverage.Merge(merged, t)
		if suite.Unique(t) {
			suite.Add(t)
		}
	}
	tr.end(sp)
	if lc != nil {
		vm.SetTelemetry(lc.reg) // phase histograms cover iterations only
	}

	sampler := mcmc.NewSampler(len(muts), mcmc.DefaultP(len(muts)), prng.Derive(in.rand, streamReplayDraw, 1<<40))
	src := campaign.FlatSeeds(in.seeds)
	rng := prng.Derive(in.rand, streamReplayDraw, 0)
	lctx := jimple.NewLowerCtx()
	var buf []byte
	k := 0
	for i, d := range res.Draws {
		unit := campaignID<<32 | int64(i)
		root := tr.begin(spanIter, -1, unit)
		if d.Iter != i || d.PoolIndex < 0 || d.PoolIndex >= len(pool) || pool[d.PoolIndex].iter != d.Parent {
			return fmt.Errorf("iteration %d: draw record %+v does not address the replayed pool (%d entries)", i, d, len(pool))
		}
		if d.MutatorID < 0 || d.MutatorID >= len(muts) {
			return fmt.Errorf("iteration %d: mutator id %d out of range", i, d.MutatorID)
		}
		// The draw stage as the engine runs it: reseed one reused
		// generator, then pick from the pool.
		s := tr.begin(spanDraw, root, unit)
		prng.Reseed(rng, in.rand, streamReplayDraw, uint64(i))
		_ = src.Pick(rng, len(pool)) // timing only: the logged index is authoritative
		parent := pool[d.PoolIndex].class
		tr.end(s)
		s = tr.begin(spanMCMCNext, root, unit)
		_ = sampler.Next(rng) // timing only: the logged mutator is authoritative
		tr.end(s)

		s = tr.begin(spanClone, root, unit)
		mutant := parent.Clone()
		tr.end(s)
		s = tr.begin(spanApply, root, unit)
		applied := muts[d.MutatorID].Apply(mutant, campaign.DeriveRNG(in.rand, i))
		if applied {
			finishMutant(mutant, i)
		}
		tr.end(s)
		generated := false
		var data []byte
		if applied {
			s = tr.begin(spanLower, root, unit)
			f, err := lctx.Lower(mutant)
			tr.end(s)
			if err == nil {
				s = tr.begin(spanWrite, root, unit)
				data, err = f.AppendBytes(buf[:0])
				tr.end(s)
				generated = err == nil
			}
		}
		if lc != nil {
			lc.drawn++
			if applied {
				lc.applied++
			}
		}
		if generated != d.Generated {
			return fmt.Errorf("iteration %d: replay generated=%v, campaign logged %v (mutator %d)", i, generated, d.Generated, d.MutatorID)
		}
		if !generated {
			s = tr.begin(spanMCMCRecord, root, unit)
			sampler.Record(d.MutatorID, false)
			tr.end(s)
			tr.end(root)
			continue
		}
		buf = data

		s = tr.begin(spanParse, root, unit)
		pf, perr := classfile.Parse(data)
		tr.end(s)
		s = tr.begin(spanTrace, root, unit)
		rec.Reset()
		tr.end(s)
		s = tr.begin(spanRefRun, root, unit)
		if perr == nil {
			vm.RunParsed(pf)
		} else {
			vm.Run(data) // fires the parse-failure probes exactly as the engine's Run does
		}
		tr.end(s)
		s = tr.begin(spanTrace, root, unit)
		t := rec.Trace()
		tr.end(s)

		s = tr.begin(spanSuite, root, unit)
		_ = t.Stats()
		genStats.Add(t)
		accepted := suite.Unique(t)
		if accepted {
			suite.Add(t)
			merged = coverage.Merge(merged, t)
		}
		tr.end(s)
		s = tr.begin(spanMCMCRecord, root, unit)
		sampler.Record(d.MutatorID, accepted)
		tr.end(s)
		tr.end(root)
		if lc != nil {
			lc.generated++
			if accepted {
				lc.accepted++
			}
		}
		if !accepted {
			continue
		}
		if k >= len(res.Test) {
			return fmt.Errorf("iteration %d: replay accepts more mutants than the campaign's %d", i, len(res.Test))
		}
		want := res.Test[k]
		if want.Iter != i || want.Name != mutant.Name || !bytes.Equal(want.Data, data) {
			return fmt.Errorf("iteration %d: accepted mutant %s (%d bytes) differs from campaign test #%d %s (iteration %d, %d bytes)",
				i, mutant.Name, len(data), k, want.Name, want.Iter, len(want.Data))
		}
		k++
		pool = append(pool, entry{mutant, i})
	}
	if k != len(res.Test) {
		return fmt.Errorf("replay accepted %d mutants, campaign accepted %d", k, len(res.Test))
	}
	return nil
}

// finishMutant applies the engine's deterministic post-mutation
// fix-ups (§2.2.1, §3.1.1): the iteration-derived name, the version pin
// and the observable main.
func finishMutant(c *jimple.Class, iter int) {
	c.Name = fmt.Sprintf("M%d", 1430000000+iter)
	c.Major = 51
	if !c.IsInterface() && c.FindMethod("main") == nil {
		c.AddStandardMain("Completed!")
	}
}
