package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/difftest"
	"repro/internal/jvm"
)

const (
	// difftestSuites campaigns at the cmd/classfuzz default shape are run
	// at set-up; their accepted suites are the workload's inputs.
	difftestSuites = 8
	// difftestTailPct: a pass takes ~8 ms, so the untraced half of a
	// traced run holds ~1250 passes, ~12 of them beyond p99 and fewer
	// than ten beyond p99.9.
	difftestTailPct = 99
	// difftestSetupReps: each set-up runs eight campaigns (0.3–0.8 s of
	// CPU on a shared 2-core VM); the median of five damps its noise.
	difftestSetupReps = 5
)

func makeSuites(seed int64) ([][][]byte, error) {
	suites := make([][][]byte, 0, difftestSuites)
	for _, in := range makeCampaignInputs(seed, streamDifftest, difftestSuites) {
		res, err := campaign.Run(in.config())
		if err != nil {
			return nil, fmt.Errorf("set-up campaign: %w", err)
		}
		suite := make([][]byte, len(res.Test))
		for i, g := range res.Test {
			suite[i] = g.Data
		}
		suites = append(suites, suite)
	}
	return suites, nil
}

func runDifftestWorkload(opts options) (*report, error) {
	rep := &report{}
	suites, setup, err := timedSetup(difftestSetupReps, func() ([][][]byte, error) { return makeSuites(opts.seed) })
	if err != nil {
		return nil, err
	}
	// One untimed pass per suite fixes each suite's reference Summary
	// and lets the heap reach steady state.
	refs := make([]*difftest.Summary, len(suites))
	for i, s := range suites {
		refs[i] = difftest.NewStandardRunner().Evaluate(s)
	}

	window := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		window /= 2
	}
	var durations, cpus []time.Duration
	var classes, parses, vmRuns, memoProbes, memoHits int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(window)
	for p := 0; time.Now().Before(deadline); p++ {
		i := p % len(suites)
		t0, c0 := time.Now(), cpuTime()
		r := difftest.NewStandardRunner() // fresh per pass, as classfuzz -difftest does
		sum := r.Evaluate(suites[i])
		durations = append(durations, time.Since(t0))
		cpus = append(cpus, cpuTime()-c0)
		classes += int64(len(suites[i]))
		if err := sameSummary(sum, refs[i]); err != nil {
			rep.fail(int64(len(suites[i])), "pass %d over suite %d: %v", p, i, err)
		}
		if opts.trace {
			st := r.Stats()
			parses += st.Counter(difftest.MetricParses)
			vmRuns += st.Counter(difftest.MetricVMRuns)
			memoProbes += st.Counter(difftest.MetricMemoProbes)
			memoHits += st.Counter(difftest.MetricMemoHits)
		}
	}
	runtime.ReadMemStats(&after)
	rep.attempted = classes
	wall, cpu := total(durations), total(cpus)

	// The outside-in lineup must reproduce every reference Summary: once
	// per suite untraced, or for the second half of the window traced.
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	replayStart := time.Now()
	var replayed int64
	for p := 0; p < len(suites) || (opts.trace && time.Since(replayStart) < window); p++ {
		i := p % len(suites)
		if err := outsideInPass(suites[i], refs[i], int64(p), tr); err != nil {
			rep.fail(int64(len(suites[i])), "outside-in pass over suite %d: %v", i, err)
		}
		replayed += int64(len(suites[i]))
	}
	replayWall := time.Since(replayStart)

	wallPerClass := us(wall) / float64(classes)
	cs := durationsMs(cpus)
	rep.note("passes", float64(len(cs)), "count")
	if !opts.trace {
		rep.set("setup_s", setup.Seconds(), "s")
		rep.set("ops_per_cpu_s", float64(classes)/cpu.Seconds(), "1/s")
		rep.set("op_p50_ms", percentile(durationsMs(durations), 50), "ms")
		rep.note("us_per_class", wallPerClass, "us")
		rep.note("cpu_us_per_class", us(cpu)/float64(classes), "us")
		rep.note("pass_cpu_p50_ms", percentile(cs, 50), "ms")
		rep.note("cpu_per_wall", cpu.Seconds()/wall.Seconds(), "ratio")
		return rep, nil
	}
	rep.set("op_tail_ms", percentile(durationsMs(durations), difftestTailPct), "ms")

	self := tr.selfTimes()
	n := float64(replayed)
	attributed := us(self[spanParse]) / n
	rep.set("classfile.parse_us", attributed, "us")
	for _, spec := range jvm.StandardFive() {
		v := us(self[vmSpan(spec.Name)]) / n
		attributed += v
		rep.set("jvm."+spec.Name+".run_us", v, "us")
	}
	rep.set("difftest.parses_per_class", float64(parses)/float64(classes), "count")
	rep.set("difftest.vm_runs_per_class", float64(vmRuns)/float64(classes), "count")
	rep.set("difftest.memo_hit_ratio", ratio(float64(memoHits), float64(memoProbes)), "ratio")
	rep.set("difftest.allocs_per_class", float64(after.Mallocs-before.Mallocs)/float64(classes), "count")
	rep.set("difftest.unattributed_pct", 100*(wallPerClass-attributed)/wallPerClass, "%")
	rep.set("trace.overhead_pct", 100*(us(replayWall)/n-wallPerClass)/wallPerClass, "%")
	rep.note("difftest.wall_us_per_class", wallPerClass, "us")
	rep.note("difftest.replay_loop_us", us(self[spanClass])/n, "us")
	if opts.spans != "" {
		if err := tr.write(opts.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	fillZeroLayers(rep)
	return rep, nil
}

const spanClass = "difftest.class"

func vmSpan(name string) string { return "jvm." + name + ".run" }

// outsideInPass runs a suite through a fresh five-VM lineup one exported
// call at a time — classfile.Parse once per class, then RunParsed on
// each preset (a parse failure fans out as jvm.ParseReject, as in the
// engine) — and checks the resulting vectors fold into ref.
func outsideInPass(suite [][]byte, ref *difftest.Summary, pass int64, tr *tracer) error {
	var vms []*jvm.VM
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.New(spec))
	}
	jvm.ShareDecodeCache(vms)
	jvm.ShareVerifyMemo(vms, jvm.NewVerifyMemo()) // one per lineup, as difftest.NewStandardRunner shares
	spans := make([]string, len(vms))
	for i, vm := range vms {
		spans[i] = vmSpan(vm.Name())
	}
	got := foldSummary{distinct: map[string]int{}, hist: make([][]int, len(vms))}
	for i := range got.hist {
		got.hist[i] = make([]int, jvm.PhaseCount)
	}
	for ci, data := range suite {
		unit := pass<<32 | int64(ci)
		root := tr.begin(spanClass, -1, unit)
		s := tr.begin(spanParse, root, unit)
		f, perr := classfile.Parse(data)
		tr.end(s)
		v := difftest.Vector{Codes: make([]int, len(vms)), Outcomes: make([]jvm.Outcome, len(vms))}
		for i, vm := range vms {
			s := tr.begin(spans[i], root, unit)
			var o jvm.Outcome
			if perr != nil {
				o = jvm.ParseReject(perr)
			} else {
				o = vm.RunParsed(f)
			}
			tr.end(s)
			v.Outcomes[i], v.Codes[i] = o, o.Code()
		}
		tr.end(root)
		got.absorb(v)
	}
	return got.matches(ref)
}

// foldSummary is the outside-in fold of vectors into the fields of
// difftest.Summary that Evaluate reports.
type foldSummary struct {
	total, allInvoked, sameStage, discrepancies int
	distinct                                    map[string]int
	hist                                        [][]int
}

func (s *foldSummary) absorb(v difftest.Vector) {
	s.total++
	for i, c := range v.Codes {
		s.hist[i][c]++
	}
	switch {
	case v.AllInvoked():
		s.allInvoked++
	case v.Discrepant():
		s.discrepancies++
		s.distinct[v.Key()]++
	default:
		s.sameStage++
	}
}

func (s *foldSummary) matches(ref *difftest.Summary) error {
	return sameSummary(&difftest.Summary{
		Total: s.total, AllInvoked: s.allInvoked, AllRejectedSameStage: s.sameStage,
		Discrepancies: s.discrepancies, DistinctVectors: s.distinct, PhaseHistogram: s.hist,
	}, ref)
}

// sameSummary compares the discrepancy counts, the distinct vectors
// with their multiplicities and the per-VM phase histogram.
func sameSummary(a, b *difftest.Summary) error {
	switch {
	case a.Total != b.Total || a.AllInvoked != b.AllInvoked || a.AllRejectedSameStage != b.AllRejectedSameStage:
		return fmt.Errorf("class counts %d/%d/%d, want %d/%d/%d",
			a.Total, a.AllInvoked, a.AllRejectedSameStage, b.Total, b.AllInvoked, b.AllRejectedSameStage)
	case a.Discrepancies != b.Discrepancies:
		return fmt.Errorf("%d discrepancies, want %d", a.Discrepancies, b.Discrepancies)
	case !maps.Equal(a.DistinctVectors, b.DistinctVectors):
		return fmt.Errorf("distinct vectors %v, want %v", a.DistinctVectors, b.DistinctVectors)
	case !slices.EqualFunc(a.PhaseHistogram, b.PhaseHistogram, slices.Equal[[]int]):
		return fmt.Errorf("phase histogram %v, want %v", a.PhaseHistogram, b.PhaseHistogram)
	}
	return nil
}
