package classfuzz

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. -benchmem`). Each
// Benchmark reports the headline statistics of its table via
// b.ReportMetric, so the *shape* of the paper's findings is visible in
// the bench output; `go run ./cmd/experiments` prints the full rows.
//
// Bench-internal scales are smaller than cmd/experiments' defaults so a
// full -bench=. sweep stays fast; the comparisons between algorithms
// hold at any equal budget.

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/experiments"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

import "math/rand"

func benchScale() experiments.Scale {
	return experiments.Scale{SeedCount: 30, Iterations: 200, RandfuzzFactor: 5, CorpusCount: 600, Seed: 1}
}

// BenchmarkPreliminaryStudy regenerates the §1 baseline: the fraction
// of library-corpus classfiles triggering discrepancies across the five
// JVMs (the paper's 1.7 %).
func BenchmarkPreliminaryStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunPreliminary(600, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(p.DiffRate*100, "diff_%")
		b.ReportMetric(float64(p.Distinct), "distinct")
	}
}

// BenchmarkTable4 regenerates the classfile-generation comparison:
// iterations, |GenClasses|, |TestClasses| and succ per algorithm.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := experiments.NewSession(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		t4 := sess.Table4()
		for _, r := range t4.Rows {
			if r.Campaign == experiments.KeyClassfuzzSTBR {
				b.ReportMetric(float64(r.TestClasses), "stbr_tests")
				b.ReportMetric(r.Succ*100, "stbr_succ_%")
			}
			if r.Campaign == experiments.KeyRandfuzz {
				b.ReportMetric(float64(r.GenClasses), "randfuzz_gen")
			}
		}
	}
}

// BenchmarkTable5 regenerates the top-ten-mutators ranking.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := experiments.NewSession(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		t5 := sess.Table5()
		if len(t5.Rows) == 0 {
			b.Fatal("empty table 5")
		}
		b.ReportMetric(t5.Rows[0].Rate, "top_mutator_rate")
	}
}

// BenchmarkTable6 regenerates the differential-testing comparison and
// reports the headline diff-rates (library baseline vs classfuzz[stbr]
// suite — the paper's 1.7 % → 11.9 % amplification).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := experiments.NewSession(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		t6 := sess.Table6()
		for _, r := range t6.Rows {
			switch r.Set {
			case "library-corpus":
				b.ReportMetric(r.DiffRate*100, "baseline_diff_%")
			case "Test:" + experiments.KeyClassfuzzSTBR:
				b.ReportMetric(r.DiffRate*100, "stbr_diff_%")
				b.ReportMetric(float64(r.Distinct), "stbr_distinct")
			}
		}
	}
}

// BenchmarkTable7 regenerates the per-VM phase histogram of the
// classfuzz[stbr] suite and reports the leniency spread (GIJ invoked
// most, per the paper).
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := experiments.NewSession(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		t7 := sess.Table7()
		b.ReportMetric(float64(t7.Counts[4][0]), "gij_invoked")
		b.ReportMetric(float64(t7.Counts[3][0]), "j9_invoked")
	}
}

// BenchmarkFigure4 regenerates the mutator success-rate / selection
// frequency correlation and reports the classfuzz selection bias (mean
// frequency of the top third over the bottom third).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sess, err := experiments.NewSession(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		fig := sess.Figure4()
		third := len(fig.FreqClassfuzz) / 3
		mean := func(xs []float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += x
			}
			return s / float64(len(xs))
		}
		top, bottom := mean(fig.FreqClassfuzz[:third]), mean(fig.FreqClassfuzz[len(fig.FreqClassfuzz)-third:])
		if bottom == 0 {
			bottom = 1e-9
		}
		b.ReportMetric(top/bottom, "selection_bias")
	}
}

// --- ablation benches (the design choices DESIGN.md calls out) -------------

// BenchmarkAblationMCMC compares MCMC mutator selection against uniform
// selection at an equal budget (classfuzz[stbr] vs uniquefuzz — the
// paper's +43 %).
func BenchmarkAblationMCMC(b *testing.B) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(30, 5))
	for i := 0; i < b.N; i++ {
		run := func(alg campaign.Algorithm) int {
			res, err := campaign.Run(campaign.Config{
				Algorithm: alg, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
				Iterations: 300, Rand: int64(i) + 11, RefSpec: jvm.HotSpot9(),
			})
			if err != nil {
				b.Fatal(err)
			}
			return len(res.Test)
		}
		mc := run(campaign.Classfuzz)
		un := run(campaign.Uniquefuzz)
		b.ReportMetric(float64(mc), "mcmc_tests")
		b.ReportMetric(float64(un), "uniform_tests")
	}
}

// BenchmarkAblationCriterion compares the three uniqueness criteria
// under classfuzz at an equal budget.
func BenchmarkAblationCriterion(b *testing.B) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(30, 5))
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			crit coverage.Criterion
			name string
		}{{coverage.ST, "st_tests"}, {coverage.STBR, "stbr_tests"}, {coverage.TR, "tr_tests"}} {
			res, err := campaign.Run(campaign.Config{
				Algorithm: campaign.Classfuzz, Criterion: c.crit, Source: campaign.FlatSeeds(seeds),
				Iterations: 300, Rand: 11, RefSpec: jvm.HotSpot9(),
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Test)), c.name)
		}
	}
}

// BenchmarkAblationSeedPool compares representative-seed recycling
// (Algorithm 1 lines 5/14) against mutating the original seeds only.
func BenchmarkAblationSeedPool(b *testing.B) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(30, 5))
	for i := 0; i < b.N; i++ {
		run := func(noRecycle bool) int {
			res, err := campaign.Run(campaign.Config{
				Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
				Iterations: 300, Rand: 11, RefSpec: jvm.HotSpot9(),
				NoSeedRecycling: noRecycle,
			})
			if err != nil {
				b.Fatal(err)
			}
			return len(res.Test)
		}
		b.ReportMetric(float64(run(false)), "recycling_tests")
		b.ReportMetric(float64(run(true)), "no_recycling_tests")
	}
}

// BenchmarkAblationP sweeps the geometric parameter p around the
// paper's 3/129 choice.
func BenchmarkAblationP(b *testing.B) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(30, 5))
	ps := []struct {
		p    float64
		name string
	}{
		{1.0 / 129, "p_1_129_tests"},
		{3.0 / 129, "p_3_129_tests"},
		{10.0 / 129, "p_10_129_tests"},
	}
	for i := 0; i < b.N; i++ {
		for _, pc := range ps {
			res, err := campaign.Run(campaign.Config{
				Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
				Iterations: 300, Rand: 11, RefSpec: jvm.HotSpot9(), P: pc.p,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(res.Test)), pc.name)
		}
	}
}

// BenchmarkBlindBaseline quantifies §1's motivating claim: blind
// byte-level mutation produces mostly invalid classfiles while the
// structured mutators do not.
func BenchmarkBlindBaseline(b *testing.B) {
	scale := experiments.Scale{SeedCount: 20, Iterations: 200, Seed: 1}
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBlindBaseline(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ByteLoadReject*100, "byte_invalid_%")
		b.ReportMetric(res.RandLoadReject*100, "structured_invalid_%")
	}
}

// --- component micro-benches -------------------------------------------------

// BenchmarkReferenceVMRun measures one instrumented startup-pipeline
// execution (the inner loop of every coverage-directed campaign; the
// analogue of the paper's 90-second GCOV cycle).
func BenchmarkReferenceVMRun(b *testing.B) {
	seeds := GenerateSeeds(1, 1)
	data, err := Compile(seeds[0])
	if err != nil {
		b.Fatal(err)
	}
	vm := jvm.New(jvm.HotSpot9())
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Reset()
		vm.Run(data)
	}
}

// BenchmarkDiffTestRun measures one five-VM differential execution.
func BenchmarkDiffTestRun(b *testing.B) {
	seeds := GenerateSeeds(1, 1)
	data, err := Compile(seeds[0])
	if err != nil {
		b.Fatal(err)
	}
	runner := difftest.NewStandardRunner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.Run(data)
	}
}

// BenchmarkMutateLowerCycle measures the clone→mutate→lower→serialise
// cycle (the mutant-production cost of one campaign iteration).
func BenchmarkMutateLowerCycle(b *testing.B) {
	seed := GenerateSeeds(1, 1)[0]
	muts := mutation.Registry()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := seed.Clone()
		muts[i%len(muts)].Apply(c, rng)
		f, err := jimple.Lower(c)
		if err != nil {
			continue
		}
		if _, err := f.Bytes(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCMCStep measures one Metropolis–Hastings selection step.
func BenchmarkMCMCStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := mcmc.NewSampler(mutation.TotalMutators, mcmc.DefaultP(mutation.TotalMutators), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := s.Next(rng)
		s.Record(id, i%7 == 0)
	}
}
