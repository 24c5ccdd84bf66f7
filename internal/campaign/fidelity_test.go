package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

// refRunner is one instrumented VM of the fidelity lineup.
type refRunner struct {
	vm  *jvm.VM
	rec *coverage.Recorder
}

func newRefRunners(specs []jvm.Spec) []refRunner {
	rs := make([]refRunner, len(specs))
	for i, s := range specs {
		rs[i] = refRunner{vm: jvm.New(s), rec: coverage.NewRecorder(jvm.ProbeRegistry())}
		rs[i].vm.SetRecorder(rs[i].rec)
	}
	return rs
}

// checkLoweredFidelity lowers and serialises c the way the engine's
// process does — into the recycled file of a reused context — then
// asserts that the bytes parse, re-serialise byte-identically, and that
// every runner reports the same outcome and coverage sets for RunParsed
// on the lowered file as for Run on its bytes. It reports whether c
// lowered at all.
func checkLoweredFidelity(t *testing.T, lctx *jimple.LowerCtx, runners []refRunner, c *jimple.Class, what string) bool {
	t.Helper()
	f, err := lctx.Lower(c)
	if err != nil {
		return false
	}
	data, err := f.Bytes()
	if err != nil {
		return false
	}
	parsed, err := classfile.Parse(data)
	if err != nil {
		t.Fatalf("%s: lowered bytes do not parse: %v", what, err)
	}
	again, err := parsed.Bytes()
	if err != nil {
		t.Fatalf("%s: parsed file does not re-serialise: %v", what, err)
	}
	if !bytes.Equal(again, data) {
		t.Fatalf("%s: re-serialising the parsed file changes its bytes", what)
	}
	for _, r := range runners {
		r.rec.Reset()
		outModel := r.vm.RunParsed(f)
		trModel := r.rec.Trace()
		r.rec.Reset()
		outBytes := r.vm.Run(data)
		trBytes := r.rec.Trace()
		if !reflect.DeepEqual(outModel, outBytes) {
			t.Fatalf("%s on %s: RunParsed(lowered) = %v, Run(bytes) = %v", what, r.vm.Name(), outModel, outBytes)
		}
		if !trModel.EqualSets(trBytes) {
			t.Fatalf("%s on %s: RunParsed(lowered) trace %v differs from Run(bytes) trace %v",
				what, r.vm.Name(), trModel.Stats(), trBytes.Stats())
		}
	}
	return true
}

// fidelitySeeds is the fidelity corpus: every catalog entry that lifts
// to a model, plus a generated seed corpus.
func fidelitySeeds() []*jimple.Class {
	var seeds []*jimple.Class
	for _, e := range catalog.Entries() {
		if e.Build != nil {
			seeds = append(seeds, e.Build())
			continue
		}
		data, err := e.Data()
		if err != nil {
			continue
		}
		f, err := classfile.Parse(data)
		if err != nil {
			continue
		}
		if c, err := jimple.Lift(f); err == nil {
			seeds = append(seeds, c)
		}
	}
	return append(seeds, seedgen.Generate(seedgen.DefaultOptions(20, 9))...)
}

// TestLoweredRunFidelity is the contract behind the engine running the
// reference VM on the lowered classfile instead of on a parse of its
// bytes: for every seed and every mutator under several mutation
// streams, the lowered file and its bytes are indistinguishable to all
// five presets — same outcome, same statement and branch sets.
func TestLoweredRunFidelity(t *testing.T) {
	runners := newRefRunners(jvm.StandardFive())
	lctx := jimple.NewLowerCtx()
	seeds := fidelitySeeds()
	streams := []int64{1, 7, 123}
	if testing.Short() {
		streams = streams[:1]
	}
	lowered := 0
	for si, s := range seeds {
		if checkLoweredFidelity(t, lctx, runners, s, "seed") {
			lowered++
		}
		for _, m := range mutation.Registry() {
			for _, stream := range streams {
				mutant := s.Clone()
				if !m.Apply(mutant, DeriveRNG(stream, si)) {
					continue
				}
				finishMutant(mutant, si)
				if checkLoweredFidelity(t, lctx, runners, mutant, m.Name) {
					lowered++
				}
			}
		}
	}
	t.Logf("%d seeds: %d lowered classes checked on %d presets", len(seeds), lowered, len(runners))
	// A corpus that stopped lowering would pass vacuously.
	if min := len(seeds) * len(streams) * 20; lowered < min {
		t.Fatalf("only %d classes lowered, want at least %d", lowered, min)
	}
}

// FuzzLoweredRunFidelity takes arbitrary bytes through Parse → Lift →
// one registry mutator → Lower → AppendBytes and asserts that HotSpot 9
// gives the lowered file and its bytes the same outcome and trace. The
// first byte picks the mutator and the stream.
func FuzzLoweredRunFidelity(f *testing.F) {
	for i, e := range catalog.Entries() {
		if data, err := e.Data(); err == nil {
			f.Add(byte(i), data)
		}
	}
	f.Add(byte(0), []byte{0xca, 0xfe, 0xba, 0xbe, 0, 0, 0, 51})
	runners := newRefRunners([]jvm.Spec{jvm.HotSpot9()})
	lctx := jimple.NewLowerCtx()
	muts := mutation.Registry()
	f.Fuzz(func(t *testing.T, pick byte, data []byte) {
		cf, err := classfile.Parse(data)
		if err != nil {
			return
		}
		c, err := jimple.Lift(cf)
		if err != nil {
			return
		}
		m := muts[int(pick)%len(muts)]
		if !m.Apply(c, DeriveRNG(int64(pick), int(pick))) {
			return
		}
		checkLoweredFidelity(t, lctx, runners, c, m.Name)
	})
}

// TestReferenceVMParsesNothing pins the parse count of a campaign: the
// reference VM runs each lowerable seed and each generated mutant
// exactly once, and never parses classfile bytes to do it.
func TestReferenceVMParsesNothing(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.Workers = 2
	cfg.Telemetry = telemetry.New()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, s := range cfg.Source.Corpus() {
		if _, _, err := lower(s); err == nil {
			seeds++
		}
	}
	s := cfg.Telemetry.Snapshot()
	prefix := "jvm." + cfg.RefSpec.Name
	if got := s.Hist(prefix + ".parse_ns").Count; got != 0 {
		t.Errorf("%s.parse_ns recorded %d parses, want 0", prefix, got)
	}
	execs := s.Counter("campaign.executions")
	if execs != int64(len(res.Gen)) || execs == 0 {
		t.Fatalf("campaign.executions = %d, generated %d", execs, len(res.Gen))
	}
	if got, want := s.Counter(prefix+".runs"), int64(seeds)+execs; got != want {
		t.Errorf("%s.runs = %d, want %d lowerable seeds + %d executions", prefix, got, seeds, execs)
	}
}
