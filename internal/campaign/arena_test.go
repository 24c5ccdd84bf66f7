package campaign

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// TestCampaignAllocsFlatAcrossWorkers pins the perf fix this PR ships:
// allocations per campaign must not grow with the worker count. Before
// per-worker arena reuse each in-flight iteration allocated its own
// lowering context, buffers and recorder scratch, so allocs/op climbed
// with parallelism; now extra workers cost only their fixed arenas,
// which a 160-iteration campaign amortises to well under the bound.
func TestCampaignAllocsFlatAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is slow")
	}
	measure := func(w int) float64 {
		cfg := detConfig(Classfuzz)
		cfg.Workers = w
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(1)
	if base == 0 {
		t.Fatal("campaign reported zero allocations; measurement is broken")
	}
	for _, w := range []int{4, 8} {
		got := measure(w)
		t.Logf("workers=%d: %.0f allocs/op (workers=1: %.0f, ratio %.3f)", w, got, base, got/base)
		if got > base*1.25 {
			t.Errorf("workers=%d allocates %.0f/op, more than 1.25x the single-worker %.0f/op — per-worker arenas are leaking per-iteration allocations",
				w, got, base)
		}
	}
}

// TestBatchBufferOwnership is the arena-recycling safety net, designed
// to run under -race: across worker counts up to GOMAXPROCS, every
// KeepGenBytes campaign must return the reference bytes, and the
// returned buffers must be exclusively owned — scribbling each one
// with a distinct pattern must not show through any other, and a
// subsequent campaign over the (shared) seed corpus must still
// reproduce the reference, proving no returned buffer aliases engine-
// or seed-owned memory.
func TestBatchBufferOwnership(t *testing.T) {
	base := detConfig(Classfuzz)
	base.KeepGenBytes = true
	ref, err := Run(base)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	want := summarize(ref)

	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = w
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(summarize(res), want) {
			t.Errorf("workers=%d: summary diverges from reference", w)
			continue
		}
		if len(res.Gen) != len(ref.Gen) {
			t.Fatalf("workers=%d: %d generated classes, want %d", w, len(res.Gen), len(ref.Gen))
		}
		for i := range res.Gen {
			if !bytes.Equal(res.Gen[i].Data, ref.Gen[i].Data) {
				t.Errorf("workers=%d: Gen[%d] bytes differ from reference", w, i)
			}
		}

		// Scribble every returned buffer with a per-index pattern, then
		// verify each still holds only its own pattern: any
		// cross-contamination means two Gen entries share memory.
		for i := range res.Gen {
			for j := range res.Gen[i].Data {
				res.Gen[i].Data[j] = byte(i)
			}
		}
		for i := range res.Gen {
			for j, c := range res.Gen[i].Data {
				if c != byte(i) {
					t.Fatalf("workers=%d: Gen[%d].Data[%d] = %#x after scribble — returned buffers alias each other",
						w, i, j, c)
				}
			}
		}

		// The engine must hold no references to the buffers it
		// returned: a fresh campaign over the same seed corpus still
		// reproduces the reference even after the scribble.
		again, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d rerun: %v", w, err)
		}
		if !reflect.DeepEqual(summarize(again), want) {
			t.Errorf("workers=%d: rerun after scribbling diverges — a returned buffer aliased engine- or seed-owned memory", w)
		}
	}
}

// TestLoweredFileOwnership is the recycling safety net for the lowering
// context: nothing a run leaves behind may alias the lowered file that
// the next Lower overwrites. Mutant A is lowered and run on a VM with a
// decode cache attached; then class B is lowered through the same
// context (overwriting A's pool, members and attribute tables) and run.
// Rerunning A's bytes on the same warm VM and on a fresh VM must
// reproduce A's first outcome and trace exactly — a cache entry or
// Outcome that pointed into A's file would now see B's contents.
func TestLoweredFileOwnership(t *testing.T) {
	var classes []*jimple.Class
	muts := mutation.Registry()
	for i, s := range seedgen.Generate(seedgen.DefaultOptions(20, 5)) {
		for k := 0; k < len(muts); k += 7 {
			mutant := s.Clone()
			if muts[(i+k)%len(muts)].Apply(mutant, DeriveRNG(int64(k), i)) {
				finishMutant(mutant, i*1000+k)
				classes = append(classes, mutant)
			}
		}
	}

	newVM := func() (*jvm.VM, *coverage.Recorder) {
		vm := jvm.New(jvm.HotSpot9())
		rec := coverage.NewRecorder(jvm.ProbeRegistry())
		vm.SetRecorder(rec)
		return vm, rec
	}
	warm, rec := newVM()
	warm.SetDecodeCache(jvm.NewDecodeCache())
	lctx := jimple.NewLowerCtx()

	checked := 0
	for i := 0; i+1 < len(classes); i++ {
		a, b := classes[i], classes[i+1]
		fa, err := lctx.Lower(a)
		if err != nil {
			continue
		}
		dataA, err := fa.Bytes()
		if err != nil {
			continue
		}
		rec.Reset()
		outA := warm.RunParsed(fa)
		trA := rec.Trace()

		if fb, err := lctx.Lower(b); err == nil {
			if fb != fa {
				t.Fatal("the context returned a new file; this test no longer overwrites A's storage")
			}
			if _, err := fb.Bytes(); err == nil {
				rec.Reset()
				warm.RunParsed(fb)
			}
		}

		rec.Reset()
		outWarm := warm.Run(dataA)
		trWarm := rec.Trace()
		fresh, frec := newVM()
		outFresh := fresh.Run(dataA)
		trFresh := frec.Trace()
		if !reflect.DeepEqual(outA, outWarm) || !reflect.DeepEqual(outA, outFresh) {
			t.Fatalf("%s: first run %v, warm rerun %v, fresh rerun %v", a.Name, outA, outWarm, outFresh)
		}
		if !trA.EqualSets(trWarm) || !trA.EqualSets(trFresh) {
			t.Fatalf("%s: first-run trace %v, warm rerun %v, fresh rerun %v", a.Name, trA.Stats(), trWarm.Stats(), trFresh.Stats())
		}
		checked++
	}
	if checked < len(classes)/2 {
		t.Fatalf("only %d of %d mutants checked", checked, len(classes))
	}
}
