package campaign

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
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
