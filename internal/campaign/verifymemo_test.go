package campaign

import (
	"reflect"
	"testing"

	"repro/internal/jvm"
)

// TestVerifyMemoObserveEquivalence is the engine-level contract of the
// method-verification memo: campaigns run with the memo disabled
// (cold verifier every time), with the default engine-private memo,
// and with an injected pre-warmed memo must produce bit-identical
// summaries — accepted suites, draw logs and mutator statistics — at
// every worker count the determinism matrix sweeps. The memo may only move wall clock, never results.
func TestVerifyMemoObserveEquivalence(t *testing.T) {
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			// Baseline: memo disabled, workers=1.
			base := detConfig(alg)
			base.DisableVerifyMemo = true
			res, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			want := summarize(res)

			// A memo warmed by a full prior campaign (the daemon's
			// cross-epoch shape).
			warm := jvm.NewVerifyMemo()
			{
				cfg := detConfig(alg)
				cfg.VerifyMemo = warm
				if _, err := Run(cfg); err != nil {
					t.Fatal(err)
				}
			}

			for _, w := range workerCounts() {
				for name, mutate := range map[string]func(*Config){
					"memo-off":  func(c *Config) { c.DisableVerifyMemo = true },
					"memo-cold": func(c *Config) {},
					"memo-warm": func(c *Config) { c.VerifyMemo = warm },
				} {
					cfg := detConfig(alg)
					cfg.Workers = w
					mutate(&cfg)
					res, err := Run(cfg)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", name, w, err)
					}
					if got := summarize(res); !reflect.DeepEqual(got, want) {
						t.Errorf("%s workers=%d diverges from memo-off workers=1", name, w)
					}
				}
			}
		})
	}
}

// TestReplayWithAndWithoutMemo pins the replay contract across memo
// modes: a mutant replayed from a memo-on campaign's draw log is
// byte-identical to one replayed from a memo-off campaign's, because
// the memo cannot perturb draws, mutations or acceptance.
func TestReplayWithAndWithoutMemo(t *testing.T) {
	on := detConfig(Classfuzz)
	off := detConfig(Classfuzz)
	off.DisableVerifyMemo = true
	resOn, err := Run(on)
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if len(resOn.Test) == 0 || len(resOn.Test) != len(resOff.Test) {
		t.Fatalf("accepted suites differ in size: %d vs %d", len(resOn.Test), len(resOff.Test))
	}
	for _, iter := range []int{0, on.Iterations / 2, on.Iterations - 1} {
		a, err := Replay(on, iter)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Replay(off, iter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("replay of iteration %d diverges between memo modes", iter)
		}
	}
}
