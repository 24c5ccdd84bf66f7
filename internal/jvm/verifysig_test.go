package jvm

import "testing"

// TestVerifyIdentSigPinned pins the persisted identity signatures of
// the five standard presets under both oracles. A persisted memo
// journal is matched against these values on import, so a change here
// silently orphans every journal written before it.
func TestVerifyIdentSigPinned(t *testing.T) {
	want := map[string][2]uint64{
		"HotSpot-Java7": {0x5a55c36a2785fe53, 0x5a55c26a2785fca0},
		"HotSpot-Java8": {0xe7bdd03244345a6f, 0xe7bdcf32443458bc},
		"HotSpot-Java9": {0x3c6cc0ded5cdac21, 0x3c6cbfded5cdaa6e},
		"J9-SDK8":       {0xbdadb492b68be1eb, 0xbdadb392b68be038},
		"GIJ-5.1.0":     {0x6a9d537f272b9f67, 0x6a9d527f272b9db4},
	}
	specs := StandardFive()
	if len(specs) != len(want) {
		t.Fatalf("%d standard presets, %d pinned", len(specs), len(want))
	}
	for _, spec := range specs {
		w, ok := want[spec.Name]
		if !ok {
			t.Fatalf("preset %s has no pinned signature", spec.Name)
		}
		for i, oracle := range []VerifyOracle{OracleVM, OracleDataflow} {
			if got := (VerifyIdent{Spec: spec, Env: spec.Release, Oracle: oracle}).sig(); got != w[i] {
				t.Errorf("%s oracle %d: sig %#016x, pinned %#016x", spec.Name, oracle, got, w[i])
			}
		}
	}
}
