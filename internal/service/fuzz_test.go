package service

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
)

// fuzzConfig is a one-shard daemon whose epochs are far too long to
// fold during a fuzz execution, so every discrepancy it reports was
// loaded from disk.
func fuzzConfig(dir string) Config {
	return Config{
		DataDir:    dir,
		Shards:     1,
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		SeedCount:  4,
		Seed:       7,
		Iterations: 5000,
	}
}

const (
	fuzzState = `{"version":2,"algorithm":"classfuzz","criterion":2,"seed":7,"seed_count":4,` +
		`"iterations":5000,"shards":1,"seed_strategy":"uniform","submitted":0,` +
		`"shard_epochs":[3],"next_discrepancy":2}`
	fuzzDiscs = `{"id":0,"shard":0,"epoch":0,"iteration":4,"class":"A","fingerprint":1,"vector":"00012","outcomes":["a","b"],"cluster":-1}` + "\n" +
		`{"id":1,"shard":0,"epoch":2,"iteration":9,"class":"B","fingerprint":2,"vector":"11112","outcomes":null,"cluster":-1}` + "\n"
	// The sig is HotSpot-Java9's (TestVerifyIdentSigPinned).
	fuzzMemo = `[{"sig":4354067003062725665,"key_lo":1,"key_hi":2,"ok":true},` +
		`{"sig":4354067003062725665,"key_lo":3,"key_hi":4,"ok":false,"outcome":{"Phase":2,"Error":"java.lang.VerifyError","Message":"x"}}]` + "\n"
)

// startFuzzed writes the three inputs into a fresh data directory and
// starts a daemon on it. A refused start is fine. A start that
// succeeds must report exactly the committed journal prefix, and after
// its drain a second start must succeed with the same log: whatever
// the first start recovered from, it left a consistent directory.
func startFuzzed(t *testing.T, state, discs, memo []byte) {
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"state.json": state, "discrepancies.jsonl": discs, "memo.jsonl": memo,
	} {
		if data != nil {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	m := New(fuzzConfig(dir))
	if err := m.Start(); err != nil {
		return
	}
	got := m.Discrepancies(0)
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}

	var st State
	n := 0
	if json.Unmarshal(state, &st) == nil {
		n = st.NextDiscrepancy
	}
	if len(got) != n {
		t.Fatalf("reported %d discrepancies, state.json commits %d", len(got), n)
	}
	lines := bytes.SplitAfter(discs, []byte("\n"))
	for i, d := range got {
		var want Discrepancy
		if err := json.Unmarshal(lines[i], &want); err != nil || !reflect.DeepEqual(d, want) {
			t.Fatalf("discrepancy %d = %+v, journal line %q", i, d, lines[i])
		}
	}

	m2 := New(fuzzConfig(dir))
	if err := m2.Start(); err != nil {
		t.Fatalf("restart after a successful start: %v", err)
	}
	again := m2.Discrepancies(0)
	if err := m2.Stop(context.Background()); err != nil {
		t.Fatalf("second stop: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Fatalf("restart reported %d discrepancies, the first start %d", len(again), len(got))
	}
}

func FuzzStartState(f *testing.F) {
	f.Add([]byte(fuzzState))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"submitted":["sub00000.class"],"discrepancies":[]}`))
	f.Add([]byte(`{"version":2,"algorithm":"classfuzz","criterion":2,"seed":7,"seed_count":4,` +
		`"iterations":5000,"shards":1,"seed_strategy":"uniform","submitted":-1,"shard_epochs":[0],"next_discrepancy":0}`))
	f.Add([]byte(`{"version":2,"algorithm":"classfuzz","criterion":2,"seed":7,"seed_count":4,` +
		`"iterations":5000,"shards":1,"seed_strategy":"uniform","submitted":0,"shard_epochs":[0],"next_discrepancy":9000000000000}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, state []byte) {
		startFuzzed(t, state, []byte(fuzzDiscs), []byte(fuzzMemo))
	})
}

func FuzzStartDiscrepancyJournal(f *testing.F) {
	f.Add([]byte(fuzzDiscs))
	f.Add([]byte(fuzzDiscs + `{"id":2,"shard":0,"epoch":3,"iteration":1,"class":"C"}` + "\n"))
	f.Add([]byte(fuzzDiscs + `{"id":2,"sha`))
	f.Add([]byte(fuzzDiscs[:40]))
	f.Add([]byte(`{"id":1}` + "\n" + `{"id":0}` + "\n"))
	f.Add([]byte("null\nnull\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, discs []byte) {
		startFuzzed(t, []byte(fuzzState), discs, []byte(fuzzMemo))
	})
}

func FuzzStartMemoJournal(f *testing.F) {
	f.Add([]byte(fuzzMemo))
	f.Add([]byte(fuzzMemo + fuzzMemo[:30]))
	f.Add([]byte("garbage\n" + fuzzMemo))
	f.Add([]byte(`[{"sig":4354067003062725665,"key_lo":5,"key_hi":6,"ok":false}]` + "\n"))
	f.Add([]byte("[]\n\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, memo []byte) {
		startFuzzed(t, []byte(fuzzState), []byte(fuzzDiscs), memo)
	})
}
