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
	"repro/internal/catalog"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
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
	fuzzState = `{"version":2,"algorithm":"classfuzz","criterion":1,"seed":7,"seed_count":4,` +
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
	writeDataDir(t, dir, state, discs, memo)
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

// writeDataDir writes the three persistent files into dir (a nil
// input leaves its file absent).
func writeDataDir(t testing.TB, dir string, state, discs, memo []byte) {
	for name, data := range map[string][]byte{
		"state.json": state, "discrepancies.jsonl": discs, "memo.jsonl": memo,
	} {
		if data != nil {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func FuzzStartState(f *testing.F) {
	f.Add([]byte(fuzzState))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":1,"submitted":["sub00000.class"],"discrepancies":[]}`))
	f.Add([]byte(`{"version":2,"algorithm":"classfuzz","criterion":1,"seed":7,"seed_count":4,` +
		`"iterations":5000,"shards":1,"seed_strategy":"uniform","submitted":-1,"shard_epochs":[0],"next_discrepancy":0}`))
	f.Add([]byte(`{"version":2,"algorithm":"classfuzz","criterion":1,"seed":7,"seed_count":4,` +
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

// FuzzLiftSeed drives the POST /api/seeds path past the HTTP layer:
// arbitrary bytes go through liftSeed, and whatever lifts is lowered
// and run on HotSpot 9 the way an epoch runs its corpus. Every step
// returns an error or an outcome; none panics or hangs.
func FuzzLiftSeed(f *testing.F) {
	for _, e := range catalog.Entries() {
		if data, err := e.Data(); err == nil {
			f.Add(data)
		}
	}
	f.Add([]byte{0xca, 0xfe, 0xba, 0xbe, 0, 0, 0, 51})
	f.Add([]byte(""))
	vm := jvm.New(jvm.HotSpot9())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := liftSeed(data)
		if err != nil {
			return
		}
		lowered, err := jimple.Lower(c)
		if err != nil {
			return
		}
		out, err := lowered.Bytes()
		if err != nil {
			return
		}
		vm.Run(out)
	})
}

// FuzzStartShardCheckpoint feeds arbitrary bytes to Start as shard 0's
// checkpoint of the epoch state.json says is running. A checkpoint
// Start cannot use is ignored (the epoch runs fresh) or fails Start;
// either way the daemon drains cleanly, restores at most one
// checkpoint, keeps the committed discrepancies, and leaves a
// directory the next Start accepts. The first seed is a real
// checkpoint of that epoch, which restores.
func FuzzStartShardCheckpoint(f *testing.F) {
	valid := drainedCheckpoint(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(bytes.Replace(valid, []byte(`"epoch":3`), []byte(`"epoch":2`), 1))
	f.Add(bytes.Replace(valid, []byte(`"epoch":3`), []byte(`"epoch":4`), 1))
	f.Add(bytes.Replace(valid, []byte(`"submitted_used":0`), []byte(`"submitted_used":5`), 1))
	f.Add(bytes.Replace(valid, []byte(`"committed":`), []byte(`"committed":9`), 1))
	f.Add([]byte(`{"version":1,"shard":0,"epoch":3,"submitted_used":0,"campaign":null}`))
	f.Add([]byte(`{"version":1,"shard":0,"epoch":3,"submitted_used":0,"campaign":{"version":2}}`))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, cp []byte) {
		dir := t.TempDir()
		writeDataDir(t, dir, []byte(fuzzState), []byte(fuzzDiscs), []byte(fuzzMemo))
		if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "checkpoints", "shard-0.json"), cp, 0o644); err != nil {
			t.Fatal(err)
		}
		m := New(fuzzConfig(dir))
		if err := m.Start(); err != nil {
			return
		}
		if err := m.Stop(context.Background()); err != nil {
			t.Fatalf("stop: %v", err)
		}
		if r := restoredCount(m); r > 1 || bytes.Equal(cp, valid) && r != 1 {
			t.Fatalf("restored %d checkpoints", r)
		}
		if got := m.Discrepancies(0); len(got) < 2 || got[0].Class != "A" || got[1].Class != "B" {
			t.Fatalf("committed discrepancies lost: %+v", got)
		}
		m2 := New(fuzzConfig(dir))
		if err := m2.Start(); err != nil {
			t.Fatalf("restart after a successful start: %v", err)
		}
		if err := m2.Stop(context.Background()); err != nil {
			t.Fatalf("second stop: %v", err)
		}
	})
}

// drainedCheckpoint returns the checkpoint a drain writes for the
// fuzz daemon's epoch 3 stopped at iteration 40.
func drainedCheckpoint(f *testing.F) []byte {
	dir := f.TempDir()
	writeDataDir(f, dir, []byte(fuzzState), []byte(fuzzDiscs), []byte(fuzzMemo))
	m := New(fuzzConfig(dir))
	m.stopAt = stopAtHook(map[[2]int]int{{0, 3}: 40})
	if err := m.Start(); err != nil {
		f.Fatal(err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(m.checkpointPath(0))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
