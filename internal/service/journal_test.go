package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/seedgen"
)

// digits is the width of n's decimal rendering.
func digits(n int) int { return len(strconv.Itoa(n)) }

// TestStateWriteIndependentOfLog pins that persistence costs what a
// fold changed: after every fold, state.json's size is the same up to
// the digit widths of its counters however many discrepancies are
// logged, and the discrepancy journal only grows by appending.
func TestStateWriteIndependentOfLog(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 4
	m := New(cfg)
	var (
		fixed   []int
		journal []byte
		growth  []int
		errs    []error
	)
	m.foldHook = func(string, *campaign.Result) {
		blob, err := os.ReadFile(m.statePath())
		if err != nil {
			errs = append(errs, err)
			return
		}
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			errs = append(errs, err)
			return
		}
		fixed = append(fixed, len(blob)-digits(st.NextDiscrepancy)-digits(st.ShardEpochs[0]))
		j, err := os.ReadFile(m.discPath())
		if err != nil {
			errs = append(errs, err)
			return
		}
		if !bytes.HasPrefix(j, journal) {
			errs = append(errs, fmt.Errorf("fold rewrote the journal's earlier lines"))
		}
		if n := bytes.Count(j, []byte("\n")); n != st.NextDiscrepancy {
			errs = append(errs, fmt.Errorf("journal holds %d lines, state commits %d", n, st.NextDiscrepancy))
		}
		growth = append(growth, st.NextDiscrepancy)
		journal = j
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	if len(fixed) != cfg.Epochs {
		t.Fatalf("observed %d folds, want %d", len(fixed), cfg.Epochs)
	}
	if growth[0] == growth[len(growth)-1] {
		t.Fatalf("the log never grew across folds (%v); the test needs discrepancies", growth)
	}
	for i, n := range fixed {
		if n != fixed[0] {
			t.Fatalf("fold %d wrote a %d-byte state (less counter digits), fold 0 wrote %d; log sizes %v", i, n, fixed[0], growth)
		}
	}
}

// TestCrashBetweenJournalAndState kills the fold commit at its one
// window: the journal lines are appended but state.json still holds
// the previous frontier and next_discrepancy (plus a torn line, as a
// kill mid-append leaves). The restart truncates the uncommitted tail,
// re-runs the epoch and re-appends it; the final log equals the
// uninterrupted run's, IDs included, without duplicates.
func TestCrashBetweenJournalAndState(t *testing.T) {
	base := testConfig(t, 1)
	base.Shards = 1
	base.Epochs = 3
	_, want := runToCompletion(t, base)

	cfg := base
	cfg.DataDir = t.TempDir()
	cfg.Epochs = 2
	runToCompletion(t, cfg)
	statePath := filepath.Join(cfg.DataDir, "state.json")
	discPath := filepath.Join(cfg.DataDir, "discrepancies.jsonl")
	beforeFold, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(discPath)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Epochs = 3
	runToCompletion(t, cfg)
	// Roll state.json back across the last fold: its journal lines stay.
	if err := os.WriteFile(statePath, beforeFold, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(discPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":999,"shard":0,"ep`)
	f.Close()
	if fi, _ := os.Stat(discPath); fi.Size() <= int64(len(committed))+int64(len(`{"id":999,"shard":0,"ep`)) {
		t.Fatal("the rolled-back fold appended no journal lines; the test needs discrepancies in it")
	}

	m, l := newManager(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := l.summary(); len(got) != 1 {
		t.Fatalf("restart folded %d epochs, want only the rolled-back one", len(got))
	}
	if got, w := m.Discrepancies(0), want.Discrepancies(0); !reflect.DeepEqual(got, w) {
		t.Fatalf("log after crash+restart (%d entries) differs from the uninterrupted run's (%d)", len(got), len(w))
	}
	// The journal on disk is exactly the committed log.
	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	m2.Stop(context.Background())
	if got, w := m2.Discrepancies(0), want.Discrepancies(0); !reflect.DeepEqual(got, w) {
		t.Fatal("reloaded journal differs from the uninterrupted run's log")
	}
	journal, _ := os.ReadFile(discPath)
	if n := bytes.Count(journal, []byte("\n")); n != len(want.Discrepancies(0)) || !bytes.HasSuffix(journal, []byte("\n")) {
		t.Fatalf("journal holds %d lines (torn tail kept?), want %d", n, len(want.Discrepancies(0)))
	}
}

// adoptLifetime runs a daemon lifetime whose epochs are already done
// and hands it one submission; the drain adopts it into the corpus.
func adoptLifetime(t *testing.T, cfg Config, data []byte) *Manager {
	t.Helper()
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	m.queue <- data
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	return m
}

// TestCrashBetweenCorpusWriteAndState kills an intake at its commit
// window: the submission's corpus file is on disk but state.json still
// counts the corpus without it. The adoption never committed, so the
// restart must not load the orphan file; the client resubmits (here a
// different seed, which takes over the orphan's slot), and the folds
// and discrepancies equal those of a run that adopted only that seed.
func TestCrashBetweenCorpusWriteAndState(t *testing.T) {
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(2, 42))
	if err != nil {
		t.Fatal(err)
	}
	lost, resubmitted := files[0], files[1]
	base := testConfig(t, 1)
	base.Shards = 1
	base.Epochs = 1
	first, _ := runToCompletion(t, base)
	adoptLifetime(t, base, resubmitted)
	base.Epochs = 2
	second, wm := runToCompletion(t, base)
	want := unionSummaries(t, first.summary(), second.summary())

	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 1
	l1, _ := runToCompletion(t, cfg)
	statePath := filepath.Join(cfg.DataDir, "state.json")
	beforeIntake, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	m := adoptLifetime(t, cfg, lost)
	orphan := m.corpusPath(0)
	// Roll state.json back across the adoption: the corpus file stays.
	if err := os.WriteFile(statePath, beforeIntake, 0o644); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(orphan); err != nil || !bytes.Equal(data, lost) {
		t.Fatalf("the rolled-back intake left no corpus file (%v)", err)
	}

	m = adoptLifetime(t, cfg, resubmitted)
	if n := m.submittedCount(); n != 1 {
		t.Fatalf("restart + resubmission holds %d submitted seeds, want 1", n)
	}
	if data, _ := os.ReadFile(orphan); !bytes.Equal(data, resubmitted) {
		t.Fatal("the resubmission did not replace the orphan corpus file")
	}
	cfg.Epochs = 2
	l2, m2 := runToCompletion(t, cfg)
	if got := unionSummaries(t, l1.summary(), l2.summary()); !reflect.DeepEqual(got, want) {
		t.Fatal("folds after the intake crash diverge from the uninterrupted run")
	}
	if got, w := m2.Discrepancies(0), wm.Discrepancies(0); !reflect.DeepEqual(got, w) {
		t.Fatalf("log after the intake crash (%d entries) differs from the uninterrupted run's (%d)", len(got), len(w))
	}
}

// TestCrashBetweenCheckpointWriteAndRename kills a drain while shard
// 0's checkpoint is a complete temp file not yet renamed into place.
// The restart must ignore the temp file: shard 0 reruns its epoch from
// the start, shard 1 restores its checkpoint, and the folds across
// both lifetimes equal the uninterrupted run's.
func TestCrashBetweenCheckpointWriteAndRename(t *testing.T) {
	want, wm := runToCompletion(t, testConfig(t, 1))

	cfg := testConfig(t, 1)
	m1, l1 := stoppedLifetime(t, cfg, map[[2]int]int{{0, 1}: 5, {1, 0}: 37})
	path := m1.checkpointPath(0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drained checkpoint: %v", err)
	}
	// The temp file as writeJSONAtomic leaves it before its rename.
	if err := os.WriteFile(path+".tmp2290136857", blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	l2, m2 := runToCompletion(t, cfg)
	if r := restoredCount(m2); r != 1 {
		t.Fatalf("restart restored %d checkpoints, want shard 1's only", r)
	}
	if _, ok := l2.summary()["shard0/epoch1"]; !ok {
		t.Fatal("shard 0's interrupted epoch did not fold after the restart")
	}
	if got := unionSummaries(t, l1.summary(), l2.summary()); !reflect.DeepEqual(got, want.summary()) {
		t.Fatal("folds after the checkpoint crash diverge from the uninterrupted run")
	}
	if !reflect.DeepEqual(discSet(m2.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
		t.Fatal("discrepancy set after the checkpoint crash diverges from the uninterrupted run")
	}
}

// TestDiscrepancyJournalShort: a state.json committing more entries
// than the journal holds is refused, not papered over.
func TestDiscrepancyJournalShort(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 1
	_, m := runToCompletion(t, cfg)
	n := len(m.Discrepancies(0))
	if n == 0 {
		t.Fatal("the test needs discrepancies")
	}
	discPath := filepath.Join(cfg.DataDir, "discrepancies.jsonl")
	journal, err := os.ReadFile(discPath)
	if err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndexByte(journal[:len(journal)-1], '\n') + 1
	if err := os.WriteFile(discPath, journal[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := New(cfg)
	if err := m2.Start(); err == nil {
		m2.Stop(context.Background())
		t.Fatalf("start accepted a journal holding %d of %d committed entries", n-1, n)
	}
}

// TestStateV1Refused: a data directory of the previous on-disk format
// (state.json version 1, which listed corpus names and embedded the
// discrepancy log) is refused by the version check.
func TestStateV1Refused(t *testing.T) {
	cfg := testConfig(t, 1)
	v1 := `{"version":1,"algorithm":"classfuzz","criterion":2,"seed":5,"seed_count":12,` +
		`"iterations":60,"shards":2,"submitted":["sub00000.class"],"shard_epochs":[0,0],` +
		`"next_discrepancy":0,"discrepancies":[]}`
	if err := os.WriteFile(filepath.Join(cfg.DataDir, "state.json"), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	m := New(cfg)
	err := m.Start()
	if err == nil {
		m.Stop(context.Background())
		t.Fatal("a version 1 data directory was accepted")
	}
	if !bytes.Contains([]byte(err.Error()), []byte("state version 1")) {
		t.Fatalf("want a version error, got: %v", err)
	}
}

// TestDiscrepanciesAPIContiguous polls /api/discrepancies while shards
// fold: every response's entries run contiguously from since and end
// just below next, because both are read in one critical section.
func TestDiscrepanciesAPIContiguous(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Epochs = 0
	cfg.Iterations = 30
	m := New(cfg)
	// Every fold leaves one wake-up token per poller, so a poller reads
	// again exactly when the log may have grown, and a fold that lands
	// while it is reading is not missed.
	const pollers = 3
	var wake [pollers]chan struct{}
	for p := range wake {
		wake[p] = make(chan struct{}, 1)
	}
	m.foldHook = func(string, *campaign.Result) {
		for _, c := range wake {
			select {
			case c <- struct{}{}:
			default:
			}
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	defer m.Stop(context.Background())
	// Idle client connections (a dialed-but-unused one reads as busy
	// for 5 s) would hold up the drain's listener shutdown.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	base := "http://" + m.Addr()

	type response struct {
		Next          int           `json:"next"`
		Discrepancies []Discrepancy `json:"discrepancies"`
	}
	check := func(since int, wait bool) (response, error) {
		url := fmt.Sprintf("%s/api/discrepancies?since=%d", base, since)
		if wait {
			url += "&wait=1"
		}
		resp, err := client.Get(url)
		if err != nil {
			return response{}, err
		}
		defer resp.Body.Close()
		var r response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			return r, err
		}
		if want := max(0, r.Next-since); len(r.Discrepancies) != want {
			return r, fmt.Errorf("since=%d next=%d: %d entries, want %d", since, r.Next, len(r.Discrepancies), want)
		}
		for i, d := range r.Discrepancies {
			if d.ID != since+i {
				return r, fmt.Errorf("since=%d: entry %d has id %d", since, i, d.ID)
			}
		}
		return r, nil
	}

	// Concurrent pollers at staggered offsets, one poll per fold.
	var wg sync.WaitGroup
	errs := make(chan error, pollers+1)
	deadline := time.Now().Add(20 * time.Second)
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			timeout := time.After(time.Until(deadline))
			polls, next := 0, 0
			for {
				r, err := check(max(0, next-p*3), false)
				if err != nil {
					errs <- err
					return
				}
				next = r.Next
				polls++
				if next >= 60 {
					return
				}
				select {
				case <-wake[p]:
				case <-timeout:
					errs <- fmt.Errorf("poller %d saw only %d discrepancies in %d polls", p, next, polls)
					return
				}
			}
		}(p)
	}
	// A long-poller waits at the frontier for each new batch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		since := 0
		for since < 60 && time.Now().Before(deadline) {
			r, err := check(since, true)
			if err != nil {
				errs <- err
				return
			}
			since = r.Next
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
