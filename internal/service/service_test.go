package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// testConfig is a small bounded daemon: 2 shards × 2 epochs.
func testConfig(t *testing.T, workers int) Config {
	t.Helper()
	return Config{
		DataDir:    t.TempDir(),
		Shards:     2,
		Workers:    workers,
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		SeedCount:  12,
		Seed:       5,
		Iterations: 60,
		Epochs:     2,
		QueueCap:   4,
	}
}

// foldSummary reduces one folded epoch to comparable facts: the
// accepted test names and bytes plus the draw log and generation
// lengths.
type foldSummary struct {
	TestNames []string
	TestBytes [][]byte
	Draws     int
	GenCount  int
}

// foldLog collects a manager's folded epochs, keyed "shardN/epochM",
// through its fold hook (the daemon itself keeps no results).
type foldLog struct {
	mu    sync.Mutex
	folds map[string]foldSummary
}

func (l *foldLog) summary() map[string]foldSummary {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]foldSummary, len(l.folds))
	for k, v := range l.folds {
		out[k] = v
	}
	return out
}

// newManager builds a manager whose folds are recorded.
func newManager(cfg Config) (*Manager, *foldLog) {
	m := New(cfg)
	l := &foldLog{folds: map[string]foldSummary{}}
	m.foldHook = func(key string, res *campaign.Result) {
		fs := foldSummary{Draws: len(res.Draws), GenCount: len(res.Gen)}
		for _, g := range res.Test {
			fs.TestNames = append(fs.TestNames, g.Name)
			fs.TestBytes = append(fs.TestBytes, g.Data)
		}
		l.mu.Lock()
		l.folds[key] = fs
		l.mu.Unlock()
	}
	return m, l
}

// runToCompletion starts a manager, waits for the epoch budget and
// stops it, returning its folds.
func runToCompletion(t *testing.T, cfg Config) (*foldLog, *Manager) {
	t.Helper()
	m, l := newManager(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	return l, m
}

// discSet reduces the discrepancy log to its deterministic identity
// (IDs are arrival-ordered and may differ between runs).
func discSet(ds []Discrepancy) []string {
	keys := make([]string, 0, len(ds))
	for _, d := range ds {
		keys = append(keys, fmt.Sprintf("s%d/e%d/%s/%s", d.Shard, d.Epoch, d.Class, d.Vector))
	}
	sort.Strings(keys)
	return keys
}

// unionSummaries merges per-run fold summaries. An epoch folds in
// exactly one daemon lifetime (the frontier advances with the fold),
// so overlapping keys are a protocol violation.
func unionSummaries(t *testing.T, runs ...map[string]foldSummary) map[string]foldSummary {
	t.Helper()
	out := map[string]foldSummary{}
	for _, run := range runs {
		for key, fs := range run {
			if _, dup := out[key]; dup {
				t.Fatalf("epoch %s folded in two daemon lifetimes", key)
			}
			out[key] = fs
		}
	}
	return out
}

// stopAtHook arms a manager's stopAt hook with deterministic stop
// points: stops[{shard, epoch}] is the iteration that epoch stops at.
func stopAtHook(stops map[[2]int]int) func(shard, epoch int) int {
	return func(shard, epoch int) int {
		if k, ok := stops[[2]int{shard, epoch}]; ok {
			return k
		}
		return -1
	}
}

// stoppedLifetime runs a daemon lifetime on cfg whose epochs stop at
// the given points, then drains it. Every stop point leaves exactly one
// checkpoint behind.
func stoppedLifetime(t *testing.T, cfg Config, stops map[[2]int]int) (*Manager, *foldLog) {
	t.Helper()
	m, l := newManager(cfg)
	m.stopAt = stopAtHook(stops)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if w := m.Session().Telemetry.Snapshot().Counter(MetricCheckpointsWritten); w != int64(len(stops)) {
		t.Fatalf("drain wrote %d checkpoints, want one per stop point (%d)", w, len(stops))
	}
	return m, l
}

// restoredCount reads a manager's restored-checkpoint counter.
func restoredCount(m *Manager) int64 {
	return m.Session().Telemetry.Snapshot().Counter(MetricCheckpointsRestored)
}

// TestDaemonKillResumeDeterminism is the service-level acceptance
// test: a daemon drained mid-flight (the drain writes shard
// checkpoints) and restarted on the same data directory must produce,
// across both lifetimes, the exact folds an uninterrupted daemon
// produces — per-epoch accepted suites byte-identical, discrepancy
// sets equal — at worker counts 1 and 4. The drain points are
// iteration boundaries, not wall-clock delays, so every run exercises
// the resume path: shard 0 folds epoch 0 and stops in epoch 1 before
// the lookahead window fills, shard 1 stops in epoch 0 after it. Every
// checkpoint the drain writes is one the restart restores.
func TestDaemonKillResumeDeterminism(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			want, wm := runToCompletion(t, testConfig(t, workers))

			cfg := testConfig(t, workers)
			_, l1 := stoppedLifetime(t, cfg, map[[2]int]int{{0, 1}: 5, {1, 0}: 37})
			l2, m2 := runToCompletion(t, cfg)
			if r := restoredCount(m2); r != 2 {
				t.Fatalf("drain wrote 2 checkpoints, restart restored %d", r)
			}

			got := unionSummaries(t, l1.summary(), l2.summary())
			if !reflect.DeepEqual(got, want.summary()) {
				t.Fatal("interrupted+resumed folds diverge from the uninterrupted run")
			}
			// The discrepancy log persists in its journal, so the final
			// daemon's view covers both lifetimes.
			if !reflect.DeepEqual(discSet(m2.Discrepancies(0)), discSet(wm.Discrepancies(0))) {
				t.Fatal("resumed daemon discrepancy set diverges from uninterrupted run")
			}
		})
	}
}

// TestDaemonStaleCheckpointIgnored: checkpoints whose epoch already
// folded (CheckpointNow raced the fold, or a kill landed between the
// fold's state write and the checkpoint cleanup) must be ignored on
// restart, not re-folded — the union across lifetimes still equals
// the uninterrupted run. The relic is a real mid-epoch checkpoint,
// restored once and then put back after its epoch folded.
func TestDaemonStaleCheckpointIgnored(t *testing.T) {
	want, _ := runToCompletion(t, testConfig(t, 2))

	cfg := testConfig(t, 2)
	m1, l1 := stoppedLifetime(t, cfg, map[[2]int]int{{0, 0}: 20})
	path := m1.checkpointPath(0)
	relic, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drained checkpoint: %v", err)
	}

	l2, m2 := runToCompletion(t, cfg)
	if r := restoredCount(m2); r != 1 {
		t.Fatalf("drain wrote 1 checkpoint, restart restored %d", r)
	}
	if err := os.WriteFile(path, relic, 0o644); err != nil {
		t.Fatal(err)
	}

	l3, m3 := runToCompletion(t, cfg)
	if n := len(l3.summary()); n != 0 {
		t.Fatalf("restart re-folded %d epochs of a completed daemon", n)
	}
	if r := restoredCount(m3); r != 0 {
		t.Fatalf("restart restored %d stale checkpoints", r)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint not removed (stat: %v)", err)
	}
	got := unionSummaries(t, l1.summary(), l2.summary(), l3.summary())
	if !reflect.DeepEqual(got, want.summary()) {
		t.Fatal("completed run's folds diverge from the uninterrupted run")
	}
}

// TestCheckpointWithPrefilterKeyRestores: checkpoints written before
// the engine lost its static prefilter carry a "prefilter" counter
// object in the campaign snapshot. Snapshot decoding ignores it, so
// such a checkpoint restores, and the folds across both lifetimes
// equal the uninterrupted run's.
func TestCheckpointWithPrefilterKeyRestores(t *testing.T) {
	want, _ := runToCompletion(t, testConfig(t, 1))

	cfg := testConfig(t, 1)
	m1, l1 := stoppedLifetime(t, cfg, map[[2]int]int{{1, 1}: 30})
	path := m1.checkpointPath(1)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("drained checkpoint: %v", err)
	}
	var cp map[string]json.RawMessage
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal(cp["campaign"], &snap); err != nil {
		t.Fatal(err)
	}
	snap["prefilter"] = json.RawMessage(`{"Checked":22,"Doomed":15,"VerifyDoomed":9,"Skipped":1,"Executed":14}`)
	if cp["campaign"], err = json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
	if blob, err = json.Marshal(cp); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, m2 := runToCompletion(t, cfg)
	if r := restoredCount(m2); r != 1 {
		t.Fatalf("checkpoint with a prefilter key: restored %d, want 1", r)
	}
	got := unionSummaries(t, l1.summary(), l2.summary())
	if !reflect.DeepEqual(got, want.summary()) {
		t.Fatal("folds across the two lifetimes diverge from the uninterrupted run")
	}
}

// TestSeedSubmissionAPI drives the corpus API end to end: a valid
// classfile is adopted and persisted, malformed bytes get 400, a held
// intake queue overflows into 429, and released seeds drain.
func TestSeedSubmissionAPI(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.Epochs = 0 // stay alive until stopped
	cfg.Iterations = 2000
	cfg.QueueCap = 2
	m := New(cfg)
	gate := make(chan struct{})
	m.intakeGate = gate
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer m.Stop(context.Background())
	base := "http://" + m.Addr()

	// A liftable classfile to submit.
	seedBytes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	post := func(body []byte) int {
		resp, err := http.Post(base+"/api/seeds", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post([]byte("\xca\xfe\xba\xbenope")); code != http.StatusBadRequest {
		t.Fatalf("malformed submission: got %d, want 400", code)
	}
	// With the intake worker gated, cap+1 submissions fill the queue
	// (the worker may hold one extra in hand) and the next must 429.
	overflowed := false
	for i := 0; i < cfg.QueueCap+2; i++ {
		if post(seedBytes[0]) == http.StatusTooManyRequests {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Fatalf("queue of cap %d never answered 429 while intake was held", cfg.QueueCap)
	}
	close(gate) // release the intake worker

	deadline := time.After(5 * time.Second)
	for m.submittedCount() == 0 {
		select {
		case <-deadline:
			t.Fatal("released queue never drained into the corpus")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if _, err := os.Stat(filepath.Join(m.corpusDir(), "sub00000.class")); err != nil {
		t.Fatalf("adopted seed not persisted: %v", err)
	}

	// Status reflects the adoption; discrepancy listing answers.
	resp, err := http.Get(base + "/api/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %v (%v)", err, resp)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// The API-triggered checkpoint writes shard snapshots once it lands
	// mid-epoch. Epochs cycle quickly at this scale, so a request can
	// catch every shard between epochs (nothing running to snapshot) —
	// retry until one lands.
	ckptDeadline := time.After(10 * time.Second)
	for {
		cresp, err := http.Post(base+"/api/checkpoint", "", nil)
		if err != nil || cresp.StatusCode != http.StatusOK {
			t.Fatalf("checkpoint: %v (%v)", err, cresp)
		}
		io.Copy(io.Discard, cresp.Body)
		cresp.Body.Close()
		if m.Session().Telemetry.Snapshot().Counter(MetricCheckpointsWritten) > 0 {
			break
		}
		select {
		case <-ckptDeadline:
			t.Fatal("API checkpoint never wrote a shard snapshot")
		case <-time.After(20 * time.Millisecond):
		}
	}

	// Graceful drain: intake 503s, the listener closes, restart lifts
	// the adopted seed.
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still answering after Stop")
	}
	// Drain checkpoints every mid-epoch shard; a shard caught between
	// epochs leaves nothing to restore, so pin restore against what the
	// drain actually left on disk.
	surviving := 0
	for i := 0; i < cfg.Shards; i++ {
		if _, err := os.Stat(m.checkpointPath(i)); err == nil {
			surviving++
		}
	}

	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	if got := m2.submittedCount(); got < 1 {
		t.Fatalf("restart lifted %d submitted seeds, want >= 1", got)
	}
	// Resume happens asynchronously in the shard loops; wait for the
	// restored counter rather than racing it.
	if surviving > 0 {
		restoreDeadline := time.After(10 * time.Second)
		for m2.Session().Telemetry.Snapshot().Counter(MetricCheckpointsRestored) == 0 {
			select {
			case <-restoreDeadline:
				t.Fatal("restart restored no checkpoints despite drain-time snapshots")
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

// TestSeedStrategyService drives a clustered daemon end to end: the
// intake API classifies a submitted seed (fingerprint, trace key,
// cluster), /api/status carries the strategy and the per-cluster seed
// table, and the data directory refuses a restart under a different
// strategy.
func TestSeedStrategyService(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Addr = "127.0.0.1:0"
	cfg.SeedStrategy = "clustered"
	cfg.Epochs = 0 // stay alive until stopped
	cfg.Iterations = 2000
	m := New(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer m.Stop(context.Background())
	base := "http://" + m.Addr()

	seedBytes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/seeds", "application/octet-stream", bytes.NewReader(seedBytes[0]))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submission: got %d (%s), want 202", resp.StatusCode, body)
	}
	var sub struct {
		Status      string `json:"status"`
		Fingerprint string `json:"fingerprint"`
		TraceKey    string `json:"trace_key"`
		Cluster     *int   `json:"cluster"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatalf("submission body %q: %v", body, err)
	}
	if sub.Fingerprint == "" || sub.TraceKey == "" || sub.Cluster == nil {
		t.Fatalf("submission response lacks classification: %s", body)
	}
	if *sub.Cluster < 0 {
		t.Fatalf("submitted seed assigned cluster %d", *sub.Cluster)
	}

	sresp, err := http.Get(base + "/api/status")
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("status: %v (%v)", err, sresp)
	}
	var st Status
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	sresp.Body.Close()
	if st.SeedStrategy != "clustered" {
		t.Fatalf("status strategy %q, want clustered", st.SeedStrategy)
	}
	if len(st.SeedClusters) == 0 {
		t.Fatal("status carries no seed-cluster table under the clustered strategy")
	}
	seedsTotal := 0
	for _, row := range st.SeedClusters {
		seedsTotal += row.Seeds
	}
	if seedsTotal < cfg.SeedCount {
		t.Fatalf("cluster table covers %d seeds, corpus has at least %d", seedsTotal, cfg.SeedCount)
	}
	if *sub.Cluster >= len(st.SeedClusters) {
		t.Fatalf("submission cluster %d outside table of %d", *sub.Cluster, len(st.SeedClusters))
	}

	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}
	flipped := cfg
	flipped.SeedStrategy = "yield"
	m2 := New(flipped)
	if err := m2.Start(); err == nil {
		m2.Stop(context.Background())
		t.Fatal("restart under a different seed strategy was accepted")
	}
}

// TestSubmittedSeedsEnterEpochs pins the corpus-pinning rule: an
// epoch started after an adoption includes the submitted seed, and the
// resulting campaigns remain valid folds.
func TestSubmittedSeedsEnterEpochs(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 2
	cfg.Iterations = 40

	// Pre-seed the data dir with one submission by writing through a
	// live manager's queue before the first epoch can finish.
	m, l := newManager(cfg)
	if err := m.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 42))
	if err != nil {
		t.Fatal(err)
	}
	m.queue <- files[0]
	m.Wait()
	if err := m.Stop(context.Background()); err != nil {
		t.Fatalf("stop: %v", err)
	}

	for key, fs := range l.summary() {
		if fs.Draws != cfg.Iterations {
			t.Fatalf("%s: %d draws, want %d", key, fs.Draws, cfg.Iterations)
		}
	}
	if subs := m.submittedCount(); subs != 1 {
		t.Fatalf("adopted %d seeds, want 1", subs)
	}

	// A restart on the same data dir lifts the submission, and an
	// epoch pinning one submitted seed builds its corpus as
	// base + submitted, in arrival order.
	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer m2.Stop(context.Background())
	var seeds []*jimple.Class = m2.corpusFor(1)
	if want := cfg.SeedCount + 1; len(seeds) != want {
		t.Fatalf("corpusFor(1) = %d seeds, want %d", len(seeds), want)
	}
}

// TestStateValidation: a data directory refuses a mismatched config.
func TestStateValidation(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Shards = 1
	cfg.Epochs = 1
	cfg.Iterations = 20
	runToCompletion(t, cfg)

	bad := cfg
	bad.Seed = 6
	m := New(bad)
	if err := m.Start(); err == nil {
		m.Stop(context.Background())
		t.Fatal("mismatched seed accepted against existing data dir")
	}

	bad = cfg
	bad.Iterations = 21
	m = New(bad)
	if err := m.Start(); err == nil {
		m.Stop(context.Background())
		t.Fatal("mismatched iteration budget accepted against existing data dir")
	}
}

// Two daemons must never share a data directory: each rewrites
// state.json from its own in-memory view and would silently clobber
// the other's corpus and frontiers. The flock guards it, and kernel
// release-on-exit means a crashed daemon never wedges the directory.
func TestDataDirLock(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Epochs = 0 // run until stopped
	m1 := New(cfg)
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	m2 := New(cfg)
	if err := m2.Start(); err == nil {
		m2.Stop(context.Background())
		m1.Stop(context.Background())
		t.Fatal("second daemon acquired an already-locked data dir")
	} else if !strings.Contains(err.Error(), "locked") {
		t.Fatalf("want lock error, got: %v", err)
	}
	if err := m1.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Stop released the lock; the directory is usable again.
	m3 := New(cfg)
	if err := m3.Start(); err != nil {
		t.Fatalf("restart after Stop: %v", err)
	}
	if err := m3.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMemoPersistsMethodVerdicts pins the daemon's memo.jsonl
// contract: a completed run persists method verdicts, each verdict in
// exactly one journal line, and a restart on the same data directory
// adopts every verdict and, having stored none, leaves the journal
// byte-identical.
func TestMemoPersistsMethodVerdicts(t *testing.T) {
	cfg := testConfig(t, 2)
	runToCompletion(t, cfg)

	memoPath := filepath.Join(cfg.DataDir, "memo.jsonl")
	first, err := os.ReadFile(memoPath)
	if err != nil {
		t.Fatalf("memo.jsonl missing after run: %v", err)
	}
	keys := map[[3]uint64]bool{}
	for _, line := range bytes.SplitAfter(first, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var batch []jvm.VerifyMemoExportEntry
		if err := json.Unmarshal(line, &batch); err != nil {
			t.Fatalf("memo.jsonl line %q: %v", line, err)
		}
		for _, e := range batch {
			k := [3]uint64{e.Sig, e.KeyLo, e.KeyHi}
			if keys[k] {
				t.Fatalf("verdict %x journaled twice", k)
			}
			keys[k] = true
		}
	}
	if len(keys) == 0 {
		t.Fatal("memo.jsonl carries no method verdicts")
	}

	// Restart on the exhausted directory: loadMemo adopts, no epochs
	// run, Stop appends nothing.
	m2 := New(cfg)
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	m2.Wait()
	if got := m2.Session().VerifyMemo.Len(); got != len(keys) {
		t.Fatalf("restart adopted %d method verdicts, persisted %d", got, len(keys))
	}
	if err := m2.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(memoPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("memo.jsonl not byte-identical across an idle restart")
	}
}
