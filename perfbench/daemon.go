package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/prng"
	"repro/internal/seedgen"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// The daemon runs at the cmd/classfuzzd defaults; the load is open
// loop: one client POSTs a generated seed every 1/submitRate seconds
// regardless of how the previous request fared, and every
// checkpointEvery-th submission also POSTs /api/checkpoint.
const (
	daemonShards     = 2
	daemonSeedCount  = 60
	daemonIterations = 400
	daemonQueueCap   = 64
	submitRate       = 20
	checkpointEvery  = 40
	// statusPoll is the watcher's /api/status period: the resolution of
	// every status-derived time.
	statusPoll = 5 * time.Millisecond
	// daemonTailPct: 20 submissions/s for 20 s leave 40 beyond p90 and
	// four beyond p99. The sample count depends only on the window, not
	// on the program's speed.
	daemonTailPct = 90
	// foldTimeout bounds the wait, after the last submission, for every
	// accepted seed to fold.
	foldTimeout      = 5 * time.Second
	daemonTempParent = ".bench_build/tmp"
)

// submissions generates n liftable seed classfiles from seed.
func submissions(seed int64, n int) ([][]byte, error) {
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(n, seed))
	if err != nil {
		return nil, err
	}
	for i, data := range files {
		f, err := classfile.Parse(data)
		if err == nil {
			_, err = jimple.Lift(f)
		}
		if err != nil {
			return nil, fmt.Errorf("generated submission %d is not liftable: %w", i, err)
		}
	}
	return files, nil
}

// daemonSetup is one started daemon and its data directory.
type daemonSetup struct {
	m   *service.Manager
	dir string
}

func startDaemon(seed int64) (*daemonSetup, error) {
	if err := os.MkdirAll(daemonTempParent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(daemonTempParent, "daemon-")
	if err != nil {
		return nil, err
	}
	m := service.New(service.Config{
		DataDir:      dir,
		Addr:         "127.0.0.1:0",
		Shards:       daemonShards,
		Workers:      1,
		Criterion:    coverage.STBR,
		SeedStrategy: "uniform",
		SeedCount:    daemonSeedCount,
		Seed:         seed,
		Iterations:   daemonIterations,
		QueueCap:     daemonQueueCap,
	})
	if err := m.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon start: %w", err)
	}
	return &daemonSetup{m: m, dir: dir}, nil
}

func (d *daemonSetup) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.m.Stop(ctx)
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// submission is one POST /api/seeds as the client saw it.
type submission struct {
	due, sent, done time.Time
	code            int
	err             error
}

// frontier is a monotone step function of time: after each step's time
// the first value seeds (by adoption order) have reached a state.
type frontier struct{ steps []step }

type step struct {
	t time.Time
	v int
}

func (f *frontier) raise(t time.Time, v int) {
	if n := len(f.steps); n == 0 || v > f.steps[n-1].v {
		f.steps = append(f.steps, step{t, v})
	}
}

// reached returns when the frontier first exceeded index j.
func (f *frontier) reached(j int) (time.Time, bool) {
	i := sort.Search(len(f.steps), func(i int) bool { return f.steps[i].v > j })
	if i == len(f.steps) {
		return time.Time{}, false
	}
	return f.steps[i].t, true
}

func (f *frontier) value() int {
	if len(f.steps) == 0 {
		return 0
	}
	return f.steps[len(f.steps)-1].v
}

// shardTrack is the watcher's view of one shard's current epoch. used
// is the epoch's submitted_used when the watcher saw it running, else a
// lower bound: the corpus size at the last poll before it could start.
type shardTrack struct {
	epoch   int
	used    int
	seen    bool
	started time.Time
}

// watcher derives the daemon's per-seed progress from /api/status
// transitions: adoption (submitted count), epoch start (a running epoch's
// submitted_used) and fold (a shard's epoch advancing past it).
type watcher struct {
	mu                       sync.Mutex
	adopted, started, folded frontier
	shards                   []shardTrack
	epochDurations           []time.Duration
	failedShards             map[int]bool
	merges                   []step
	prevT                    time.Time
	prevSubmitted            int
	pollErrors               int
}

func (w *watcher) observe(t time.Time, st *service.Status) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.merges = append(w.merges, step{t, st.Merges})
	if w.shards == nil {
		w.shards = make([]shardTrack, len(st.Shards))
		for i, sh := range st.Shards {
			w.shards[i] = shardTrack{epoch: sh.Epoch, started: t}
			if sh.State == "running" {
				w.shards[i].used, w.shards[i].seen = sh.SubmittedUsed, true
			}
		}
		w.prevT, w.prevSubmitted = t, st.Submitted
	}
	w.adopted.raise(t, st.Submitted)
	for i, sh := range st.Shards {
		tr := &w.shards[i]
		if sh.State == "failed" {
			w.failedShards[i] = true
		}
		if sh.Epoch > tr.epoch {
			// tr.epoch folded; any epochs between it and sh.Epoch started
			// and folded between two polls, after the previous one.
			w.folded.raise(t, tr.used)
			if tr.seen {
				w.epochDurations = append(w.epochDurations, t.Sub(tr.started))
			}
			if sh.Epoch > tr.epoch+1 {
				w.started.raise(w.prevT, w.prevSubmitted)
				w.folded.raise(t, w.prevSubmitted)
			}
			*tr = shardTrack{epoch: sh.Epoch, used: w.prevSubmitted, started: w.prevT}
		}
		if sh.State == "running" && sh.Epoch == tr.epoch && !tr.seen {
			tr.used, tr.seen, tr.started = sh.SubmittedUsed, true, t
			w.started.raise(t, sh.SubmittedUsed)
		}
	}
	w.prevT, w.prevSubmitted = t, st.Submitted
}

func (w *watcher) foldedCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.folded.value()
}

// mergesBetween returns the folds counted between the first poll at or
// after a and the last poll at or before b, and the time between them.
func (w *watcher) mergesBetween(a, b time.Time) (int, time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first, last *step
	for i := range w.merges {
		s := &w.merges[i]
		if first == nil && !s.t.Before(a) {
			first = s
		}
		if !s.t.After(b) {
			last = s
		}
	}
	if first == nil || last == nil || !last.t.After(first.t) {
		return 0, 0
	}
	return last.v - first.v, last.t.Sub(first.t)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func newClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr
}

// daemonLoad is one daemon lifetime's share of the measurement window.
// The daemon rewrites state.json (every discrepancy so far) on each
// adoption and fold and memo.json (every memoised outcome) on each
// checkpoint, so its cost per operation grows with its lifetime; past a
// few seconds at 20 submissions/s the backlog grows without bound. The
// workload therefore runs the window as back-to-back lifetimes of
// daemonLoad each, on fresh data directories: every lifetime pays that
// growth from zero, and a change to it shows on the latency metrics.
const daemonLoad = 2 * time.Second

// daemonLifetime is what one daemon lifetime measured.
type daemonLifetime struct {
	load, cpu                        time.Duration
	merges                           int
	mergeSpan                        time.Duration
	delta, end                       telemetry.Snapshot
	submitMs, lateMs                 []float64
	foldMs, adoptMs, waitMs, epochMs []float64
	checkpointMs, epochStatusMs      []float64
}

// runDaemonLifetime generates the lifetime's submissions, starts a daemon
// on a fresh data directory (together its set-up), drives the open-loop
// load for the given duration, waits for every accepted seed to fold, checks
// the outputs and stops the daemon.
func runDaemonLifetime(seed int64, life int, load time.Duration, rep *report) (*daemonLifetime, time.Duration, error) {
	// The previous lifetime's garbage and background work (connection
	// teardown, file writeback) settle before the timed set-up: counted
	// in it, they spread its ~3 ms from 1.8 to 4.9 ms on a shared 2-core VM.
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
	c0 := cpuTime()
	subs, err := submissions(prng.Mix(seed, streamSubmissions, uint64(life)), int(load.Seconds()*submitRate)+1)
	if err != nil {
		return nil, 0, err
	}
	d, err := startDaemon(prng.Mix(seed, streamDaemon, uint64(life)))
	started := cpuTime() - c0
	if err != nil {
		return nil, 0, err
	}
	base := "http://" + d.m.Addr()
	subClient, subTr := newClient()
	watchClient, watchTr := newClient()
	defer subTr.CloseIdleConnections()
	defer watchTr.CloseIdleConnections()

	w := &watcher{failedShards: map[int]bool{}}
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(statusPoll)
		defer tick.Stop()
		for {
			var st service.Status
			if err := getJSON(watchClient, base+"/api/status", &st); err != nil {
				w.mu.Lock()
				w.pollErrors++
				w.mu.Unlock()
			} else {
				w.observe(time.Now(), &st)
			}
			select {
			case <-stopWatch:
				return
			case <-tick.C:
			}
		}
	}()

	res := &daemonLifetime{}
	var metricsStart telemetry.Snapshot
	if err := getJSON(subClient, base+"/metrics.json", &metricsStart); err != nil {
		rep.fail(1, "reading /metrics.json: %v", err)
	}
	t0, loadCPU := time.Now(), cpuTime()
	end := t0.Add(load)
	var sent []submission
	for k := 0; k < len(subs); k++ {
		due := t0.Add(time.Duration(k) * time.Second / submitRate)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		s := submission{due: due, sent: time.Now()}
		s.code, s.err = post(subClient, base+"/api/seeds", subs[k])
		s.done = time.Now()
		sent = append(sent, s)
		if k%checkpointEvery == checkpointEvery-1 {
			c0 := time.Now()
			code, err := post(subClient, base+"/api/checkpoint", nil)
			res.checkpointMs = append(res.checkpointMs, ms(time.Since(c0)))
			if err != nil || code != http.StatusOK {
				rep.fail(1, "POST /api/checkpoint: code %d, %v", code, err)
			}
		}
	}
	windowEnd := time.Now()
	res.load, res.cpu = windowEnd.Sub(t0), cpuTime()-loadCPU
	if err := getJSON(subClient, base+"/metrics.json", &res.end); err != nil {
		rep.fail(1, "reading /metrics.json: %v", err)
	}
	res.delta = res.end.Diff(metricsStart)

	// Every 202'd seed is the next adopted corpus entry (one client, one
	// connection, one FIFO intake queue); wait until each has folded.
	accepted := 0
	rep.attempted += int64(len(sent))
	for k, s := range sent {
		switch {
		case s.err != nil:
			rep.fail(1, "lifetime %d submission %d: %v", life, k, s.err)
		case s.code != http.StatusAccepted:
			rep.fail(1, "lifetime %d submission %d answered %d", life, k, s.code)
		default:
			accepted++
		}
	}
	for deadline := time.Now().Add(foldTimeout); w.foldedCount() < accepted && time.Now().Before(deadline); {
		time.Sleep(statusPoll)
	}
	close(stopWatch)
	<-watchDone
	if w.pollErrors > 0 {
		rep.fail(1, "lifetime %d: %d failed /api/status polls", life, w.pollErrors)
	}

	subTr.CloseIdleConnections()
	watchTr.CloseIdleConnections()
	if err := d.stop(); err != nil {
		rep.fail(1, "lifetime %d Manager.Stop: %v", life, err)
	}
	// The log is read after the drain: /api/discrepancies reads its next
	// id and its entries under separate locks, so while shards still fold
	// the two can disagree.
	if err := checkDiscrepancies(d.m.Discrepancies(0)); err != nil {
		rep.fail(1, "lifetime %d discrepancy log: %v", life, err)
	}
	for i := range w.failedShards {
		rep.fail(1, "lifetime %d shard %d failed", life, i)
	}

	// Per-seed timeline.
	j := 0
	for _, s := range sent {
		res.submitMs = append(res.submitMs, ms(s.done.Sub(s.due)))
		res.lateMs = append(res.lateMs, ms(s.sent.Sub(s.due)))
		if s.err != nil || s.code != http.StatusAccepted {
			continue
		}
		adopt, ok1 := w.adopted.reached(j)
		start, ok2 := w.started.reached(j)
		fold, ok3 := w.folded.reached(j)
		if !ok1 || !ok2 || !ok3 {
			rep.fail(1, "lifetime %d seed %d (due at +%v) not folded before the lifetime ended", life, j, s.due.Sub(t0))
		} else {
			res.foldMs = append(res.foldMs, ms(fold.Sub(s.due)))
			res.adoptMs = append(res.adoptMs, ms(adopt.Sub(s.done)))
			res.waitMs = append(res.waitMs, ms(start.Sub(adopt)))
			res.epochMs = append(res.epochMs, ms(fold.Sub(start)))
		}
		j++
	}
	res.merges, res.mergeSpan = w.mergesBetween(t0, windowEnd)
	res.epochStatusMs = durationsMs(w.epochDurations)
	return res, started, nil
}

func runDaemonWorkload(opts options) (*report, error) {
	rep := &report{}
	window := time.Duration(opts.seconds * float64(time.Second))
	var lifetimes []*daemonLifetime
	var starts []time.Duration
	for i, left := 0, window; left > 0; i++ {
		load := min(left, daemonLoad)
		s, started, err := runDaemonLifetime(opts.seed, i, load, rep)
		if err != nil {
			return nil, err
		}
		lifetimes = append(lifetimes, s)
		starts = append(starts, started)
		left -= load
	}

	var load, cpu, mergeSpan time.Duration
	var merges int
	var accepts int64
	var submitMs, lateMs, foldMs, adoptMs, waitMs, epochMs, checkpointMs, epochStatusMs []float64
	var stageNs int64
	var skipped, checked, memoHit, memoMiss, classes, parses, vmRuns, dmHits, dmProbes, hwm int64
	var prefilter telemetry.HistogramSnapshot
	for _, s := range lifetimes {
		load += s.load
		cpu += s.cpu
		merges += s.merges
		mergeSpan += s.mergeSpan
		accepts += s.delta.Counter("campaign.accepts")
		submitMs = append(submitMs, s.submitMs...)
		lateMs = append(lateMs, s.lateMs...)
		foldMs = append(foldMs, s.foldMs...)
		adoptMs = append(adoptMs, s.adoptMs...)
		waitMs = append(waitMs, s.waitMs...)
		epochMs = append(epochMs, s.epochMs...)
		checkpointMs = append(checkpointMs, s.checkpointMs...)
		epochStatusMs = append(epochStatusMs, s.epochStatusMs...)
		for _, st := range []string{"draw", "mutate", "prefilter", "exec", "commit"} {
			stageNs += s.delta.Hist("campaign.stage." + st + "_ns").Sum
		}
		e := s.end
		skipped += e.Counter("campaign.prefilter.skipped")
		checked += e.Counter("campaign.prefilter.checked")
		h := e.Hist("campaign.stage.prefilter_ns")
		prefilter.Count += h.Count
		prefilter.Sum += h.Sum
		memoHit += e.Counter("jvm.verify.method_memo.hit")
		memoMiss += e.Counter("jvm.verify.method_memo.miss")
		classes += e.Counter("difftest.classes")
		parses += e.Counter("difftest.parses")
		vmRuns += e.Counter("difftest.vm_runs")
		dmHits += e.Counter("difftest.memo.hits")
		dmProbes += e.Counter("difftest.memo.probes")
		hwm = max(hwm, e.Gauge("service.queue.hwm"))
	}
	if len(foldMs) == 0 {
		return nil, fmt.Errorf("no seed folded")
	}

	if !opts.trace {
		// Folds are counted between status polls inside the load windows;
		// scale the fold rate by the windows' CPU share.
		rep.set("setup_s", medianDuration(starts).Seconds(), "s")
		rep.set("ops_per_cpu_s", float64(merges)/mergeSpan.Seconds()*load.Seconds()/cpu.Seconds(), "1/s")
		rep.set("op_p50_ms", percentile(foldMs, 50), "ms")
		rep.note("cpu_us_per_accepted_test", us(cpu)/float64(accepts), "us")
		rep.note("setup_total_s", total(starts).Seconds(), "s")
		rep.note("epochs_per_s", float64(merges)/mergeSpan.Seconds(), "1/s")
		rep.note("us_per_accepted_test", us(load)/float64(accepts), "us")
		rep.note("submit_p50_ms", percentile(submitMs, 50), "ms")
		rep.note("seed_to_fold_p50_ms", percentile(foldMs, 50), "ms")
		rep.note("seed_to_fold_tail_ms", percentile(foldMs, daemonTailPct), "ms")
		rep.note("seed_to_fold.samples", float64(len(foldMs)), "count")
		rep.note("seed_to_fold.tail_pct", daemonTailPct, "pct")
		rep.note("daemon_lifetimes", float64(len(lifetimes)), "count")
		return rep, nil
	}

	rep.set("op_tail_ms", percentile(foldMs, daemonTailPct), "ms")
	rep.set("campaign.prefilter.skip_ratio", ratio(float64(skipped), float64(checked)), "ratio")
	rep.set("campaign.stage.prefilter_us", prefilter.Mean()/1e3, "us")
	rep.set("jvm.verify.method_memo.hit_ratio", ratio(float64(memoHit), float64(memoHit+memoMiss)), "ratio")
	rep.set("difftest.parses_per_class", ratio(float64(parses), float64(classes)), "count")
	rep.set("difftest.vm_runs_per_class", ratio(float64(vmRuns), float64(classes)), "count")
	rep.set("difftest.memo_hit_ratio", ratio(float64(dmHits), float64(dmProbes)), "ratio")
	rep.set("service.adopt_ms", percentile(adoptMs, 50), "ms")
	rep.set("service.epoch_wait_ms", percentile(waitMs, 50), "ms")
	rep.set("service.epoch_ms", percentile(epochMs, 50), "ms")
	rep.set("service.checkpoint_ms", percentile(checkpointMs, 50), "ms")
	rep.set("service.queue_hwm", float64(hwm), "count")
	rep.set("service.generator_late_ms", percentile(lateMs, 100), "ms")
	rep.set("service.submit_p50_ms", percentile(submitMs, 50), "ms")
	rep.set("service.submit_tail_ms", percentile(submitMs, daemonTailPct), "ms")
	// Shard time not covered by the engine's own stage spans: epoch
	// set-up (seed runs), fold (five-VM difftest of the suite), state and
	// memo persistence, lock waits.
	shardTime := float64(daemonShards) * float64(load)
	rep.set("service.unattributed_pct", 100*(shardTime-float64(stageNs))/shardTime, "%")
	// The daemon's layer split comes from the same status API the
	// untraced run already polls: the traced run adds no instrumentation.
	rep.set("trace.overhead_pct", 0, "%")
	rep.note("service.epoch_status_ms", percentile(epochStatusMs, 50), "ms")
	fillZeroLayers(rep)
	return rep, nil
}

// checkDiscrepancies checks the daemon's discrepancy log: IDs are
// contiguous from 0, and every vector is a five-VM vector that really
// disagrees (codes not all equal, or all invoked with diverging output).
func checkDiscrepancies(ds []service.Discrepancy) error {
	for i, d := range ds {
		if d.ID != i {
			return fmt.Errorf("entry %d has id %d", i, d.ID)
		}
		if len(d.Vector) != 5 {
			return fmt.Errorf("entry %d: vector %q is not a five-VM vector", i, d.Vector)
		}
		if strings.Count(d.Vector, d.Vector[:1]) == len(d.Vector) && d.Vector[0] != '0' {
			return fmt.Errorf("entry %d: vector %q is not discrepant", i, d.Vector)
		}
	}
	return nil
}
