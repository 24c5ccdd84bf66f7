package campaign

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/telemetry"
)

// poolEntry is one seed-pool member: an original seed (iter == -1) or
// an accepted mutant tagged with the iteration that produced it.
type poolEntry struct {
	class *jimple.Class
	iter  int
}

// task carries one iteration through the pipeline and is the dispatch
// unit handed to a worker. The draw stage fills the input fields on
// the coordinator; a worker fills the output fields and closes done;
// the commit stage reads them back on the coordinator (the close of
// done orders the accesses). Ownership alternates strictly —
// coordinator while drawing, one worker between the channel send and
// close(done), coordinator again at commit — so no field needs a lock.
// Tasks are recycled through a coordinator-owned free list.
type task struct {
	iter   int
	parent *jimple.Class
	rec    DrawRecord

	// outputs of the mutate/execute stages; data is nil unless the
	// mutator applied and the mutant lowered and serialised
	mutant *jimple.Class
	data   []byte
	trace  *coverage.Trace

	// dataRetained is set at commit when data escaped into the result
	// (accepted bytes, or KeepClasses/KeepGenBytes); only an unretained
	// buffer is kept as buf for the serialiser to reuse.
	dataRetained bool
	buf          []byte

	done chan struct{}
}

// engineTel holds the engine's interned telemetry handles, bound
// against Config.Telemetry (all nil, hence no-ops, without one). The
// counters move only on the sequential draw/commit path, so their
// values are deterministic at any worker count. The stage histograms
// are bound only when timing is asked for: a span fires time.Now on
// the worker hot path, and bytefuzz has no stages to time.
type engineTel struct {
	iterations *telemetry.Counter // campaign.iterations
	generated  *telemetry.Counter // campaign.generated
	failures   *telemetry.Counter // campaign.mutator_failures
	executions *telemetry.Counter // campaign.executions
	accepts    *telemetry.Counter // campaign.accepts
	committed  *telemetry.Counter // campaign.committed
	poolSize   *telemetry.Gauge   // campaign.pool_size

	draw   *telemetry.Histogram // campaign.stage.draw_ns
	mutate *telemetry.Histogram // campaign.stage.mutate_ns
	exec   *telemetry.Histogram // campaign.stage.exec_ns
	commit *telemetry.Histogram // campaign.stage.commit_ns
}

func newEngineTel(reg *telemetry.Registry, timing bool) engineTel {
	t := engineTel{
		iterations: reg.Counter("campaign.iterations"),
		generated:  reg.Counter("campaign.generated"),
		failures:   reg.Counter("campaign.mutator_failures"),
		executions: reg.Counter("campaign.executions"),
		accepts:    reg.Counter("campaign.accepts"),
		committed:  reg.Counter("campaign.committed"),
		poolSize:   reg.Gauge("campaign.pool_size"),
	}
	if timing {
		t.draw = reg.Histogram("campaign.stage.draw_ns")
		t.mutate = reg.Histogram("campaign.stage.mutate_ns")
		t.exec = reg.Histogram("campaign.stage.exec_ns")
		t.commit = reg.Histogram("campaign.stage.commit_ns")
	}
	return t
}

type engine struct {
	cfg  Config
	obs  obs
	muts []*mutation.Mutator
	// src is the seed-selection policy; seeds caches its corpus (the
	// pool's prefix, the digest's input, every lineage's bottom).
	src   SeedSource
	seeds []*jimple.Class

	selector         mcmc.Selector
	coverageDirected bool
	suite            *coverage.Suite
	greedyUnion      *coverage.Trace
	genStats         *coverage.Suite
	pool             []poolEntry
	// vmemo is the campaign's method-verification memo, shared by every
	// worker VM. Nil when Config.DisableVerifyMemo is set.
	vmemo *jvm.VerifyMemo

	tel    engineTel
	timing bool // external registry attached: stage + VM timing on

	lookahead int
	res       *Result

	// drawR is the coordinator's reused draw-stream generator: reseeded
	// per iteration (prng.Reseed), byte-for-byte equivalent to a fresh
	// drawRNG but without reallocating the ~5KB rand source each draw.
	drawR *rand.Rand
	// freeTasks recycles committed tasks (and their byte buffers) on
	// the coordinator.
	freeTasks []*task

	// Checkpoint/resume state. drawn and committed advance only on the
	// coordinator; mergedCov is the word-OR of the seed traces and every
	// accepted trace (Result.Coverage); genLog mirrors commits of
	// generated iterations for Snapshot. ctrl, when attached, is
	// serviced at the top of each coordinator iteration. On a resumed
	// engine, startIter is the first iteration this process commits and
	// resumeDraws holds the in-flight window to re-process.
	ctrl        *Control
	startIter   int
	resumeDraws []DrawRecord
	drawn       int
	committed   int
	stopped     bool
	stopSnap    *Snapshot
	genLog      []GenEntry
	mergedCov   *coverage.Trace
	seedDigest  uint64
	resumed     bool
}

func newEngine(cfg Config) *engine {
	e := &engine{
		cfg:              cfg,
		obs:              obs{cfg.Observer},
		muts:             mutation.Registry(),
		src:              cfg.Source,
		seeds:            cfg.Source.Corpus(),
		coverageDirected: cfg.Algorithm != Randfuzz,
		lookahead:        cfg.lookahead(),
		timing:           cfg.Telemetry != nil,
		ctrl:             cfg.Control,
	}

	e.tel = newEngineTel(cfg.Telemetry, e.timing)

	// Mutator selector: classfuzz uses the MCMC chain; everything else
	// selects uniformly. The chain's initial state comes from the
	// campaign's setup stream (Algorithm 1 line 3).
	if cfg.Algorithm == Classfuzz {
		p := cfg.P
		if p == 0 {
			p = mcmc.DefaultP(len(e.muts))
		}
		sel := mcmc.NewSampler(len(e.muts), p, initRNG(cfg.Rand))
		if e.timing {
			// Live per-mutator gauges (same names finalize Sets for the
			// non-MCMC selectors), maintained as the chain draws and
			// records on the sequential coordinator.
			selG := make([]*telemetry.Gauge, len(e.muts))
			succG := make([]*telemetry.Gauge, len(e.muts))
			for i, m := range e.muts {
				selG[i] = cfg.Telemetry.Gauge("campaign.mutator." + m.Name + ".selected")
				succG[i] = cfg.Telemetry.Gauge("campaign.mutator." + m.Name + ".success")
			}
			sel.Instrument(selG, succG)
		}
		e.selector = sel
	} else {
		e.selector = mcmc.NewUniformSampler(len(e.muts))
	}

	// Acceptance state.
	e.suite = coverage.NewSuite(cfg.Criterion)
	if cfg.Algorithm == Uniquefuzz {
		e.suite = coverage.NewSuite(coverage.STBR)
	}
	e.greedyUnion = coverage.NewTrace()
	e.genStats = coverage.NewSuite(coverage.STBR) // counts unique stats over Gen

	// The verify memo carries per-method verdicts across the mutant
	// stream: a mutant's untouched methods (the generated main, <init>,
	// unmutated seed methods) reuse lineage verdicts instead of
	// re-running the dataflow fixpoint on every generation. Injected
	// memos (Config.VerifyMemo) stay warm across campaigns.
	if !cfg.DisableVerifyMemo {
		e.vmemo = cfg.VerifyMemo
		if e.vmemo == nil {
			e.vmemo = jvm.NewVerifyMemo()
		}
		if cfg.Telemetry != nil {
			e.vmemo.UseTelemetry(cfg.Telemetry)
		}
	}
	return e
}

// initSeedState builds the seed pool and folds the seed traces into
// the acceptance state (Algorithm 1 line 1 initialises TestClasses
// with the seeds, so seed traces participate in uniqueness checks).
// Shared verbatim by fresh runs and snapshot restores.
func (e *engine) initSeedState() {
	cfg := &e.cfg
	e.pool = make([]poolEntry, 0, len(e.seeds))
	for _, s := range e.seeds {
		e.pool = append(e.pool, poolEntry{class: s, iter: -1})
	}
	if !e.coverageDirected {
		return
	}
	e.mergedCov = coverage.NewTrace()
	// Seed runs warm the verify memo before any worker starts: seed
	// methods survive into most of the lineage unmutated.
	ws := e.newWorkerScratch()
	for _, s := range e.seeds {
		tr, err := ws.runOnRef(s)
		if err != nil {
			continue // unlowerable seed: skip its trace
		}
		e.mergedCov = coverage.Merge(e.mergedCov, tr)
		switch cfg.Algorithm {
		case Greedyfuzz:
			e.greedyUnion = coverage.Merge(e.greedyUnion, tr)
		default:
			if e.suite.Unique(tr) {
				e.suite.Add(tr)
			}
		}
	}
}

func (e *engine) run() (*Result, error) {
	cfg := &e.cfg
	start := time.Now() //detlint:ok Result.Elapsed is reporting-only

	if !e.resumed {
		e.initSeedState()
		e.res = &Result{
			Algorithm:  cfg.Algorithm,
			Criterion:  cfg.Criterion,
			Iterations: cfg.Iterations,
			Draws:      make([]DrawRecord, 0, cfg.Iterations),
			Workers:    cfg.workers(),
			Lookahead:  e.lookahead,
		}
	}
	e.tel.poolSize.Set(int64(len(e.pool)))

	// The pipeline. The coordinator (this goroutine) performs draws and
	// commits in a fixed interleaving — draw(0..D-1), then
	// commit(i−D); draw(i) for each subsequent i — so every draw
	// observes exactly the commits of iterations ≤ i−D regardless of
	// how the worker pool schedules the stages in between. Each drawn
	// task goes to one worker, which runs mutate/execute against its
	// long-lived scratch and closes the task's done channel. At most D
	// tasks are in flight, hence the ring and the channel bound.
	//
	// A resumed engine enters the same loop at base = startIter (the
	// snapshot's commit frontier): the in-flight window re-enters the
	// pipeline from its recorded draw records (redraw — the selector
	// chain already consumed those proposals during restore), and fresh
	// draws take over beyond it. Since draw(i) only observes commits
	// ≤ i−D, which the restore fully reconstructed, the continuation is
	// bit-identical to the uninterrupted run.
	D := e.lookahead
	N := cfg.Iterations
	base := e.startIter
	tasks := make(chan *task, D)
	ring := make([]*task, D)

	var wg sync.WaitGroup
	for w := 0; w < cfg.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker arenas: the reference VM and recorder are
			// stateless across runs; the lowering context and mutation
			// RNG are reset per task. One set serves the worker's whole
			// stream of tasks without sharing anything with its peers.
			ws := e.newWorkerScratch()
			for t := range tasks {
				e.process(t, ws)
				close(t.done)
			}
		}()
	}

	for i := base; i < N; i++ {
		if e.serviceControl(i) {
			e.stopped = true
			break
		}
		if i-D >= base {
			e.commitTask(ring[(i-D)%D])
		}
		t := e.getTask()
		if j := i - base; j < len(e.resumeDraws) {
			e.redraw(e.resumeDraws[j], t)
		} else {
			e.draw(i, t)
		}
		ring[i%D] = t
		tasks <- t
	}
	// Drain the in-flight window (all of it, after a stop).
	close(tasks)
	end := e.drawn
	tail := end - D
	if tail < base {
		tail = base
	}
	for i := tail; i < end; i++ {
		e.commitTask(ring[i%D])
	}
	wg.Wait()

	e.finalize()
	e.res.Elapsed = time.Since(start) //detlint:ok Result.Elapsed is reporting-only
	if e.ctrl != nil {
		fin := e.stopSnap
		if fin == nil {
			fin = e.snapshot()
		}
		e.ctrl.finish(fin)
	}
	return e.res, nil
}

// getTask pops a recycled task or allocates a fresh one, with a new
// done channel either way. Coordinator-goroutine only.
func (e *engine) getTask() *task {
	if n := len(e.freeTasks); n > 0 {
		t := e.freeTasks[n-1]
		e.freeTasks = e.freeTasks[:n-1]
		t.done = make(chan struct{})
		return t
	}
	return &task{done: make(chan struct{})}
}

// commitTask waits for the task's worker to finish, commits it, and
// returns it to the free list, keeping its class-byte buffer when the
// bytes did not escape into the result and dropping every object
// reference so a parked task pins nothing. Coordinator-goroutine only.
func (e *engine) commitTask(t *task) {
	<-t.done
	e.commit(t)
	var buf []byte
	if t.data != nil && !t.dataRetained {
		buf = t.data[:0]
	}
	*t = task{buf: buf}
	e.freeTasks = append(e.freeTasks, t)
}

// draw runs the sequential draw stage for iteration i: pick a seed from
// the pool, propose a mutator, log the DrawRecord. State read here
// (pool, selector chain) was last written by commit(i−D).
func (e *engine) draw(i int, t *task) {
	sp := telemetry.StartSpan(e.tel.draw)
	if e.drawR == nil {
		e.drawR = drawRNG(e.cfg.Rand, i)
	} else {
		prng.Reseed(e.drawR, e.cfg.Rand, drawStream, uint64(i))
	}
	rng := e.drawR
	idx := e.src.Pick(rng, len(e.pool))
	pe := e.pool[idx]
	muID := e.selector.Next(rng)
	rec := DrawRecord{Iter: i, PoolIndex: idx, Parent: pe.iter, MutatorID: muID}
	e.res.Draws = append(e.res.Draws, rec)
	e.drawn++
	e.tel.iterations.Inc()
	if e.obs.o != nil {
		e.obs.emit(IterationStarted{Iter: i, PoolIndex: idx, MutatorID: muID})
	}
	sp.End()
	t.iter, t.parent, t.rec = i, pe.class, rec
}

// redraw re-enters a recorded in-flight iteration into the pipeline
// after a resume. Unlike draw it consults neither the RNG nor the
// selector — the restore already replayed this iteration's proposal
// into the chain — it only re-materialises the task from the record.
func (e *engine) redraw(rec DrawRecord, t *task) {
	fresh := DrawRecord{Iter: rec.Iter, PoolIndex: rec.PoolIndex, Parent: rec.Parent, MutatorID: rec.MutatorID}
	e.res.Draws = append(e.res.Draws, fresh)
	e.drawn++
	e.tel.iterations.Inc()
	if e.obs.o != nil {
		e.obs.emit(IterationStarted{Iter: rec.Iter, PoolIndex: rec.PoolIndex, MutatorID: rec.MutatorID})
	}
	t.iter, t.parent, t.rec = rec.Iter, e.pool[rec.PoolIndex].class, fresh
}

// workerScratch is one worker's long-lived arenas: the instrumented
// reference VM and its recorder, the reusable lowering context (which
// owns the lowered file), the per-task mutation RNG (reseeded, never
// reallocated) and the seed runs' serialisation buffer. All of it is
// confined to the owning goroutine: a worker, or the coordinator while
// it runs the seeds.
type workerScratch struct {
	vm   *jvm.VM
	rec  *coverage.Recorder
	rng  *rand.Rand
	lctx *jimple.LowerCtx
	buf  []byte
}

// newWorkerScratch builds one worker's arenas around a reference VM
// wired to the campaign's recorder, verify memo and telemetry.
func (e *engine) newWorkerScratch() *workerScratch {
	ws := &workerScratch{
		vm:   jvm.New(e.cfg.RefSpec),
		rec:  coverage.NewRecorder(jvm.ProbeRegistry()),
		lctx: jimple.NewLowerCtx(),
	}
	ws.vm.SetRecorder(ws.rec)
	ws.vm.SetVerifyMemo(e.vmemo)
	if e.timing {
		// Per-phase reference-VM histograms (jvm.<spec>.phase.*_ns)
		// land in the shared registry next to the stage spans;
		// observe-only like the rest.
		ws.vm.SetTelemetry(e.cfg.Telemetry)
	}
	return ws
}

// mutateRNG returns iteration iter's mutation stream on the worker's
// reused generator — the same stream DeriveRNG builds fresh.
func (ws *workerScratch) mutateRNG(campaignSeed int64, iter int) *rand.Rand {
	if ws.rng == nil {
		ws.rng = DeriveRNG(campaignSeed, iter)
	} else {
		prng.Reseed(ws.rng, campaignSeed, mutateStream, uint64(iter))
	}
	return ws.rng
}

// process runs the mutate/execute stages for one task on a worker. It
// touches no engine state: everything flows through the task and the
// worker's scratch.
func (e *engine) process(t *task, ws *workerScratch) {
	spMutate := telemetry.StartSpan(e.tel.mutate)
	rng := ws.mutateRNG(e.cfg.Rand, t.iter)
	mutant := t.parent.Clone()
	if !e.muts[t.rec.MutatorID].Apply(mutant, rng) {
		// Soot-style failure: no classfile generated this iteration.
		spMutate.End()
		return
	}
	finishMutant(mutant, t.iter)
	t.mutant = mutant

	// Lower into the worker's recycled file and serialise into the
	// task's recycled buffer (bytes identical to a fresh lower() — only
	// where the storage lives differs). The writer decides Generated and
	// interns attribute names into f.Pool before the VM runs f itself.
	// f is dead once this returns (the next Lower overwrites it); only
	// data, which the task owns, and the fresh trace outlive it.
	f, err := ws.lctx.Lower(mutant)
	if err != nil {
		spMutate.End()
		return
	}
	buf := t.buf
	t.buf = nil
	if buf == nil {
		buf = make([]byte, 0, 1024)
	}
	data, err := f.AppendBytes(buf)
	spMutate.End()
	if err != nil {
		return
	}
	t.data = data

	if !e.coverageDirected {
		return // randfuzz never runs the reference VM
	}
	spExec := telemetry.StartSpan(e.tel.exec)
	ws.rec.Reset()
	ws.vm.RunParsed(f)
	t.trace = ws.rec.Trace()
	spExec.End()
}

// commit runs the sequential commit stage for one task, in iteration
// order: the acceptance decision against the suite, pool recycling and
// selector feedback.
func (e *engine) commit(t *task) {
	sp := telemetry.StartSpan(e.tel.commit)
	defer sp.End()
	defer e.tel.committed.Inc()
	e.committed++

	generated := t.data != nil
	if e.obs.o != nil {
		e.obs.emit(Mutated{Iter: t.iter, MutatorID: t.rec.MutatorID, Applied: generated})
	}
	if !generated {
		e.tel.failures.Inc()
		e.src.Observe(t.rec.PoolIndex, false, false)
		e.selector.Record(t.rec.MutatorID, false)
		if e.obs.o != nil {
			e.obs.emit(SelectorUpdated{Iter: t.iter, MutatorID: t.rec.MutatorID, Success: false})
		}
		return
	}
	e.res.Draws[t.iter].Generated = true
	e.tel.generated.Inc()
	if e.coverageDirected {
		e.tel.executions.Inc()
		if e.obs.o != nil {
			e.obs.emit(Executed{Iter: t.iter})
		}
	}

	gc := &GenClass{Iter: t.iter, Name: t.mutant.Name, MutatorID: t.rec.MutatorID}
	if e.coverageDirected {
		gc.Stats = t.trace.Stats()
		e.genStats.Add(t.trace)
	}
	if e.cfg.KeepClasses {
		gc.Class = t.mutant
	}
	e.res.Gen = append(e.res.Gen, gc)

	// Acceptance decision.
	accepted := false
	switch e.cfg.Algorithm {
	case Randfuzz:
		accepted = true // every generated classfile is a test
	case Greedyfuzz:
		merged := coverage.Merge(e.greedyUnion, t.trace)
		if merged.Stats() != e.greedyUnion.Stats() {
			e.greedyUnion = merged
			accepted = true
		}
	default: // classfuzz, uniquefuzz
		if e.suite.Unique(t.trace) {
			e.suite.Add(t.trace)
			accepted = true
		}
	}
	if accepted {
		gc.Accepted = true
		gc.Data = t.data
		t.dataRetained = true
		e.res.Test = append(e.res.Test, gc)
		if e.coverageDirected {
			e.mergedCov = coverage.Merge(e.mergedCov, t.trace)
		}
		if !e.cfg.NoSeedRecycling {
			e.pool = append(e.pool, poolEntry{class: t.mutant, iter: t.iter})
			e.src.Grew(len(e.pool)-1, t.rec.PoolIndex)
			e.tel.poolSize.Set(int64(len(e.pool)))
		}
		e.tel.accepts.Inc()
		if e.obs.o != nil {
			e.obs.emit(Accepted{Iter: t.iter, Name: gc.Name, Stats: gc.Stats})
		}
	} else if e.cfg.KeepClasses || e.cfg.KeepGenBytes {
		// Unaccepted mutants keep their bytes only on request: dropping
		// them is what bounds campaign RSS at paper scale.
		gc.Data = t.data
		t.dataRetained = true
	}
	ge := GenEntry{Iter: t.iter, Stmts: gc.Stats.Stmts, Branches: gc.Stats.Branches, Accepted: accepted}
	if accepted {
		ge.Fp = analysis.ContentFingerprint(t.data)
	}
	e.genLog = append(e.genLog, ge)
	e.src.Observe(t.rec.PoolIndex, true, accepted)
	e.selector.Record(t.rec.MutatorID, accepted)
	if e.obs.o != nil {
		e.obs.emit(SelectorUpdated{Iter: t.iter, MutatorID: t.rec.MutatorID, Success: accepted})
	}
}

// finalize derives the summary statistics.
func (e *engine) finalize() {
	res := e.res
	res.GenUniqueStats = e.genStats.UniqueStatsCount()
	res.Drawn = e.drawn
	res.Stopped = e.stopped
	res.Resumed = e.resumed
	switch {
	case e.cfg.Algorithm == Greedyfuzz:
		res.Coverage = e.greedyUnion
	case e.coverageDirected:
		res.Coverage = e.mergedCov
	}
	res.MutatorStats = make([]MutatorStat, len(e.muts))
	for i, m := range e.muts {
		res.MutatorStats[i] = MutatorStat{ID: i, Name: m.Name}
	}
	if sel, ok := e.selector.(*mcmc.Sampler); ok {
		for i := range res.MutatorStats {
			res.MutatorStats[i].Selected = sel.Selected(i)
			res.MutatorStats[i].Success = sel.Succeeded(i)
		}
	} else {
		// Uniform selectors: exact per-mutator tallies from the generated
		// classes (draws whose mutator was inapplicable are not counted,
		// matching how the evaluation attributes frequencies for the
		// unguided algorithms).
		for _, g := range res.Gen {
			res.MutatorStats[g.MutatorID].Selected++
			if g.Accepted {
				res.MutatorStats[g.MutatorID].Success++
			}
		}
	}
	// Final per-mutator gauges (Table 4's signal) for live observers;
	// the MCMC path also maintains them incrementally via Instrument.
	if e.timing {
		for _, st := range res.MutatorStats {
			e.cfg.Telemetry.Gauge("campaign.mutator." + st.Name + ".selected").Set(int64(st.Selected))
			e.cfg.Telemetry.Gauge("campaign.mutator." + st.Name + ".success").Set(int64(st.Success))
		}
	}
}

// mutantName is the deterministic name of iteration iter's mutant.
func mutantName(iter int) string {
	return fmt.Sprintf("M%d", 1430000000+iter)
}

// finishMutant applies the deterministic post-mutation fixups: the
// iteration-derived name, the version pin, and the observable main.
func finishMutant(c *jimple.Class, iter int) {
	c.Name = mutantName(iter)
	c.Major = 51 // every mutant is pinned to version 51 (§3.1.1)
	// §2.2.1: each mutant is supplemented with a simple main that
	// prints a completion message, so the mutant observably either
	// runs or fails earlier in the startup pipeline. (Interfaces are
	// left alone; a main inside an interface is itself a mutation the
	// interface-member mutators produce deliberately.)
	if !c.IsInterface() && c.FindMethod("main") == nil {
		c.AddStandardMain("Completed!")
	}
}

// lower compiles a class to a classfile and its serialised bytes,
// both fresh and owned by the caller.
func lower(c *jimple.Class) (*classfile.File, []byte, error) {
	f, err := jimple.Lower(c)
	if err != nil {
		return nil, nil, err
	}
	data, err := f.Bytes()
	return f, data, err
}

// runOnRef lowers the class into the scratch's recycled file,
// serialises it into the scratch's buffer (the lowered check; the
// bytes are dropped), and runs the lowered file on the instrumented
// reference VM, returning the trace.
func (ws *workerScratch) runOnRef(c *jimple.Class) (*coverage.Trace, error) {
	f, err := ws.lctx.Lower(c)
	if err != nil {
		return nil, err
	}
	if ws.buf, err = f.AppendBytes(ws.buf[:0]); err != nil {
		return nil, err
	}
	ws.rec.Reset()
	ws.vm.RunParsed(f)
	return ws.rec.Trace(), nil
}
