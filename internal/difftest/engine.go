package difftest

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Metric names of the Runner's engine counters. The semantic results
// (Summary, Vector) are deterministic at any worker count; the counters
// of a memoized parallel evaluation are not quite (two workers may race
// to execute one duplicated class and both count a miss), so these are
// diagnostics, not oracle inputs.
const (
	// MetricClasses counts evaluated classfiles (vectors produced).
	MetricClasses = "difftest.classes"
	// MetricParses counts classfile.Parse calls the engine performed.
	// The pre-engine model parsed once per VM: Classes × lineup size;
	// ParsesAvoided is that baseline minus this counter.
	MetricParses = "difftest.parses"
	// MetricVMRuns counts startup-pipeline executions actually performed.
	MetricVMRuns = "difftest.vm_runs"
	// MetricMemoProbes / MetricMemoHits count this Runner's per-VM memo
	// lookups and successes (both 0 when no memo is attached).
	MetricMemoProbes = "difftest.memo.probes"
	MetricMemoHits   = "difftest.memo.hits"
	// MetricOracleMismatches counts unwaived static-oracle disagreements
	// found by checked evaluations.
	MetricOracleMismatches = "difftest.oracle.mismatches"
	// MetricLineupSize gauges the number of VMs under test.
	MetricLineupSize = "difftest.lineup_size"
	// MetricEvaluateNs is the wall-clock histogram over Evaluate /
	// EvaluateParallel / EvaluateChecked calls (not single-class Runs);
	// its Sum is the cumulative difftest stage wall clock.
	MetricEvaluateNs = "difftest.evaluate_ns"
)

// runnerTel holds the Runner's interned handles into its registry.
type runnerTel struct {
	classes    *telemetry.Counter
	parses     *telemetry.Counter
	vmRuns     *telemetry.Counter
	memoProbes *telemetry.Counter
	memoHits   *telemetry.Counter
	oracleMM   *telemetry.Counter
	lineup     *telemetry.Gauge
	evaluateNs *telemetry.Histogram
}

func newRunnerTel(reg *telemetry.Registry, lineup int) runnerTel {
	t := runnerTel{
		classes:    reg.Counter(MetricClasses),
		parses:     reg.Counter(MetricParses),
		vmRuns:     reg.Counter(MetricVMRuns),
		memoProbes: reg.Counter(MetricMemoProbes),
		memoHits:   reg.Counter(MetricMemoHits),
		oracleMM:   reg.Counter(MetricOracleMismatches),
		lineup:     reg.Gauge(MetricLineupSize),
		evaluateNs: reg.Histogram(MetricEvaluateNs),
	}
	t.lineup.Set(int64(lineup))
	return t
}

// Stats snapshots the Runner's cumulative engine metrics — the one
// exported stats surface (EvalStats, MemoStats and ResetStats are
// gone). Consumers read the difftest.* names via Snapshot.Counter and
// friends; for one operation's delta on a long-lived Runner, bracket it
// with two Stats calls and Diff them. ParsesAvoided is derived:
// Counter(MetricClasses)·lineup − Counter(MetricParses).
func (r *Runner) Stats() telemetry.Snapshot {
	return r.reg.Snapshot()
}

// UseTelemetry redirects the Runner's metrics into an external registry
// (e.g. one served by -metrics-addr) and switches on per-VM pipeline
// timing: every lineup VM — and every per-worker clone — records
// jvm.<spec>.phase.*_ns histograms there. The default private registry
// pays no timing, keeping the uninstrumented path clock-free.
func (r *Runner) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.reg = reg
	r.vmTiming = true
	r.tel = newRunnerTel(reg, len(r.VMs))
	for _, vm := range r.VMs {
		vm.SetTelemetry(reg)
	}
}

// cloneLineup builds a private copy of the Runner's lineup for one
// worker: same specs, same (read-only) library environments, one fresh
// decode cache shared across the clone. VM execution state is
// per-run, so clones are behaviourally identical to the originals.
func (r *Runner) cloneLineup() []*jvm.VM {
	vms := make([]*jvm.VM, len(r.VMs))
	for i, vm := range r.VMs {
		vms[i] = jvm.NewWithEnv(vm.Spec, vm.Env)
		if r.vmTiming {
			vms[i].SetTelemetry(r.reg)
		}
	}
	jvm.ShareDecodeCache(vms)
	return vms
}

// Clone returns a Runner driving a private copy of r's lineup (same
// specs and read-only environments, one fresh decode cache shared
// across the clone) while sharing r's memo and metrics registry. Use
// one clone per goroutine: a single Runner's VMs carry per-run scratch
// state and must not execute concurrently. The parallel delta debugger
// (internal/reduce) builds its worker pool this way.
func (r *Runner) Clone() *Runner {
	return &Runner{VMs: r.cloneLineup(), Memo: r.Memo, reg: r.reg, tel: r.tel, vmTiming: r.vmTiming}
}

// runLineup executes one classfile on a lineup under the engine's
// parse-once discipline:
//
//  1. probe the memo for every VM — a fully-memoized class skips even
//     the parse;
//  2. parse at most once (classfile.Parse is VM-independent); a parse
//     failure is fanned out as the identical loading-phase rejection;
//  3. drive each remaining VM through jvm.RunParsed over the shared
//     parsed file, filling the memo behind it.
//
// With checked set, the single parse also feeds the static oracle and
// each outcome (memoized or fresh — the oracle is a pure function of
// file, VM and outcome) is cross-checked, mismatches returned in VM
// order.
func (r *Runner) runLineup(vms []*jvm.VM, data []byte, checked bool) (Vector, []analysis.Mismatch) {
	v := Vector{
		Codes:    make([]int, len(vms)),
		Outcomes: make([]jvm.Outcome, len(vms)),
	}
	r.tel.classes.Inc()

	var cls *memoClass
	if r.Memo != nil {
		cls = r.Memo.class(data)
	}

	var f *classfile.File
	var perr error
	parsed := false
	parse := func() {
		if parsed {
			return
		}
		parsed = true
		f, perr = classfile.Parse(data)
		r.tel.parses.Inc()
	}
	if checked {
		parse() // the oracle needs the parsed file even on memo hits
	}

	var mm []analysis.Mismatch
	for i, vm := range vms {
		var o jvm.Outcome
		hit := false
		if cls != nil {
			r.tel.memoProbes.Inc()
			o, hit = r.Memo.get(cls, memoIdent(vm))
			if hit {
				r.tel.memoHits.Inc()
			}
		}
		if !hit {
			parse()
			if perr != nil {
				o = jvm.ParseReject(perr)
			} else {
				o = vm.RunParsed(f)
				r.tel.vmRuns.Inc()
			}
			if cls != nil {
				r.Memo.put(cls, memoIdent(vm), o)
			}
		}
		v.Outcomes[i] = o
		v.Codes[i] = o.Code()
		if checked && perr == nil {
			if m := analysis.CheckVM(f, vm, o); m != nil {
				mm = append(mm, *m)
			}
		}
	}
	return v, mm
}

// evaluate is the engine behind Evaluate, EvaluateParallel and
// EvaluateChecked. Workers pull class indices from a shared counter,
// run them on private lineups, and park vectors in an index-addressed
// buffer; the fold into the Summary happens afterwards in class order
// (the same fixed-order commit discipline as the campaign engine), so
// the aggregate — DistinctVectors, histogram, mismatch samples and
// all — is bit-identical at any worker count.
func (r *Runner) evaluate(classes [][]byte, workers int, checked bool) *Summary {
	sp := telemetry.StartSpan(r.tel.evaluateNs)
	defer sp.End()
	return r.evaluateCore(classes, workers, checked)
}

func (r *Runner) evaluateCore(classes [][]byte, workers int, checked bool) *Summary {
	s := newSummary(r)
	if checked {
		defer func() { r.tel.oracleMM.Add(int64(s.OracleMismatches)) }()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(classes) {
		workers = len(classes)
	}
	if workers <= 1 {
		for _, data := range classes {
			v, mm := r.runLineup(r.VMs, data, checked)
			s.absorb(v)
			if checked {
				s.absorbMismatches(mm)
			}
		}
		return s
	}

	vecs := make([]Vector, len(classes))
	var mms [][]analysis.Mismatch
	if checked {
		mms = make([][]analysis.Mismatch, len(classes))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lineup := r.cloneLineup()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(classes) {
					return
				}
				v, mm := r.runLineup(lineup, classes[i], checked)
				vecs[i] = v
				if checked {
					mms[i] = mm
				}
			}
		}()
	}
	wg.Wait()
	for i, v := range vecs {
		s.absorb(v)
		if checked {
			s.absorbMismatches(mms[i])
		}
	}
	return s
}

// runLineupPrefilled is runLineup for EvaluateBatch's execution phase:
// the partition pass already probed the memo, so outs/hits carry the
// cached outcomes and only the missing (class, VM) pairs parse and
// execute. Outcomes are pure functions of (bytes, spec, release), so
// the resulting Vector is identical to runLineup's.
func (r *Runner) runLineupPrefilled(vms []*jvm.VM, data []byte, cls *memoClass, outs []jvm.Outcome, hits []bool) Vector {
	v := Vector{
		Codes:    make([]int, len(vms)),
		Outcomes: make([]jvm.Outcome, len(vms)),
	}
	var f *classfile.File
	var perr error
	parsed := false
	for i, vm := range vms {
		o := outs[i]
		if !hits[i] {
			if !parsed {
				parsed = true
				f, perr = classfile.Parse(data)
				r.tel.parses.Inc()
			}
			if perr != nil {
				o = jvm.ParseReject(perr)
			} else {
				o = vm.RunParsed(f)
				r.tel.vmRuns.Inc()
			}
			r.Memo.put(cls, memoIdent(vm), o)
		}
		v.Outcomes[i] = o
		v.Codes[i] = o.Code()
	}
	return v
}

// evaluateBatch is the engine behind EvaluateBatch: partition the
// whole class set against the memo in one locked pass, then fan out
// only the classes with at least one uncached VM outcome. Vectors park
// in an index-addressed buffer and fold in class order, so the Summary
// is bit-identical to Evaluate's.
func (r *Runner) evaluateBatch(classes [][]byte, workers int) *Summary {
	sp := telemetry.StartSpan(r.tel.evaluateNs)
	defer sp.End()

	if r.Memo == nil || len(classes) == 0 {
		// Nothing to partition against: the batch path degenerates to
		// the ordinary engine.
		return r.evaluateCore(classes, workers, false)
	}

	ids := make([]vmIdent, len(r.VMs))
	for i, vm := range r.VMs {
		ids[i] = memoIdent(vm)
	}
	cls, outs, hits := r.Memo.batchProbe(classes, ids)
	r.tel.classes.Add(int64(len(classes)))
	r.tel.memoProbes.Add(int64(len(classes) * len(ids)))

	// Partition: a class is a miss when any VM outcome is uncached.
	vecs := make([]Vector, len(classes))
	var misses []int
	for i := range classes {
		full := true
		for k := range ids {
			if hits[i][k] {
				r.tel.memoHits.Inc()
			} else {
				full = false
			}
		}
		if full {
			v := Vector{Codes: make([]int, len(ids)), Outcomes: outs[i]}
			for k, o := range outs[i] {
				v.Codes[k] = o.Code()
			}
			vecs[i] = v
		} else {
			misses = append(misses, i)
		}
	}

	// Execute only the misses, in parallel when it pays.
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(misses) {
		workers = len(misses)
	}
	if workers <= 1 {
		for _, i := range misses {
			vecs[i] = r.runLineupPrefilled(r.VMs, classes[i], cls[i], outs[i], hits[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lineup := r.cloneLineup()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(misses) {
						return
					}
					i := misses[n]
					vecs[i] = r.runLineupPrefilled(lineup, classes[i], cls[i], outs[i], hits[i])
				}
			}()
		}
		wg.Wait()
	}

	s := newSummary(r)
	for _, v := range vecs {
		s.absorb(v)
	}
	return s
}
