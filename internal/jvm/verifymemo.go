package jvm

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// VerifyOracle names which verifier implementation produced a memoised
// verdict. The runtime verifier (this package) and the static dataflow
// mirror (internal/analysis/dataflow) are kept in distinct key spaces
// even though the crosscheck harness holds them outcome-identical:
// sharing entries across them would let a memo hit mask exactly the
// implementation divergence the differential oracle exists to catch.
type VerifyOracle uint8

const (
	// OracleVM marks verdicts of the runtime verifier (VM.runVerifier).
	OracleVM VerifyOracle = iota
	// OracleDataflow marks verdicts of analysis/dataflow.VerifyMethod.
	OracleDataflow
)

// VerifyIdent identifies one verification context: the full spec (every
// policy knob), the library release actually bound, and the oracle.
// Verify verdicts are pure functions of (method key, ident), so equal
// idents may share verdicts across classes, lineups and sessions.
type VerifyIdent struct {
	Spec   Spec
	Env    rtlib.Release
	Oracle VerifyOracle
}

// sig is the ident's stable on-disk signature: FNV-64a over the printed
// spec, so any policy drift changes it. Printing the spec is costly
// next to a map probe; exporters compute it once per ident, not once
// per entry.
func (id VerifyIdent) sig() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%d|%d", id.Spec, int(id.Env), int(id.Oracle))
	return h.Sum64()
}

// Metric names of the method-verification memo. Like the difftest
// engine's counters these are diagnostics, not oracle inputs: under
// parallel evaluation the hit/miss split depends on scheduling (two
// workers may race to verify the same key), while outcomes and traces
// stay deterministic because entries are content-addressed and pure.
const (
	MetricVerifyMemoHits   = "jvm.verify.method_memo.hit"
	MetricVerifyMemoMisses = "jvm.verify.method_memo.miss"
	MetricVerifyMemoUnsafe = "jvm.verify.method_memo.unsafe_fallback"
)

type verifyMemoTel struct {
	hits   *telemetry.Counter
	misses *telemetry.Counter
	unsafe *telemetry.Counter
}

func newVerifyMemoTel(reg *telemetry.Registry) verifyMemoTel {
	return verifyMemoTel{
		hits:   reg.Counter(MetricVerifyMemoHits),
		misses: reg.Counter(MetricVerifyMemoMisses),
		unsafe: reg.Counter(MetricVerifyMemoUnsafe),
	}
}

type verifyMemoKey struct {
	id  VerifyIdent
	key MethodKey
}

// verifyEntry is one memoised verdict. Entries are immutable after
// insertion — the probe sets are never appended to and the outcome is
// copied out on every hit — so a shared entry can be read without
// holding the memo lock.
type verifyEntry struct {
	out   Outcome // the rejection when !ok
	stmts []uint32
	edges []uint32
	// seq is the entry's insertion sequence number (1-based). An
	// upgrade to a probe-carrying entry keeps it: the verdict is the
	// same, so an exporter that already emitted it need not again.
	seq uint64
	// The flags sit together so the entry fits the 128-byte size
	// class.
	ok        bool
	hasProbes bool
}

// VerifyMemo memoises per-method verification verdicts across mutant
// generations, keyed by MethodKey × VerifyIdent. One memo may be shared
// by any number of VMs and goroutines (a single mutex guards the map;
// lookups are trivial next to a dataflow fixpoint).
//
// Entries computed under an attached coverage recorder also carry the
// verifier's probe footprint (as hit sets), so a hit replays the exact
// statement/branch sets a live run would have recorded and campaign
// traces stay byte-identical. Recorder-attached VMs only accept entries
// that carry probes; probe IDs are process-local interning order, so
// imported (persisted) entries serve recorder-less lineups only.
type VerifyMemo struct {
	mu  sync.Mutex
	m   map[verifyMemoKey]*verifyEntry
	seq uint64 // sequence number of the newest entry
	reg *telemetry.Registry
	tel verifyMemoTel
}

// NewVerifyMemo returns an empty memo reporting into a private registry
// (read via Stats; redirect with UseTelemetry).
func NewVerifyMemo() *VerifyMemo {
	m := &VerifyMemo{m: make(map[verifyMemoKey]*verifyEntry, 256), reg: telemetry.New()}
	m.tel = newVerifyMemoTel(m.reg)
	return m
}

// UseTelemetry rebinds the memo's jvm.verify.method_memo.* counters to
// an external registry. Existing tallies stay in the old registry.
func (m *VerifyMemo) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.tel = newVerifyMemoTel(reg)
}

// Stats snapshots the memo's counters.
func (m *VerifyMemo) Stats() telemetry.Snapshot {
	m.mu.Lock()
	reg := m.reg
	m.mu.Unlock()
	return reg.Snapshot()
}

// Len returns the number of memoised verdicts.
func (m *VerifyMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// probe is the locked lookup. needProbes demands an entry carrying a
// probe footprint (recorder-attached VMs); entries without one read as
// misses there so the caller re-verifies and upgrades the entry.
func (m *VerifyMemo) probe(id VerifyIdent, key MethodKey, needProbes bool) (verifyEntry, bool) {
	k := verifyMemoKey{id: id, key: key}
	m.mu.Lock()
	e, ok := m.m[k]
	if ok && needProbes && !e.hasProbes {
		ok = false
	}
	if ok {
		m.tel.hits.Inc()
	} else {
		m.tel.misses.Inc()
	}
	m.mu.Unlock()
	if !ok {
		return verifyEntry{}, false
	}
	return *e, true
}

// store inserts a verdict. Duplicate stores from racing workers carry
// identical content (keys are content-addressed and verifiers pure);
// an entry with probes is never downgraded to one without.
func (m *VerifyMemo) store(id VerifyIdent, key MethodKey, selfName string, out *Outcome, stmts, edges []uint32, hasProbes bool) {
	if out != nil && selfName != "" && strings.Contains(out.Message, selfName) {
		// The rejection text names the class under test; memoising it
		// would replay the parent's name into a child's outcome. Skip —
		// the key stays correct, only this message is lineage-bound.
		m.mu.Lock()
		m.tel.unsafe.Inc()
		m.mu.Unlock()
		return
	}
	e := &verifyEntry{ok: out == nil, hasProbes: hasProbes, stmts: stmts, edges: edges}
	if out != nil {
		e.out = *out
	}
	k := verifyMemoKey{id: id, key: key}
	m.mu.Lock()
	if old, ok := m.m[k]; !ok {
		m.seq++
		e.seq = m.seq
		m.m[k] = e
	} else if !old.hasProbes && hasProbes {
		e.seq = old.seq
		m.m[k] = e
	}
	m.mu.Unlock()
}

// verifyMethodMemo is the memoised path behind verifyMethod: probe the
// shared memo, replay the stored probe footprint on a hit, and capture
// the verifier's probes into a per-VM scratch recorder on a miss so the
// entry can serve recorder-attached VMs later.
func (vm *VM) verifyMethodMemo(ex *execState, m *classfile.Member) *Outcome {
	memo := vm.verifyMemo
	if memo == nil {
		return vm.runVerifier(ex, m)
	}
	if ex.vkey == nil {
		ex.vkey = NewVerifyKeyCtx(ex.f, vm.Env)
	}
	key, ok := ex.vkey.Key(m)
	if !ok {
		return vm.runVerifier(ex, m)
	}
	id := VerifyIdent{Spec: vm.Spec, Env: vm.Env.Release, Oracle: OracleVM}
	if e, hit := memo.probe(id, key, vm.cov != nil); hit {
		vm.cov.ReplayHits(e.stmts, e.edges)
		if e.ok {
			return nil
		}
		out := e.out
		return &out
	}
	if vm.cov == nil {
		out := vm.runVerifier(ex, m)
		memo.store(id, key, ex.name, out, nil, nil, false)
		return out
	}
	// Swap in the scratch recorder for the duration of the verifier run:
	// every probe it fires (enter/ok/rejected, the dataflow's branch
	// probes, the interned verify.err.* statement) funnels through
	// vm.cov, so the captured hit sets are exactly the footprint a
	// replay must reproduce.
	if vm.vcap == nil {
		vm.vcap = coverage.NewRecorder(probes)
	}
	real := vm.cov
	vm.cov = vm.vcap
	out := vm.runVerifier(ex, m)
	stmts, edges := vm.vcap.HitSets()
	vm.vcap.Reset()
	vm.cov = real
	vm.cov.ReplayHits(stmts, edges)
	memo.store(id, key, ex.name, out, stmts, edges, true)
	return out
}

// VerifyMemoExportEntry is one persisted verdict: the ident signature,
// the 128-bit method key, and the outcome. Probe footprints are
// process-local interning order and deliberately absent (the snapshot
// discipline traces follow); imported entries therefore serve
// recorder-less lineups and read as misses under a recorder.
type VerifyMemoExportEntry struct {
	Sig     uint64   `json:"sig"`
	KeyLo   uint64   `json:"key_lo"`
	KeyHi   uint64   `json:"key_hi"`
	OK      bool     `json:"ok"`
	Outcome *Outcome `json:"outcome,omitempty"`
}

// Seq returns the sequence number of the newest verdict: the mark
// after which ExportSince reports only verdicts stored from now on.
func (m *VerifyMemo) Seq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// ExportSince returns every verdict stored after mark (0 exports the
// whole memo), in insertion order, and the mark that continues the
// stream. Appending each call's entries to a journal and replaying the
// journal through Import reproduces the memo, so persisting costs the
// verdicts stored since the last export, not the memo's size.
func (m *VerifyMemo) ExportSince(mark uint64) ([]VerifyMemoExportEntry, uint64) {
	type pending struct {
		k verifyMemoKey
		e *verifyEntry
	}
	m.mu.Lock()
	next := m.seq
	var ps []pending
	for k, e := range m.m { //detlint:ok entries sorted by sequence number before emission
		if e.seq > mark {
			ps = append(ps, pending{k, e})
		}
	}
	m.mu.Unlock()
	sort.Slice(ps, func(i, j int) bool { return ps[i].e.seq < ps[j].e.seq })
	sigs := make(map[VerifyIdent]uint64, 8)
	out := make([]VerifyMemoExportEntry, len(ps))
	for i, p := range ps {
		sig, ok := sigs[p.k.id]
		if !ok {
			sig = p.k.id.sig()
			sigs[p.k.id] = sig
		}
		out[i] = VerifyMemoExportEntry{Sig: sig, KeyLo: p.k.key.Lo, KeyHi: p.k.key.Hi, OK: p.e.ok}
		if !p.e.ok {
			o := p.e.out
			out[i].Outcome = &o
		}
	}
	return out, next
}

// Import adopts exported verdicts whose signature matches one of the
// given VMs' identities (runtime-verifier oracle only — the importer
// has no dataflow callers today). Unknown signatures, a drifted or
// retired lineup, are dropped rather than misattributed. Adopted
// verdicts take fresh sequence numbers in entry order. Returns how many
// verdicts were adopted.
func (m *VerifyMemo) Import(entries []VerifyMemoExportEntry, vms []*VM) int {
	bySig := make(map[uint64]VerifyIdent, len(vms))
	for _, vm := range vms {
		id := VerifyIdent{Spec: vm.Spec, Env: vm.Env.Release, Oracle: OracleVM}
		bySig[id.sig()] = id
	}
	n := 0
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ent := range entries {
		id, ok := bySig[ent.Sig]
		if !ok {
			continue
		}
		if !ent.OK && ent.Outcome == nil {
			continue
		}
		k := verifyMemoKey{id: id, key: MethodKey{Lo: ent.KeyLo, Hi: ent.KeyHi}}
		if _, exists := m.m[k]; exists {
			continue
		}
		m.seq++
		e := &verifyEntry{ok: ent.OK, seq: m.seq}
		if !ent.OK {
			e.out = *ent.Outcome
		}
		m.m[k] = e
		n++
	}
	return n
}

// ShareVerifyMemo attaches one memo to every VM of a lineup.
func ShareVerifyMemo(vms []*VM, m *VerifyMemo) {
	for _, vm := range vms {
		vm.SetVerifyMemo(m)
	}
}
