// Package dataflow implements the JVMS §4.10 type-state verifier as a
// standalone abstract interpretation, the static counterpart of the
// simulators' runtime verifier. It runs a fixpoint dataflow over the
// decoded instruction stream: abstract operand stacks and local
// variable arrays over a small value lattice (int/long/float/double,
// reference-with-class, uninitializedThis, uninitialized(pc),
// returnAddress, conflict/top), per-instruction transfer functions for
// the full decoded instruction set, joins at merge points using the
// rtlib.Env class hierarchy, and exception-handler edges.
//
// The verdict is *definite*: for a given jvm.Policy and environment the
// analysis returns exactly the linking-phase outcome the simulated
// verifier would produce — nil when the method verifies, the rejection
// otherwise. The per-VM verifier dialects (GIJ's uninitialized-merge
// and declared-assignability checks, J9's strict stack shapes,
// HotSpot's jsr/ret ban and type-checking StackMapTable validation) are
// driven by the same Policy knobs the simulators use, so the analysis
// can stand in for any of the five presets. internal/analysis's
// StaticVerdict builds on this to predict VerifyError without
// executing a VM, and the crosscheck harness holds
// the package to a zero-waiver agreement bar against all five presets.
package dataflow

import (
	"fmt"
	"sync"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// slotKind enumerates the abstract value lattice. The byte values match
// descriptor base-type characters where one exists so diagnostics read
// naturally.
type slotKind byte

const (
	kUndef    slotKind = 0   // unset local slot
	kInt      slotKind = 'I' // int family (boolean/byte/char/short/int)
	kFloat    slotKind = 'F'
	kLong     slotKind = 'J' // first slot
	kDouble   slotKind = 'D' // first slot
	kWide2    slotKind = '2' // second slot of long/double
	kRef      slotKind = 'A' // reference; cls names the class if known
	kNull     slotKind = 'N' // null constant
	kUninit   slotKind = 'U' // uninitialized object from `new` at pc
	kRetAddr  slotKind = 'R' // jsr return address
	kConflict slotKind = 'X' // merge conflict; unusable (lattice top)
)

// slot is one abstract stack or local value.
type slot struct {
	kind slotKind
	cls  string // internal class name for kRef/kUninit when known
	pc   int    // allocation site for kUninit (-1 = uninitializedThis)
}

func (v slot) isWideFirst() bool { return v.kind == kLong || v.kind == kDouble }

func (v slot) isRefLike() bool {
	return v.kind == kRef || v.kind == kNull || v.kind == kUninit
}

func (v slot) slots() int {
	if v.isWideFirst() {
		return 2
	}
	return 1
}

func (v slot) String() string {
	switch v.kind {
	case kUndef:
		return "_"
	case kRef:
		if v.cls == "" {
			return "ref"
		}
		return "ref(" + v.cls + ")"
	case kNull:
		return "null"
	case kUninit:
		if v.pc < 0 {
			return "uninitThis"
		}
		return fmt.Sprintf("uninit(%s@%d)", v.cls, v.pc)
	case kConflict:
		return "top"
	default:
		return string(rune(v.kind))
	}
}

func refOf(cls string) slot { return slot{kind: kRef, cls: cls} }

// slotOfDesc maps a descriptor type to its abstract value. Plain class
// references carry their internal name; arrays keep the bracketed
// descriptor form (matching anewarray/newarray results).
func slotOfDesc(t descriptor.Type) slot {
	if t.IsReference() {
		if t.Dims == 0 && t.Kind == 'L' {
			return refOf(t.ClassName)
		}
		return refOf(t.String())
	}
	switch t.Kind {
	case 'J':
		return slot{kind: kLong}
	case 'D':
		return slot{kind: kDouble}
	case 'F':
		return slot{kind: kFloat}
	default:
		return slot{kind: kInt}
	}
}

// state is one abstract machine state: operand stack plus locals.
type state struct {
	stack  []slot
	locals []slot
}

// statePool recycles states across VerifyMethod calls (there is no
// long-lived checker object to hang a free list on — VerifyMethod is a
// stateless package API — so a sync.Pool carries the slice capacity
// between runs instead). States go back to the pool at the end of each
// run; nothing a run returns retains one.
var statePool = sync.Pool{New: func() any { return &state{} }}

func getState() *state  { return statePool.Get().(*state) }
func putState(f *state) { statePool.Put(f) }

// copyFrom overwrites f with src's state, reusing f's slice capacity.
func (f *state) copyFrom(src *state) *state {
	f.stack = append(f.stack[:0], src.stack...)
	f.locals = append(f.locals[:0], src.locals...)
	return f
}

// checker runs the dataflow analysis over a single method body.
type checker struct {
	f    *classfile.File
	m    *classfile.Member
	p    *jvm.Policy
	env  *rtlib.Env
	name string // class under test's internal name
	code *classfile.CodeAttr
	ins  []*bytecode.Instruction
	// pcIndex maps a byte PC to the instruction index; targets caches
	// Targets() per instruction.
	pcIndex map[int]int
	targets [][]int
	// in holds the merged entry state per instruction index.
	in   []*state
	work []int
	md   descriptor.Method
	// errName/errMsg carry the first verification failure raised during
	// the fixpoint (the analysis is first-error, like the simulators).
	errName string
	errMsg  string
	// scratch is the working state step simulates into, reused across
	// worklist iterations so per-step copies do not allocate.
	scratch state
}

// VerifyMethod runs the dataflow verification of one method of f under
// policy p and environment env. The result is nil when the method
// verifies, or the linking-phase rejection the simulated VM's verifier
// would produce (lazy-verification callers re-phase it). The outcome —
// including the error class and the check ordering that picks which of
// several defects is reported — must match internal/jvm's runtime
// verifier exactly; the crosscheck and fuzz harnesses enforce that.
func VerifyMethod(f *classfile.File, m *classfile.Member, p *jvm.Policy, env *rtlib.Env) *jvm.Outcome {
	c := &checker{f: f, m: m, p: p, env: env, name: f.Name(), code: m.Code()}
	return c.run()
}

// VerifyClass verifies every method of f that has a Code attribute, in
// declaration order, mirroring an eager-verification link phase. It
// returns the first rejection, or nil when the class verifies.
func VerifyClass(f *classfile.File, p *jvm.Policy, env *rtlib.Env) *jvm.Outcome {
	for _, m := range f.Methods {
		if m.Code() == nil {
			continue
		}
		if out := VerifyMethod(f, m, p, env); out != nil {
			return out
		}
	}
	return nil
}

func (c *checker) fail(errName, format string, args ...any) {
	if c.errName == "" {
		c.errName = errName
		c.errMsg = fmt.Sprintf(format, args...)
	}
}

func (c *checker) failed() bool { return c.errName != "" }

func (c *checker) outcome(errName, format string, args ...any) *jvm.Outcome {
	return &jvm.Outcome{Phase: jvm.PhaseLinking, Error: errName,
		Message: fmt.Sprintf(format, args...)}
}

func (c *checker) run() *jvm.Outcome {
	mname := c.m.Name(c.f.Pool)
	mdesc := c.m.Descriptor(c.f.Pool)

	if len(c.code.Code) == 0 {
		return c.outcome(jvm.ErrClassFormat, "method %s has an empty code array", mname)
	}

	md, err := descriptor.ParseMethod(mdesc)
	if err != nil {
		return c.outcome(jvm.ErrClassFormat, "method %s has malformed descriptor", mname)
	}
	c.md = md

	ins, err := bytecode.Decode(c.code.Code)
	if err != nil {
		return c.outcome(jvm.ErrVerify, "method %s: %v", mname, err)
	}
	c.ins = ins
	c.pcIndex = make(map[int]int, len(ins))
	for i, in := range ins {
		c.pcIndex[in.PC] = i
	}
	c.targets = make([][]int, len(ins))
	for i, in := range ins {
		c.targets[i] = in.Targets()
	}

	// Branch targets must land on instruction boundaries.
	for i, in := range ins {
		for _, t := range c.targets[i] {
			if _, ok := c.pcIndex[t]; !ok {
				return c.outcome(jvm.ErrVerify,
					"method %s: branch into the middle of an instruction (pc %d)", mname, t)
			}
		}
		if (in.Op == bytecode.Jsr || in.Op == bytecode.JsrW || in.Op == bytecode.Ret ||
			(in.Op == bytecode.Wide && in.WideOp == bytecode.Ret)) &&
			c.p.ForbidJsrRet && c.f.Major >= 51 {
			return c.outcome(jvm.ErrVerify,
				"method %s uses jsr/ret in a version %d classfile", mname, c.f.Major)
		}
	}

	// Exception handler sanity.
	for _, h := range c.code.Handlers {
		_, okS := c.pcIndex[int(h.StartPC)]
		_, okH := c.pcIndex[int(h.HandlerPC)]
		endOK := int(h.EndPC) == len(c.code.Code) || func() bool { _, ok := c.pcIndex[int(h.EndPC)]; return ok }()
		if !okS || !okH || !endOK || h.StartPC >= h.EndPC {
			return c.outcome(jvm.ErrClassFormat,
				"method %s has an invalid exception handler range", mname)
		}
		if h.CatchType != 0 {
			cname, ok := c.f.Pool.ClassName(h.CatchType)
			if !ok {
				return c.outcome(jvm.ErrClassFormat,
					"method %s catch type #%d is not a class", mname, h.CatchType)
			}
			ci, known := c.lookup(cname)
			if !known {
				if c.p.EagerResolution {
					return &jvm.Outcome{Phase: jvm.PhaseLinking, Error: jvm.ErrNoClassDef, Message: cname}
				}
			} else if ci != nil {
				if !c.env.IsThrowable(cname) {
					return c.outcome(jvm.ErrVerify,
						"method %s catches non-Throwable %s", mname, cname)
				}
			}
		}
	}

	// Type-checking verification (§4.10.1): presets that use the
	// StackMapTable-driven verifier reject undecodable tables outright.
	if c.p.VerifyTypeChecking && c.f.Major >= 50 {
		for _, a := range c.code.Attributes {
			if t, ok := a.(*classfile.StackMapTableAttr); ok {
				if _, err := classfile.DecodeStackMap(t); err != nil {
					return c.outcome(jvm.ErrClassFormat,
						"method %s has an undecodable StackMapTable: %v", mname, err)
				}
				break
			}
		}
	}

	// Initial state (pooled; mergeInto copies it, so it goes straight
	// back to the pool afterwards).
	init := getState()
	init.stack = init.stack[:0]
	if cap(init.locals) < int(c.code.MaxLocals) {
		init.locals = make([]slot, c.code.MaxLocals)
	} else {
		init.locals = init.locals[:c.code.MaxLocals]
		clear(init.locals)
	}
	at := 0
	isStatic := c.m.AccessFlags.Has(classfile.AccStatic)
	if !isStatic {
		if at >= len(init.locals) {
			putState(init)
			return c.outcome(jvm.ErrVerify, "max_locals too small for receiver")
		}
		if mname == "<init>" {
			init.locals[at] = slot{kind: kUninit, cls: c.name, pc: -1}
		} else {
			init.locals[at] = refOf(c.name)
		}
		at++
	}
	for _, pt := range md.Params {
		t := slotOfDesc(pt)
		if at+t.slots() > len(init.locals) {
			putState(init)
			return c.outcome(jvm.ErrVerify,
				"max_locals %d too small for parameters of %s%s", c.code.MaxLocals, mname, mdesc)
		}
		init.locals[at] = t
		at++
		if t.isWideFirst() {
			init.locals[at] = slot{kind: kWide2}
			at++
		}
	}

	c.in = make([]*state, len(ins))
	c.mergeInto(0, init)
	putState(init)

	for len(c.work) > 0 && !c.failed() {
		idx := c.work[len(c.work)-1]
		c.work = c.work[:len(c.work)-1]
		c.step(idx)
	}
	for _, f := range c.in {
		if f != nil {
			putState(f)
		}
	}
	if c.failed() {
		return c.outcome(c.errName, "method %s%s: %s", mname, mdesc, c.errMsg)
	}
	return nil
}

// lookup resolves a class name against the class under test or the
// environment; the bool is false when the name is unknown to both.
// A nil ClassInfo with ok=true means the class under test itself.
func (c *checker) lookup(name string) (*rtlib.ClassInfo, bool) {
	if name == c.name {
		return nil, true
	}
	if ci, ok := c.env.Lookup(name); ok {
		return ci, true
	}
	return nil, false
}

// mergeInto joins a state into instruction idx's entry state and
// enqueues it when the entry changed.
func (c *checker) mergeInto(idx int, f *state) {
	if c.failed() {
		return
	}
	cur := c.in[idx]
	if cur == nil {
		c.in[idx] = getState().copyFrom(f)
		c.work = append(c.work, idx)
		return
	}
	if len(cur.stack) != len(f.stack) {
		c.fail(jvm.ErrVerify, "inconsistent stack depth at merge (pc %d): %d vs %d",
			c.ins[idx].PC, len(cur.stack), len(f.stack))
		return
	}
	changed := false
	for i := range cur.stack {
		m, ch := c.mergeSlot(cur.stack[i], f.stack[i], true)
		if c.failed() {
			return
		}
		if ch {
			cur.stack[i] = m
			changed = true
		}
	}
	for i := range cur.locals {
		m, ch := c.mergeSlot(cur.locals[i], f.locals[i], false)
		if c.failed() {
			return
		}
		if ch {
			cur.locals[i] = m
			changed = true
		}
	}
	if changed {
		c.work = append(c.work, idx)
	}
}

// mergeSlot joins two abstract values. onStack selects the stricter
// stack rules (conflicts on the stack are verification errors; in
// locals they just poison the slot).
func (c *checker) mergeSlot(a, b slot, onStack bool) (slot, bool) {
	if a == b {
		return a, false
	}
	conflict := func(reason string) (slot, bool) {
		if onStack {
			c.fail(jvm.ErrVerify, "unmergeable stack values (%s vs %s): %s", a, b, reason)
			return a, false
		}
		return slot{kind: kConflict}, a.kind != kConflict
	}
	// Reference-family merging.
	if a.isRefLike() && b.isRefLike() {
		// Uninitialized values merging with anything else: GIJ flags it
		// (Problem 2); other VMs widen to an unknown reference.
		if a.kind == kUninit || b.kind == kUninit {
			if a.kind == kUninit && b.kind == kUninit && a.pc == b.pc && a.cls == b.cls {
				return a, false
			}
			if c.p.VerifyUninitMerge {
				c.fail(jvm.ErrVerify, "merging initialized and uninitialized values (%s vs %s)", a, b)
				return a, false
			}
			return refOf(""), true
		}
		if a.kind == kNull {
			return b, true
		}
		if b.kind == kNull {
			return a, false
		}
		// Both proper refs with (possibly) known classes.
		if a.cls == b.cls {
			return a, false
		}
		if a.cls == "" || b.cls == "" {
			return refOf(""), a.cls != ""
		}
		sup := c.commonSuper(a.cls, b.cls)
		if c.p.VerifyStrictStackShape && onStack && sup != a.cls && sup != b.cls {
			// J9's strict dialect: merging unrelated reference types on
			// the stack is a "stack shape inconsistent" failure.
			c.fail(jvm.ErrVerify, "stack shape inconsistent (%s vs %s)", a, b)
			return a, false
		}
		m := refOf(sup)
		return m, m != a
	}
	if a.kind == kUndef || b.kind == kUndef {
		return conflict("undefined slot")
	}
	if a.kind != b.kind {
		return conflict("kind mismatch")
	}
	return a, false
}

// commonSuper computes the least common superclass known to the
// environment; Object when unrelated.
func (c *checker) commonSuper(a, b string) string {
	chainOf := func(n string) []string {
		var chain []string
		cur := n
		if cur == c.name {
			chain = append(chain, cur)
			cur = c.f.SuperName()
		}
		for cur != "" {
			chain = append(chain, cur)
			ci, ok := c.env.Lookup(cur)
			if !ok {
				break
			}
			cur = ci.Super
		}
		return chain
	}
	ca, cb := chainOf(a), chainOf(b)
	inB := make(map[string]bool, len(cb))
	for _, n := range cb {
		inB[n] = true
	}
	for _, n := range ca {
		if inB[n] {
			return n
		}
	}
	return "java/lang/Object"
}

// assignableRef decides whether a value of class `from` can serve where
// `to` is expected, considering the class under test's own hierarchy.
func (c *checker) assignableRef(from, to string) bool {
	if from == "" || to == "" || from == to || to == "java/lang/Object" {
		return true
	}
	if from == c.name {
		// The class under test: assignable to its superclass chain and
		// declared interfaces.
		if c.env.AssignableTo(c.f.SuperName(), to) {
			return true
		}
		for _, n := range c.f.InterfaceNames() {
			if n == to || c.env.AssignableTo(n, to) {
				return true
			}
		}
		return false
	}
	if _, ok := c.env.Lookup(from); !ok {
		// Unknown class: be permissive; lazy VMs discover at runtime.
		return true
	}
	if _, ok := c.env.Lookup(to); !ok {
		return true
	}
	// Interfaces as targets: only check when both sides are known.
	return c.env.AssignableTo(from, to)
}

// --- per-instruction transfer functions -----------------------------------

// sim wraps the working state with failure-raising stack/local
// operations so transfer functions read like the JVMS stack effects.
type sim struct {
	c *checker
	f *state
}

func (s *sim) push(t slot) {
	if len(s.f.stack) >= int(s.c.code.MaxStack) {
		s.c.fail(jvm.ErrVerify, "operand stack overflow (max_stack %d)", s.c.code.MaxStack)
		return
	}
	s.f.stack = append(s.f.stack, t)
}

func (s *sim) pushWide(t slot) {
	s.push(t)
	s.push(slot{kind: kWide2})
}

func (s *sim) pop() slot {
	if s.c.failed() {
		return slot{}
	}
	if len(s.f.stack) == 0 {
		s.c.fail(jvm.ErrVerify, "operand stack underflow")
		return slot{}
	}
	t := s.f.stack[len(s.f.stack)-1]
	s.f.stack = s.f.stack[:len(s.f.stack)-1]
	return t
}

func (s *sim) popKind(k slotKind) slot {
	t := s.pop()
	if !s.c.failed() && t.kind != k {
		s.c.fail(jvm.ErrVerify, "expected %s on stack, found %s", slot{kind: k}, t)
	}
	return t
}

func (s *sim) popWide(k slotKind) {
	s.popKind(kWide2)
	s.popKind(k)
}

func (s *sim) popRef() slot {
	t := s.pop()
	if !s.c.failed() && !t.isRefLike() {
		s.c.fail(jvm.ErrVerify, "expected a reference on stack, found %s", t)
	}
	return t
}

// popDesc pops a value matching descriptor type dt, applying the
// strict-assignability dialect when enabled.
func (s *sim) popDesc(dt descriptor.Type, ctx string) {
	if dt.IsWide() {
		s.popWide(slotKind(dt.Kind))
		return
	}
	if dt.IsReference() {
		got := s.popRef()
		if !s.c.failed() && s.c.p.VerifyRefAssignability &&
			got.kind == kRef && got.cls != "" && dt.Dims == 0 && dt.Kind == 'L' {
			if !s.c.assignableRef(got.cls, dt.ClassName) {
				s.c.fail(jvm.ErrVerify, "%s: %s is not assignable to %s", ctx, got.cls, dt.ClassName)
			}
		}
		return
	}
	switch dt.Kind {
	case 'F':
		s.popKind(kFloat)
	default:
		s.popKind(kInt)
	}
}

func (s *sim) getLocal(i int, k slotKind) slot {
	if i < 0 || i >= len(s.f.locals) {
		s.c.fail(jvm.ErrVerify, "local variable index %d out of bounds (max_locals %d)", i, len(s.f.locals))
		return slot{}
	}
	t := s.f.locals[i]
	if k == kRef {
		if !t.isRefLike() {
			s.c.fail(jvm.ErrVerify, "local %d holds %s, expected a reference", i, t)
		}
	} else if t.kind != k {
		s.c.fail(jvm.ErrVerify, "local %d holds %s, expected %s", i, t, slot{kind: k})
	}
	return t
}

func (s *sim) setLocal(i int, t slot) {
	n := t.slots()
	if i < 0 || i+n > len(s.f.locals) {
		s.c.fail(jvm.ErrVerify, "local variable index %d out of bounds (max_locals %d)", i, len(s.f.locals))
		return
	}
	// Storing into the second slot of a wide value invalidates the first.
	if i > 0 && s.f.locals[i].kind == kWide2 && s.f.locals[i-1].isWideFirst() {
		s.f.locals[i-1] = slot{kind: kConflict}
	}
	s.f.locals[i] = t
	if n == 2 {
		s.f.locals[i+1] = slot{kind: kWide2}
	}
}

// step simulates instruction idx against its merged entry state and
// propagates the result to all successors.
func (c *checker) step(idx int) {
	in := c.ins[idx]
	fr := c.scratch.copyFrom(c.in[idx])
	s := &sim{c: c, f: fr}

	op := in.Op
	if op == bytecode.Wide {
		op = in.WideOp
	}

	switch op {
	case bytecode.Nop, bytecode.Breakpoint, bytecode.Impdep1, bytecode.Impdep2:
	case bytecode.AconstNull:
		s.push(slot{kind: kNull})
	case bytecode.IconstM1, bytecode.Iconst0, bytecode.Iconst1, bytecode.Iconst2,
		bytecode.Iconst3, bytecode.Iconst4, bytecode.Iconst5, bytecode.Bipush, bytecode.Sipush:
		s.push(slot{kind: kInt})
	case bytecode.Lconst0, bytecode.Lconst1:
		s.pushWide(slot{kind: kLong})
	case bytecode.Fconst0, bytecode.Fconst1, bytecode.Fconst2:
		s.push(slot{kind: kFloat})
	case bytecode.Dconst0, bytecode.Dconst1:
		s.pushWide(slot{kind: kDouble})
	case bytecode.Ldc, bytecode.LdcW:
		c.simLdc(s, in, false)
	case bytecode.Ldc2W:
		c.simLdc(s, in, true)

	case bytecode.Iload:
		s.getLocal(int(in.Local), kInt)
		s.push(slot{kind: kInt})
	case bytecode.Lload:
		s.getLocal(int(in.Local), kLong)
		s.pushWide(slot{kind: kLong})
	case bytecode.Fload:
		s.getLocal(int(in.Local), kFloat)
		s.push(slot{kind: kFloat})
	case bytecode.Dload:
		s.getLocal(int(in.Local), kDouble)
		s.pushWide(slot{kind: kDouble})
	case bytecode.Aload:
		t := s.getLocal(int(in.Local), kRef)
		s.push(t)
	case bytecode.Iload0, bytecode.Iload1, bytecode.Iload2, bytecode.Iload3:
		s.getLocal(int(op-bytecode.Iload0), kInt)
		s.push(slot{kind: kInt})
	case bytecode.Lload0, bytecode.Lload1, bytecode.Lload2, bytecode.Lload3:
		s.getLocal(int(op-bytecode.Lload0), kLong)
		s.pushWide(slot{kind: kLong})
	case bytecode.Fload0, bytecode.Fload1, bytecode.Fload2, bytecode.Fload3:
		s.getLocal(int(op-bytecode.Fload0), kFloat)
		s.push(slot{kind: kFloat})
	case bytecode.Dload0, bytecode.Dload1, bytecode.Dload2, bytecode.Dload3:
		s.getLocal(int(op-bytecode.Dload0), kDouble)
		s.pushWide(slot{kind: kDouble})
	case bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
		t := s.getLocal(int(op-bytecode.Aload0), kRef)
		s.push(t)

	case bytecode.Istore:
		s.popKind(kInt)
		s.setLocal(int(in.Local), slot{kind: kInt})
	case bytecode.Lstore:
		s.popWide(kLong)
		s.setLocal(int(in.Local), slot{kind: kLong})
	case bytecode.Fstore:
		s.popKind(kFloat)
		s.setLocal(int(in.Local), slot{kind: kFloat})
	case bytecode.Dstore:
		s.popWide(kDouble)
		s.setLocal(int(in.Local), slot{kind: kDouble})
	case bytecode.Astore:
		t := s.pop()
		if !c.failed() && !t.isRefLike() && t.kind != kRetAddr {
			c.fail(jvm.ErrVerify, "astore of non-reference %s", t)
		}
		s.setLocal(int(in.Local), t)
	case bytecode.Istore0, bytecode.Istore1, bytecode.Istore2, bytecode.Istore3:
		s.popKind(kInt)
		s.setLocal(int(op-bytecode.Istore0), slot{kind: kInt})
	case bytecode.Lstore0, bytecode.Lstore1, bytecode.Lstore2, bytecode.Lstore3:
		s.popWide(kLong)
		s.setLocal(int(op-bytecode.Lstore0), slot{kind: kLong})
	case bytecode.Fstore0, bytecode.Fstore1, bytecode.Fstore2, bytecode.Fstore3:
		s.popKind(kFloat)
		s.setLocal(int(op-bytecode.Fstore0), slot{kind: kFloat})
	case bytecode.Dstore0, bytecode.Dstore1, bytecode.Dstore2, bytecode.Dstore3:
		s.popWide(kDouble)
		s.setLocal(int(op-bytecode.Dstore0), slot{kind: kDouble})
	case bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
		t := s.pop()
		if !c.failed() && !t.isRefLike() && t.kind != kRetAddr {
			c.fail(jvm.ErrVerify, "astore of non-reference %s", t)
		}
		s.setLocal(int(op-bytecode.Astore0), t)

	case bytecode.Iaload, bytecode.Baload, bytecode.Caload, bytecode.Saload:
		s.popKind(kInt)
		s.popRef()
		s.push(slot{kind: kInt})
	case bytecode.Laload:
		s.popKind(kInt)
		s.popRef()
		s.pushWide(slot{kind: kLong})
	case bytecode.Faload:
		s.popKind(kInt)
		s.popRef()
		s.push(slot{kind: kFloat})
	case bytecode.Daload:
		s.popKind(kInt)
		s.popRef()
		s.pushWide(slot{kind: kDouble})
	case bytecode.Aaload:
		s.popKind(kInt)
		arr := s.popRef()
		s.push(elementOf(arr))
	case bytecode.Iastore, bytecode.Bastore, bytecode.Castore, bytecode.Sastore:
		s.popKind(kInt)
		s.popKind(kInt)
		s.popRef()
	case bytecode.Lastore:
		s.popWide(kLong)
		s.popKind(kInt)
		s.popRef()
	case bytecode.Fastore:
		s.popKind(kFloat)
		s.popKind(kInt)
		s.popRef()
	case bytecode.Dastore:
		s.popWide(kDouble)
		s.popKind(kInt)
		s.popRef()
	case bytecode.Aastore:
		s.popRef()
		s.popKind(kInt)
		s.popRef()

	case bytecode.Pop:
		t := s.pop()
		if !c.failed() && t.kind == kWide2 {
			c.fail(jvm.ErrVerify, "pop splits a two-slot value")
		}
	case bytecode.Pop2:
		s.pop()
		s.pop()
	case bytecode.Dup:
		t := s.pop()
		if !c.failed() && t.kind == kWide2 {
			c.fail(jvm.ErrVerify, "dup of half a two-slot value")
		}
		s.push(t)
		s.push(t)
	case bytecode.DupX1:
		a := s.pop()
		b := s.pop()
		s.push(a)
		s.push(b)
		s.push(a)
	case bytecode.DupX2:
		a := s.pop()
		b := s.pop()
		cc := s.pop()
		s.push(a)
		s.push(cc)
		s.push(b)
		s.push(a)
	case bytecode.Dup2:
		a := s.pop()
		b := s.pop()
		s.push(b)
		s.push(a)
		s.push(b)
		s.push(a)
	case bytecode.Dup2X1:
		a := s.pop()
		b := s.pop()
		cc := s.pop()
		s.push(b)
		s.push(a)
		s.push(cc)
		s.push(b)
		s.push(a)
	case bytecode.Dup2X2:
		a := s.pop()
		b := s.pop()
		cc := s.pop()
		d := s.pop()
		s.push(b)
		s.push(a)
		s.push(d)
		s.push(cc)
		s.push(b)
		s.push(a)
	case bytecode.Swap:
		a := s.pop()
		b := s.pop()
		if !c.failed() && (a.kind == kWide2 || b.kind == kWide2) {
			c.fail(jvm.ErrVerify, "swap of two-slot values")
		}
		s.push(a)
		s.push(b)

	case bytecode.Iadd, bytecode.Isub, bytecode.Imul, bytecode.Idiv, bytecode.Irem,
		bytecode.Ishl, bytecode.Ishr, bytecode.Iushr, bytecode.Iand, bytecode.Ior, bytecode.Ixor:
		s.popKind(kInt)
		s.popKind(kInt)
		s.push(slot{kind: kInt})
	case bytecode.Ladd, bytecode.Lsub, bytecode.Lmul, bytecode.Ldiv, bytecode.Lrem,
		bytecode.Land, bytecode.Lor, bytecode.Lxor:
		s.popWide(kLong)
		s.popWide(kLong)
		s.pushWide(slot{kind: kLong})
	case bytecode.Lshl, bytecode.Lshr, bytecode.Lushr:
		s.popKind(kInt)
		s.popWide(kLong)
		s.pushWide(slot{kind: kLong})
	case bytecode.Fadd, bytecode.Fsub, bytecode.Fmul, bytecode.Fdiv, bytecode.Frem:
		s.popKind(kFloat)
		s.popKind(kFloat)
		s.push(slot{kind: kFloat})
	case bytecode.Dadd, bytecode.Dsub, bytecode.Dmul, bytecode.Ddiv, bytecode.Drem:
		s.popWide(kDouble)
		s.popWide(kDouble)
		s.pushWide(slot{kind: kDouble})
	case bytecode.Ineg:
		s.popKind(kInt)
		s.push(slot{kind: kInt})
	case bytecode.Lneg:
		s.popWide(kLong)
		s.pushWide(slot{kind: kLong})
	case bytecode.Fneg:
		s.popKind(kFloat)
		s.push(slot{kind: kFloat})
	case bytecode.Dneg:
		s.popWide(kDouble)
		s.pushWide(slot{kind: kDouble})
	case bytecode.Iinc:
		s.getLocal(int(in.Local), kInt)

	case bytecode.I2l:
		s.popKind(kInt)
		s.pushWide(slot{kind: kLong})
	case bytecode.I2f:
		s.popKind(kInt)
		s.push(slot{kind: kFloat})
	case bytecode.I2d:
		s.popKind(kInt)
		s.pushWide(slot{kind: kDouble})
	case bytecode.L2i:
		s.popWide(kLong)
		s.push(slot{kind: kInt})
	case bytecode.L2f:
		s.popWide(kLong)
		s.push(slot{kind: kFloat})
	case bytecode.L2d:
		s.popWide(kLong)
		s.pushWide(slot{kind: kDouble})
	case bytecode.F2i:
		s.popKind(kFloat)
		s.push(slot{kind: kInt})
	case bytecode.F2l:
		s.popKind(kFloat)
		s.pushWide(slot{kind: kLong})
	case bytecode.F2d:
		s.popKind(kFloat)
		s.pushWide(slot{kind: kDouble})
	case bytecode.D2i:
		s.popWide(kDouble)
		s.push(slot{kind: kInt})
	case bytecode.D2l:
		s.popWide(kDouble)
		s.pushWide(slot{kind: kLong})
	case bytecode.D2f:
		s.popWide(kDouble)
		s.push(slot{kind: kFloat})
	case bytecode.I2b, bytecode.I2c, bytecode.I2s:
		s.popKind(kInt)
		s.push(slot{kind: kInt})

	case bytecode.Lcmp:
		s.popWide(kLong)
		s.popWide(kLong)
		s.push(slot{kind: kInt})
	case bytecode.Fcmpl, bytecode.Fcmpg:
		s.popKind(kFloat)
		s.popKind(kFloat)
		s.push(slot{kind: kInt})
	case bytecode.Dcmpl, bytecode.Dcmpg:
		s.popWide(kDouble)
		s.popWide(kDouble)
		s.push(slot{kind: kInt})

	case bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge, bytecode.Ifgt, bytecode.Ifle:
		s.popKind(kInt)
	case bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt, bytecode.IfIcmpge,
		bytecode.IfIcmpgt, bytecode.IfIcmple:
		s.popKind(kInt)
		s.popKind(kInt)
	case bytecode.IfAcmpeq, bytecode.IfAcmpne:
		s.popRef()
		s.popRef()
	case bytecode.Ifnull, bytecode.Ifnonnull:
		s.popRef()
	case bytecode.Goto, bytecode.GotoW:
	case bytecode.Jsr, bytecode.JsrW:
		s.push(slot{kind: kRetAddr})
	case bytecode.Ret:
		s.getLocal(int(in.Local), kRetAddr)
	case bytecode.Tableswitch, bytecode.Lookupswitch:
		s.popKind(kInt)

	case bytecode.Ireturn:
		s.popKind(kInt)
		c.checkReturn(in, 'I')
	case bytecode.Lreturn:
		s.popWide(kLong)
		c.checkReturn(in, 'J')
	case bytecode.Freturn:
		s.popKind(kFloat)
		c.checkReturn(in, 'F')
	case bytecode.Dreturn:
		s.popWide(kDouble)
		c.checkReturn(in, 'D')
	case bytecode.Areturn:
		s.popRef()
		c.checkReturn(in, 'A')
	case bytecode.Return:
		c.checkReturn(in, 'V')

	case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
		c.simField(s, in)
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic,
		bytecode.Invokeinterface:
		c.simInvoke(s, in)
	case bytecode.Invokedynamic:
		c.simInvokeDynamic(s, in)

	case bytecode.New:
		cname, ok := c.f.Pool.ClassName(in.CPIndex)
		if !ok {
			c.fail(jvm.ErrClassFormat, "new references non-class constant #%d", in.CPIndex)
			break
		}
		s.push(slot{kind: kUninit, cls: cname, pc: in.PC})
	case bytecode.Newarray:
		if !in.ArrayTyp.Valid() {
			c.fail(jvm.ErrVerify, "newarray with invalid type code %d", in.ArrayTyp)
			break
		}
		s.popKind(kInt)
		s.push(refOf("[" + in.ArrayTyp.Descriptor()))
	case bytecode.Anewarray:
		cname, ok := c.f.Pool.ClassName(in.CPIndex)
		if !ok {
			c.fail(jvm.ErrClassFormat, "anewarray references non-class constant #%d", in.CPIndex)
			break
		}
		s.popKind(kInt)
		if len(cname) > 0 && cname[0] == '[' {
			s.push(refOf("[" + cname))
		} else {
			s.push(refOf("[L" + cname + ";"))
		}
	case bytecode.Multianewarray:
		if in.Count == 0 {
			c.fail(jvm.ErrVerify, "multianewarray with zero dimensions")
			break
		}
		for i := 0; i < int(in.Count); i++ {
			s.popKind(kInt)
		}
		cname, _ := c.f.Pool.ClassName(in.CPIndex)
		s.push(refOf(cname))
	case bytecode.Arraylength:
		s.popRef()
		s.push(slot{kind: kInt})

	case bytecode.Athrow:
		t := s.popRef()
		if !c.failed() && t.kind == kRef && t.cls != "" && t.cls != c.name {
			if _, ok := c.env.Lookup(t.cls); ok && !c.env.IsThrowable(t.cls) {
				c.fail(jvm.ErrVerify, "athrow of non-Throwable %s", t.cls)
			}
		}
	case bytecode.Checkcast:
		s.popRef()
		cname, ok := c.f.Pool.ClassName(in.CPIndex)
		if !ok {
			c.fail(jvm.ErrClassFormat, "checkcast references non-class constant #%d", in.CPIndex)
			break
		}
		s.push(refOf(cname))
	case bytecode.Instanceof:
		s.popRef()
		if _, ok := c.f.Pool.ClassName(in.CPIndex); !ok {
			c.fail(jvm.ErrClassFormat, "instanceof references non-class constant #%d", in.CPIndex)
			break
		}
		s.push(slot{kind: kInt})
	case bytecode.Monitorenter, bytecode.Monitorexit:
		s.popRef()

	default:
		c.fail(jvm.ErrVerify, "unsupported opcode %s", op.Mnemonic())
	}

	if c.failed() {
		return
	}

	// Propagate to successors.
	if !in.Op.EndsBlock() {
		next := idx + 1
		if next >= len(c.ins) {
			c.fail(jvm.ErrVerify, "execution falls off the end of the code")
			return
		}
		c.mergeInto(next, fr)
	}
	for _, t := range c.targets[idx] {
		c.mergeInto(c.pcIndex[t], fr)
	}
	// Exception edges: any instruction inside a protected range can
	// transfer to the handler with a single throwable on the stack.
	for _, h := range c.code.Handlers {
		if in.PC >= int(h.StartPC) && in.PC < int(h.EndPC) {
			hidx, ok := c.pcIndex[int(h.HandlerPC)]
			if !ok {
				continue // already rejected above
			}
			cname := "java/lang/Throwable"
			if h.CatchType != 0 {
				if n, ok := c.f.Pool.ClassName(h.CatchType); ok {
					cname = n
				}
			}
			hf := getState()
			hf.locals = append(hf.locals[:0], fr.locals...)
			hf.stack = append(hf.stack[:0], refOf(cname))
			c.mergeInto(hidx, hf)
			putState(hf)
		}
	}
}

// elementOf computes the element type of an array reference when known.
func elementOf(arr slot) slot {
	if arr.kind == kRef && len(arr.cls) > 1 && arr.cls[0] == '[' {
		elem := arr.cls[1:]
		if elem[0] == 'L' && elem[len(elem)-1] == ';' {
			return refOf(elem[1 : len(elem)-1])
		}
		if elem[0] == '[' {
			return refOf(elem)
		}
	}
	return refOf("")
}

func (c *checker) checkReturn(in *bytecode.Instruction, kind byte) {
	ret := c.md.Return
	var ok bool
	switch kind {
	case 'V':
		ok = ret.IsVoid()
	case 'A':
		ok = ret.IsReference()
	case 'I':
		ok = ret.Dims == 0 && (ret.Kind == 'I' || ret.Kind == 'Z' || ret.Kind == 'B' || ret.Kind == 'C' || ret.Kind == 'S')
	default:
		ok = ret.Dims == 0 && ret.Kind == kind
	}
	if !ok {
		c.fail(jvm.ErrVerify, "%s at pc %d does not match return type %s", in.Op.Mnemonic(), in.PC, ret.Java())
	}
	// A constructor must have initialized `this` before returning.
	if kind == 'V' && c.m.Name(c.f.Pool) == "<init>" {
		fr := c.in[c.pcIndex[in.PC]]
		if len(fr.locals) > 0 && fr.locals[0].kind == kUninit && fr.locals[0].pc == -1 {
			c.fail(jvm.ErrVerify, "constructor returns without calling super constructor")
		}
	}
}

func (c *checker) simLdc(s *sim, in *bytecode.Instruction, wide bool) {
	cn := c.f.Pool.Get(in.CPIndex)
	if cn == nil {
		c.fail(jvm.ErrClassFormat, "ldc references unusable constant #%d", in.CPIndex)
		return
	}
	switch cn.Tag {
	case classfile.TagInteger:
		if wide {
			c.fail(jvm.ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(slot{kind: kInt})
	case classfile.TagFloat:
		if wide {
			c.fail(jvm.ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(slot{kind: kFloat})
	case classfile.TagString:
		if wide {
			c.fail(jvm.ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(refOf("java/lang/String"))
	case classfile.TagClass:
		if wide {
			c.fail(jvm.ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(refOf("java/lang/Class"))
	case classfile.TagLong:
		if !wide {
			c.fail(jvm.ErrVerify, "ldc of a two-slot constant")
			return
		}
		s.pushWide(slot{kind: kLong})
	case classfile.TagDouble:
		if !wide {
			c.fail(jvm.ErrVerify, "ldc of a two-slot constant")
			return
		}
		s.pushWide(slot{kind: kDouble})
	default:
		c.fail(jvm.ErrClassFormat, "ldc of unsupported constant tag %s", cn.Tag)
	}
}

func (c *checker) simField(s *sim, in *bytecode.Instruction) {
	cls, name, desc, ok := c.f.Pool.MemberRef(in.CPIndex)
	if !ok {
		c.fail(jvm.ErrClassFormat, "field instruction references invalid constant #%d", in.CPIndex)
		return
	}
	ft, err := descriptor.ParseField(desc)
	if err != nil {
		c.fail(jvm.ErrClassFormat, "field %s.%s has malformed descriptor %q", cls, name, desc)
		return
	}
	t := slotOfDesc(ft)
	switch in.Op {
	case bytecode.Getstatic:
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	case bytecode.Putstatic:
		s.popDesc(ft, fmt.Sprintf("putstatic %s.%s", cls, name))
	case bytecode.Getfield:
		s.popRef()
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	case bytecode.Putfield:
		s.popDesc(ft, fmt.Sprintf("putfield %s.%s", cls, name))
		s.popRef()
	}
}

func (c *checker) simInvoke(s *sim, in *bytecode.Instruction) {
	cls, name, desc, ok := c.f.Pool.MemberRef(in.CPIndex)
	if !ok {
		c.fail(jvm.ErrClassFormat, "invoke references invalid constant #%d", in.CPIndex)
		return
	}
	md, err := descriptor.ParseMethod(desc)
	if err != nil {
		c.fail(jvm.ErrClassFormat, "invoked method %s.%s has malformed descriptor %q", cls, name, desc)
		return
	}
	// Args are popped right-to-left.
	for i := len(md.Params) - 1; i >= 0; i-- {
		s.popDesc(md.Params[i], fmt.Sprintf("argument %d of %s.%s", i, cls, name))
	}
	if in.Op != bytecode.Invokestatic {
		recv := s.popRef()
		if c.failed() {
			return
		}
		if in.Op == bytecode.Invokespecial && name == "<init>" {
			// Initializes an uninitialized object: rewrite every copy.
			if recv.kind == kUninit {
				initTo := refOf(recv.cls)
				if recv.pc == -1 {
					initTo = refOf(c.name)
				}
				replace := func(slice []slot) {
					for i, t := range slice {
						if t.kind == kUninit && t.pc == recv.pc {
							slice[i] = initTo
						}
					}
				}
				replace(s.f.stack)
				replace(s.f.locals)
			} else if recv.kind == kRef && c.p.VerifyUninitMerge {
				// Strict dialects reject re-initialization of an already
				// initialized reference.
				c.fail(jvm.ErrVerify, "invokespecial <init> on initialized reference")
				return
			}
		} else if recv.kind == kUninit {
			c.fail(jvm.ErrVerify, "method call on uninitialized object")
			return
		}
	}
	if !md.Return.IsVoid() {
		t := slotOfDesc(md.Return)
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	}
}

func (c *checker) simInvokeDynamic(s *sim, in *bytecode.Instruction) {
	cn := c.f.Pool.Get(in.CPIndex)
	if cn == nil || cn.Tag != classfile.TagInvokeDynamic {
		c.fail(jvm.ErrClassFormat, "invokedynamic references invalid constant #%d", in.CPIndex)
		return
	}
	_, desc, ok := c.f.Pool.NameAndType(cn.Ref2)
	if !ok {
		c.fail(jvm.ErrClassFormat, "invokedynamic NameAndType is invalid")
		return
	}
	md, err := descriptor.ParseMethod(desc)
	if err != nil {
		c.fail(jvm.ErrClassFormat, "invokedynamic descriptor %q is malformed", desc)
		return
	}
	for i := len(md.Params) - 1; i >= 0; i-- {
		s.popDesc(md.Params[i], "invokedynamic argument")
	}
	if !md.Return.IsVoid() {
		t := slotOfDesc(md.Return)
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	}
}
