package analysis

import (
	"strings"

	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// Fingerprint hashes the structural skeleton of a classfile: exactly
// the inputs the loading phase reads. Two files with equal fingerprints
// take identical paths through load — the same branch probes fire and
// the same check rejects (or none does) — so a recorded load-phase
// coverage trace can be reused for any fingerprint-equal file.
//
// The skeleton covers versions, access flags, the class/super/interface
// indices, every pool entry's tag and cross-references, and member
// flag/name/descriptor/has-Code tuples. Utf8 entries are abstracted to
// the properties load actually branches on — content-equality classes
// within the file (duplicate detection), descriptor/class-name
// validity, the "[" prefix, the handful of special names, and whether
// the string parses as a void-returning method descriptor — so mutants
// differing only in generated class names or numeric payloads share a
// fingerprint.
func Fingerprint(f *classfile.File) uint64 {
	// Inlined FNV-1a (identical to hash/fnv.New64a) so hashing a
	// skeleton allocates nothing: writing through the hash.Hash64
	// interface forced a heap allocation per appended byte.
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	u8 := func(v byte) { h = (h ^ uint64(v)) * fnvPrime64 }
	u16 := func(v uint16) {
		u8(byte(v >> 8))
		u8(byte(v))
	}

	u16(f.Minor)
	u16(f.Major)
	u16(uint16(f.AccessFlags))
	u16(f.ThisClass)
	u16(f.SuperClass)
	u16(uint16(len(f.Interfaces)))
	for _, idx := range f.Interfaces {
		u16(idx)
	}

	cp := f.Pool
	u16(uint16(cp.Count()))
	for i := 0; i < cp.Count(); i++ {
		c := cp.Get(uint16(i))
		if c == nil {
			u8(0)
			continue
		}
		u8(byte(c.Tag))
		if c.Tag == classfile.TagUtf8 {
			// First pool index with equal content: the equality classes
			// that drive duplicate-member detection.
			firstEq := i
			for j := 1; j < i; j++ {
				if o := cp.Get(uint16(j)); o != nil && o.Tag == classfile.TagUtf8 && o.Str == c.Str {
					firstEq = j
					break
				}
			}
			u16(uint16(firstEq))
			u8(utf8Bits(c.Str))
			u8(specialNameID(c.Str))
		} else {
			u16(c.Ref1)
			u16(c.Ref2)
			u8(c.Kind)
		}
	}

	member := func(m *classfile.Member) {
		u16(uint16(m.AccessFlags))
		u16(m.NameIndex)
		u16(m.DescIndex)
		if m.Code() != nil {
			u8(1)
		} else {
			u8(0)
		}
	}
	u16(uint16(len(f.Fields)))
	for _, fl := range f.Fields {
		member(fl)
	}
	u16(uint16(len(f.Methods)))
	for _, m := range f.Methods {
		member(m)
	}
	return h
}

// ContentFingerprint hashes raw classfile bytes (the same inlined
// FNV-1a as Fingerprint, zero allocations). Unlike Fingerprint, which
// abstracts a file to its load-phase skeleton, this is an exact-content
// hash: a differential outcome is a function of the full class
// semantics (code payloads included), so the difftest outcome memo
// buckets classes by this value and confirms candidates with byte
// equality — a collision can cost a redundant compare, never a reused
// wrong outcome.
func ContentFingerprint(data []byte) uint64 {
	const (
		fnvOffset64 = 14695981039346656037
		fnvPrime64  = 1099511628211
	)
	h := uint64(fnvOffset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// utf8Bits packs the validity properties the loader branches on.
func utf8Bits(s string) byte {
	var b byte
	if descriptor.ValidField(s) {
		b |= 1
	}
	if descriptor.ValidMethod(s) {
		b |= 2
	}
	if descriptor.ValidClassName(s) {
		b |= 4
	}
	if strings.HasPrefix(s, "[") {
		b |= 8
	}
	if descriptor.ValidMethodReturnsVoid(s) {
		b |= 16
	}
	return b
}

// specialNameID distinguishes the literal strings the loader compares
// names and descriptors against.
func specialNameID(s string) byte {
	switch s {
	case "java/lang/Object":
		return 1
	case "<init>":
		return 2
	case "<clinit>":
		return 3
	case "main":
		return 4
	case "()V":
		return 5
	case "([Ljava/lang/String;)V":
		return 6
	}
	return 0
}
