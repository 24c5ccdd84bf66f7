package jimple_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/jimple"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// reuseCorpus is the catalog (built or lifted), a generated seed corpus,
// and one registry mutant of each, in a fixed shuffled order so that
// large and small classes, raw-lifted and built ones, alternate through
// a reused context.
func reuseCorpus(t *testing.T) []*jimple.Class {
	t.Helper()
	var classes []*jimple.Class
	for _, e := range catalog.Entries() {
		if e.Build != nil {
			classes = append(classes, e.Build())
			continue
		}
		data, err := e.Data()
		if err != nil {
			continue
		}
		f, err := classfile.Parse(data)
		if err != nil {
			continue
		}
		if c, err := jimple.Lift(f); err == nil {
			classes = append(classes, c)
		}
	}
	classes = append(classes, seedgen.Generate(seedgen.DefaultOptions(30, 5))...)

	rng := rand.New(rand.NewSource(15))
	muts := mutation.Registry()
	for _, c := range classes { // the range sees only the unmutated classes
		for try := 0; try < 20; try++ {
			mutant := c.Clone()
			if muts[rng.Intn(len(muts))].Apply(mutant, rng) {
				classes = append(classes, mutant)
				break
			}
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	return classes
}

// TestLowerCtxReuse pins the recycling contract of LowerCtx: one context
// lowering a mixed stream produces, for every class, exactly the bytes
// (or the error) of a fresh jimple.Lower, even though each call
// overwrites the previous call's pool, members and attribute tables.
func TestLowerCtxReuse(t *testing.T) {
	classes := reuseCorpus(t)
	ctx := jimple.NewLowerCtx()
	lowered := 0
	var prev *classfile.File
	for i, c := range classes {
		fresh, ferr := jimple.Lower(c)
		f, err := ctx.Lower(c)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("class %d (%s): reused context error %v, fresh Lower error %v", i, c.Name, err, ferr)
		}
		if err != nil {
			continue
		}
		if prev != nil && f != prev {
			t.Fatalf("class %d (%s): reused context returned a new *File", i, c.Name)
		}
		prev = f
		want, werr := fresh.Bytes()
		got, gerr := f.Bytes()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("class %d (%s): reused serialise error %v, fresh %v", i, c.Name, gerr, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("class %d (%s): reused context bytes differ from a fresh Lower", i, c.Name)
		}
		lowered++
	}
	t.Logf("%d classes, %d lowered through one context", len(classes), lowered)
	if lowered < len(classes)/2 {
		t.Fatalf("only %d of %d classes lowered; the corpus no longer exercises reuse", lowered, len(classes))
	}
	t.Run("warm-allocs", testLowerCtxWarmAllocs)
}

// testLowerCtxWarmAllocs pins the saving as a count: a warm context
// lowers a seed class allocating only its assembled code arrays, the
// descriptor strings it interns and the descriptors max-stack parses
// (26 for this class), where a fresh Lower also builds the file, pool,
// members and attribute tables (74).
func testLowerCtxWarmAllocs(t *testing.T) {
	c := seedgen.Generate(seedgen.DefaultOptions(1, 3))[0]
	ctx := jimple.NewLowerCtx()
	if _, err := ctx.Lower(c); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if _, err := ctx.Lower(c); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(50, func() {
		if _, err := jimple.Lower(c); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: warm ctx.Lower %.0f allocs, fresh Lower %.0f allocs", c.Name, warm, fresh)
	const bound = 26
	if warm > bound {
		t.Errorf("warm ctx.Lower allocates %.0f times, want at most %d", warm, bound)
	}
}
