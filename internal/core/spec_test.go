package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseSpecLeaf(t *testing.T) {
	s, err := ParseSpec("list/lazy")
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsLeaf() || s.Name != "list/lazy" || s.Arg != 0 {
		t.Fatalf("leaf parse wrong: %+v", s)
	}
	if s.String() != "list/lazy" {
		t.Fatalf("String = %q", s)
	}
}

func TestParseSpecComposite(t *testing.T) {
	s, err := ParseSpec("sharded(16,list/lazy)")
	if err != nil {
		t.Fatal(err)
	}
	if s.IsLeaf() || s.Name != "sharded" || s.Arg != 16 {
		t.Fatalf("composite parse wrong: %+v", s)
	}
	if !s.Inner.IsLeaf() || s.Inner.Name != "list/lazy" {
		t.Fatalf("inner parse wrong: %+v", s.Inner)
	}
	if s.String() != "sharded(16,list/lazy)" {
		t.Fatalf("String = %q", s)
	}
}

func TestParseSpecNested(t *testing.T) {
	s, err := ParseSpec("readcache(512,sharded(4,hashtable/lazy))")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "readcache" || s.Arg != 512 {
		t.Fatalf("outer wrong: %+v", s)
	}
	if s.Inner.Name != "sharded" || s.Inner.Arg != 4 || s.Inner.Inner.Name != "hashtable/lazy" || !s.Inner.Inner.IsLeaf() {
		t.Fatalf("nesting wrong: %v", s)
	}
}

func TestParseSpecWhitespace(t *testing.T) {
	s, err := ParseSpec("  sharded( 8 , list/lazy )  ")
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "sharded(8,list/lazy)" {
		t.Fatalf("whitespace parse = %q", s)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, src := range []string{
		"",                        // empty
		"   ",                     // blank
		"sharded(",                // truncated
		"sharded(16",              // missing comma
		"sharded(16,",             // missing inner
		"sharded(16,list/lazy",    // missing close
		"sharded(16,list/lazy))",  // trailing garbage
		"sharded(0,list/lazy)",    // zero arg
		"sharded(-4,list/lazy)",   // negative arg
		"sharded(x,list/lazy)",    // non-numeric arg
		"sharded(,list/lazy)",     // empty arg
		"sharded(99999999999,x)",  // arg over bound
		"(16,list/lazy)",          // missing name
		"list/lazy extra",         // trailing word
		"sharded(16,(list/lazy))", // inner missing name
	} {
		if s, err := ParseSpec(src); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %v", src, s)
		}
	}
}

func TestSpecFactoryResolution(t *testing.T) {
	Register(Info{
		Name: "spec/leaf", Kind: "spectest", Progress: "blocking",
		New: func(o Options) Set { return &fakeSet{} },
	})
	RegisterCombinator(Combinator{
		Name: "spectimes",
		New: func(arg int, inner func(Options) Set, o Options) Set {
			// A fixture wrapper: arg inner instances, Len sums them.
			sets := make([]Set, arg)
			for i := range sets {
				sets[i] = inner(o)
			}
			return &fanoutSet{sets: sets}
		},
		ArgDesc: "copies", Desc: "test fixture",
	})

	s, err := Build("spectimes(3,spec/leaf)", Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCtx(0)
	s.Put(c, 1, 1) // fanoutSet puts into every copy
	if got := s.Len(); got != 3 {
		t.Fatalf("composite Len = %d, want 3 (one per inner copy)", got)
	}

	if _, err := Build("spectimes(2,spectimes(2,spec/leaf))", Options{}); err != nil {
		t.Fatalf("nested build failed: %v", err)
	}
}

func TestSpecFactoryUnknownNames(t *testing.T) {
	if _, err := Build("no/such/alg", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown leaf error = %v", err)
	}
	if _, err := Build("nosuchcomb(4,list/lazy)", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown combinator") {
		t.Fatalf("unknown combinator error = %v", err)
	}
	// An unknown leaf under a known combinator must also fail at
	// resolution time, before any construction happens.
	RegisterCombinator(Combinator{
		Name:    "specwrap",
		New:     func(arg int, inner func(Options) Set, o Options) Set { return inner(o) },
		ArgDesc: "n", Desc: "test fixture",
	})
	if _, err := Build("specwrap(1,no/such/alg)", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("unknown inner leaf error = %v", err)
	}
}

// TestSpecValidateHook checks per-combinator argument validation runs at
// resolution time, names the offending spec, and fires before the inner
// specification is even looked up.
func TestSpecValidateHook(t *testing.T) {
	Register(Info{
		Name: "spec/validleaf", Kind: "spectest", Progress: "blocking",
		New: func(o Options) Set { return &fakeSet{} },
	})
	RegisterCombinator(Combinator{
		Name:    "specvalidated",
		New:     func(arg int, inner func(Options) Set, o Options) Set { return inner(o) },
		ArgDesc: "n", Desc: "test fixture",
		Validate: func(arg int) error {
			if arg > 7 {
				return fmt.Errorf("specvalidated: arg %d exceeds 7", arg)
			}
			return nil
		},
	})
	_, err := Build("specvalidated(8,spec/validleaf)", Options{})
	if err == nil {
		t.Fatal("out-of-range combinator arg accepted")
	}
	if !strings.Contains(err.Error(), "exceeds 7") ||
		!strings.Contains(err.Error(), "specvalidated(8,spec/validleaf)") {
		t.Fatalf("validation error not actionable: %v", err)
	}
	if _, err := Build("specvalidated(7,spec/validleaf)", Options{}); err != nil {
		t.Fatalf("in-range arg rejected: %v", err)
	}
	// Validation precedes inner resolution: the arg error wins even when
	// the inner name is bogus.
	if _, err := Build("specvalidated(9,no/such/alg)", Options{}); err == nil ||
		!strings.Contains(err.Error(), "exceeds 7") {
		t.Fatalf("validation did not run before inner resolution: %v", err)
	}
}

func TestRegisterCombinatorValidation(t *testing.T) {
	for _, c := range []Combinator{
		{Name: "", New: func(int, func(Options) Set, Options) Set { return nil }},
		{Name: "specnilnew"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("invalid RegisterCombinator(%+v) did not panic", c)
				}
			}()
			RegisterCombinator(c)
		}()
	}
	RegisterCombinator(Combinator{
		Name:    "specdup",
		New:     func(arg int, inner func(Options) Set, o Options) Set { return inner(o) },
		ArgDesc: "n", Desc: "test fixture",
	})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate RegisterCombinator did not panic")
		}
	}()
	RegisterCombinator(Combinator{
		Name: "specdup",
		New:  func(arg int, inner func(Options) Set, o Options) Set { return inner(o) },
	})
}

func TestCombinatorNamesSorted(t *testing.T) {
	RegisterCombinator(Combinator{
		Name:    "specz",
		New:     func(arg int, inner func(Options) Set, o Options) Set { return inner(o) },
		ArgDesc: "n", Desc: "test fixture",
	})
	names := CombinatorNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("CombinatorNames unsorted: %v", names)
		}
	}
	found := false
	for _, c := range Combinators() {
		if c.Name == "specz" {
			found = true
		}
	}
	if !found {
		t.Fatal("Combinators() missing registered combinator")
	}
	if _, ok := LookupCombinator("specz"); !ok {
		t.Fatal("LookupCombinator failed")
	}
	if _, ok := LookupCombinator("spec-absent"); ok {
		t.Fatal("phantom combinator lookup succeeded")
	}
}

// fanoutSet is a registry fixture that fans every operation out to all
// inner copies (not a real set; exercises factory wiring only).
type fanoutSet struct{ sets []Set }

func (f *fanoutSet) Get(c *Ctx, k Key) (Value, bool) { return f.sets[0].Get(c, k) }
func (f *fanoutSet) Put(c *Ctx, k Key, v Value) bool {
	ok := false
	for _, s := range f.sets {
		ok = s.Put(c, k, v)
	}
	return ok
}
func (f *fanoutSet) Remove(c *Ctx, k Key) bool {
	ok := false
	for _, s := range f.sets {
		ok = s.Remove(c, k)
	}
	return ok
}
func (f *fanoutSet) Len() int {
	n := 0
	for _, s := range f.sets {
		n += s.Len()
	}
	return n
}
