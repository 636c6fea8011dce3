// Native Go fuzzing for the composite-spec grammar: whatever bytes come
// in, ParseSpec must never panic, and every accepted spec must survive a
// parse -> format -> parse round trip unchanged. The corpus seeds are the
// combinator vocabulary csdsbench -list shows — every registered
// algorithm name wrapped in every registered combinator — plus the
// grammar's edge shapes (whitespace, nesting, bound-sized arguments) and
// a sample of the rejections the parser documents.
//
// The file lives in package core_test so the seed corpus can pull real
// names from the populated registries (the implementation packages
// import core, so an in-package test could not import them back).
package core_test

import (
	"fmt"
	"testing"

	"csds/internal/core"

	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

func FuzzParseSpec(f *testing.F) {
	// The live -list corpus: every leaf, and every combinator over a
	// rotating leaf.
	names := core.Names()
	for _, n := range names {
		f.Add(n)
	}
	for i, comb := range core.CombinatorNames() {
		leaf := names[i%len(names)]
		f.Add(fmt.Sprintf("%s(%d,%s)", comb, 1<<i, leaf))
		f.Add(fmt.Sprintf("%s( %d , %s )", comb, 16, leaf))
		f.Add(fmt.Sprintf("readcache(64,%s(4,%s))", comb, leaf))
	}
	// Grammar edges and documented rejections.
	for _, s := range []string{
		"", " ", "a", "sharded", "sharded(", "sharded(0,list/lazy)",
		"sharded(16777216,list/lazy)", "sharded(16777217,list/lazy)",
		"sharded(99999999999999999999,x)", "sharded(4,list/lazy) trailing",
		"sharded(4,)", "sharded(4", "(4,x)", "a(1,b(2,c(3,d)))",
		"sharded(4,list/lazy))", "sharded(-1,list/lazy)", "x(1,ö)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		spec, err := core.ParseSpec(src)
		if err != nil {
			return // rejection is fine; panics are what fuzzing hunts
		}
		// Round trip 1: format and reparse.
		text := spec.String()
		spec2, err := core.ParseSpec(text)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its rendering %q was rejected: %v", src, text, err)
		}
		// Round trip 2: the rendering must be a fixed point.
		if text2 := spec2.String(); text2 != text {
			t.Fatalf("format not stable: %q -> %q -> %q", src, text, text2)
		}
		// Structural sanity on the accepted tree.
		for s := spec; s != nil; s = s.Inner {
			if s.IsLeaf() {
				if s.Arg != 0 {
					t.Fatalf("leaf %q carries arg %d in %q", s.Name, s.Arg, src)
				}
			} else if s.Arg < 1 {
				t.Fatalf("combinator %q accepted non-positive arg %d in %q", s.Name, s.Arg, src)
			}
			if s.Name == "" {
				t.Fatalf("empty name accepted in %q", src)
			}
		}
	})
}
