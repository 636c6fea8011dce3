// Composite layer of the algorithm factory: a small specification grammar
// that composes registered algorithms with structure combinators —
// wrappers that are themselves linearizable Sets built over inner
// instances. The grammar is
//
//	spec       := name | combinator '(' arg ',' spec ')'
//	name       := [A-Za-z0-9_./-]+            (a registry key, e.g. "list/lazy")
//	combinator := [A-Za-z0-9_./-]+            (a combinator key, e.g. "sharded")
//	arg        := positive decimal integer    (shard/stripe count, cache capacity)
//
// so "sharded(16,list/lazy)" is a 16-way hash-sharded lazy list and
// "readcache(1024,sharded(4,bst/tk))" a cached 4-way-sharded BST.
// Combinators register themselves exactly like algorithms do (see
// csds/internal/combinator); core only defines the grammar and the
// resolution layering, keeping the dependency arrow pointing one way.
package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Combinator describes a registered structure combinator. Its New wraps a
// resolved inner constructor; arg is the grammar's integer parameter,
// whose meaning (shard count, stripe count, cache capacity) is the
// combinator's own.
type Combinator struct {
	// Name is the combinator key, e.g. "sharded".
	Name string
	// New builds the wrapper over inner instances. It must return a
	// linearizable Set whenever inner constructs linearizable Sets.
	New func(arg int, inner func(Options) Set, o Options) Set
	// ArgDesc documents the integer parameter ("shards", "capacity").
	ArgDesc string
	// Desc is a one-line description for listings.
	Desc string
	// Validate, when non-nil, checks the integer parameter at spec
	// resolution time, before anything is constructed. It returns an
	// actionable error for arguments the combinator would otherwise have
	// to clamp or reject silently (the parser only guarantees
	// 1 <= arg <= 1<<24).
	Validate func(arg int) error
}

var (
	combMu      sync.RWMutex
	combinators = map[string]Combinator{}
)

// RegisterCombinator adds a combinator; called from the combinator
// package's init. Duplicates panic, mirroring Register.
func RegisterCombinator(c Combinator) {
	if c.Name == "" || c.New == nil {
		panic("core: RegisterCombinator with empty name or nil constructor")
	}
	combMu.Lock()
	defer combMu.Unlock()
	if _, dup := combinators[c.Name]; dup {
		panic(fmt.Sprintf("core: duplicate combinator %q", c.Name))
	}
	combinators[c.Name] = c
}

// LookupCombinator finds a combinator by name.
func LookupCombinator(name string) (Combinator, bool) {
	combMu.RLock()
	defer combMu.RUnlock()
	c, ok := combinators[name]
	return c, ok
}

// CombinatorNames returns all registered combinator names, sorted.
func CombinatorNames() []string {
	combMu.RLock()
	defer combMu.RUnlock()
	out := make([]string, 0, len(combinators))
	for n := range combinators {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Combinators returns all registered combinators, sorted by name.
func Combinators() []Combinator {
	combMu.RLock()
	defer combMu.RUnlock()
	out := make([]Combinator, 0, len(combinators))
	for _, c := range combinators {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Spec is a parsed algorithm specification: either a leaf naming a
// registered algorithm (Inner == nil) or a combinator application.
type Spec struct {
	// Name is the algorithm name of a leaf, or the combinator name.
	Name string
	// Arg is the combinator's integer parameter (leaf: 0).
	Arg int
	// Inner is the wrapped specification (leaf: nil).
	Inner *Spec
}

// IsLeaf reports whether the spec is a plain algorithm name.
func (s *Spec) IsLeaf() bool { return s.Inner == nil }

// String renders the spec back in grammar form.
func (s *Spec) String() string {
	if s.IsLeaf() {
		return s.Name
	}
	return fmt.Sprintf("%s(%d,%s)", s.Name, s.Arg, s.Inner)
}

// maxSpecArg bounds combinator parameters at parse time; it exists to turn
// typos like sharded(1e9,...) into errors instead of huge allocations.
const maxSpecArg = 1 << 24

// ParseSpec parses a specification string. Whitespace around tokens is
// ignored so "sharded( 16, list/lazy )" is accepted.
func ParseSpec(src string) (*Spec, error) {
	p := &specParser{src: src}
	s, err := p.spec()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errf("trailing input %q", p.src[p.pos:])
	}
	return s, nil
}

type specParser struct {
	src string
	pos int
}

func (p *specParser) errf(format string, args ...any) error {
	return fmt.Errorf("core: spec %q: offset %d: %s", p.src, p.pos, fmt.Sprintf(format, args...))
}

func (p *specParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func isNameByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
		b >= '0' && b <= '9' || b == '_' || b == '.' || b == '/' || b == '-'
}

// name consumes a maximal run of name bytes.
func (p *specParser) name() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", p.errf("expected an algorithm or combinator name")
	}
	return p.src[start:p.pos], nil
}

// expect consumes one literal byte (after optional space).
func (p *specParser) expect(b byte) error {
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != b {
		return p.errf("expected %q", string(b))
	}
	p.pos++
	return nil
}

// arg consumes the combinator's positive integer parameter.
func (p *specParser) arg() (int, error) {
	p.skipSpace()
	start := p.pos
	n := 0
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		n = n*10 + int(p.src[p.pos]-'0')
		if n > maxSpecArg {
			return 0, p.errf("argument exceeds %d", maxSpecArg)
		}
		p.pos++
	}
	if p.pos == start {
		return 0, p.errf("expected a positive integer argument")
	}
	if n == 0 {
		return 0, p.errf("argument must be positive")
	}
	return n, nil
}

// spec parses one (possibly nested) specification.
func (p *specParser) spec() (*Spec, error) {
	n, err := p.name()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos >= len(p.src) || p.src[p.pos] != '(' {
		return &Spec{Name: n}, nil
	}
	p.pos++ // consume '('
	arg, err := p.arg()
	if err != nil {
		return nil, err
	}
	if err := p.expect(','); err != nil {
		return nil, err
	}
	inner, err := p.spec()
	if err != nil {
		return nil, err
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return &Spec{Name: n, Arg: arg, Inner: inner}, nil
}

// NewFactory resolves a specification string into a ready constructor: the
// leaf is looked up in the algorithm registry, each enclosing combinator
// in the combinator registry, and the layers are composed outside-in. All
// name resolution happens here, so the returned constructor cannot fail.
func NewFactory(spec string) (func(Options) Set, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Factory()
}

// Factory resolves a parsed specification (see NewFactory).
func (s *Spec) Factory() (func(Options) Set, error) {
	if s.IsLeaf() {
		info, ok := Lookup(s.Name)
		if !ok {
			return nil, fmt.Errorf("core: unknown algorithm %q (registered: %s)",
				s.Name, strings.Join(Names(), ", "))
		}
		return info.New, nil
	}
	comb, ok := LookupCombinator(s.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown combinator %q (registered: %s; grammar: comb(N,spec))",
			s.Name, strings.Join(CombinatorNames(), ", "))
	}
	if comb.Validate != nil {
		if err := comb.Validate(s.Arg); err != nil {
			return nil, fmt.Errorf("core: spec %q: %w", s, err)
		}
	}
	inner, err := s.Inner.Factory()
	if err != nil {
		return nil, err
	}
	arg := s.Arg
	return func(o Options) Set { return comb.New(arg, inner, o) }, nil
}

// Build parses, resolves and constructs a specification in one call.
func Build(spec string, o Options) (Set, error) {
	f, err := NewFactory(spec)
	if err != nil {
		return nil, err
	}
	return f(o), nil
}
