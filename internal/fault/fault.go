// Package fault is the repository's deterministic fault plane: a seedable,
// schedule-driven injector with named fault points threaded through every
// layer — structure/combinator boundaries (operation delays, in-lock
// delays, forced guard-validation failures), the EBR domain (stalled and
// abandoned records, delayed retire callbacks), and the serving stack
// (slow/torn/dropped connections, injected handler panics, forced busy
// shedding). The paper's §5.4 adversaries are pinned plans on the cs.delay
// point: Figure9 (a victim thread delayed while holding locks) and
// Multiprogramming (the Tables 2–3 context switches, which abort an
// elided critical section instead of stalling inside it).
//
// Determinism is the whole point: a Plan is a seed plus a set of per-point
// rules, an Injector derives one private RNG stream per (point, worker)
// pair from that seed, and every firing is counted in a shared Tally. Two
// runs that execute the same operation sequence under the same plan fire
// the same faults the same number of times — which is what lets the chaos
// battery (settest.RunAll's chaos arm), `csdsd -fault` and
// `csdsbench -fault` pin failures to reproducible seeds instead of
// waiting for production to find them.
//
// The plane injects faults; it never implements recovery. Recovery lives
// where it belongs: the EBR watchdog and degraded mode in internal/server,
// retry/backoff/deadline discipline in server.Client, and the GC-backed
// expulsion path in internal/ebr. DESIGN.md §8 documents the split.
package fault

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"csds/internal/htm"
	"csds/internal/xrand"
)

// Point names one injection site. Points are a closed set: ParsePlan
// rejects unknown names, so a typo'd schedule is an error, not a silent
// no-op chaos run.
type Point string

const (
	// OpDelay delays a worker between operations (outside any lock or
	// epoch bracket) — multiprogrammed descheduling, §5.4's between-ops
	// case.
	OpDelay Point = "op.delay"
	// CSDelay delays a worker inside a write critical section, while its
	// locks are held — the paper's Figure 9 adversary. It is drawn once per
	// update the worker issues (Injector.OnUpdate) and served at the
	// update's next core.Ctx.InCS; an eliding worker instead dooms the
	// speculation and serves the time between operations.
	CSDelay Point = "cs.delay"
	// GuardFail forces a ScanGuard validation failure after an otherwise
	// consistent optimistic collect, driving scans and cursor pages down
	// their retry and freeze-barrier fallback paths.
	GuardFail Point = "guard.fail"
	// RetireDelay delays a retire callback at reclaim time (the callback
	// runs late, not the retirement itself).
	RetireDelay Point = "retire.delay"
	// EBRStall runs a reclamation antagonist: a registered record that
	// enters a critical region and sits in it, holding the epoch back.
	// The rule's Min/Max bound the stall length.
	EBRStall Point = "ebr.stall"
	// EBRAbandon runs an antagonist that enters a critical region and
	// then unregisters without exiting — the panicking-worker shape that
	// Record.Unregister's force-exit must absorb.
	EBRAbandon Point = "ebr.abandon"
	// ConnSlow stalls a server-side connection read or write mid-stream.
	ConnSlow Point = "conn.slow"
	// ConnTorn writes a prefix of a response and then severs the
	// connection — a torn frame on the wire.
	ConnTorn Point = "conn.torn"
	// ConnDrop severs a connection outright.
	ConnDrop Point = "conn.drop"
	// HandlerPanic panics inside the server's request handler, exercising
	// the per-connection containment (recover + EBR unregister) path.
	HandlerPanic Point = "handler.panic"
	// ShedBusy forces the server to answer SERVER_ERROR busy as if the
	// in-flight gate were saturated.
	ShedBusy Point = "shed.busy"
)

// Points is the closed set of injection sites, in canonical order (the
// order String renders and Tally reports in).
var Points = []Point{
	OpDelay, CSDelay, GuardFail, RetireDelay,
	EBRStall, EBRAbandon,
	ConnSlow, ConnTorn, ConnDrop, HandlerPanic, ShedBusy,
}

// numPoints must track len(Points); the package test pins the equality.
const numPoints = 11

var pointIndex = func() map[Point]int {
	m := make(map[Point]int, len(Points))
	for i, p := range Points {
		m[p] = i
	}
	return m
}()

// Rule configures one point. Exactly one trigger must be set: Prob fires
// each draw with that probability, Every fires deterministically on every
// N-th draw (the reproducible-count workhorse). Min/Max bound the injected
// duration for delay-shaped points; points without a duration ignore them.
// Workers > 0 arms the point only on injectors for workers below it
// (victim threads); 0 arms it everywhere.
type Rule struct {
	Prob     float64
	Every    uint64
	Min, Max time.Duration
	Workers  uint64
}

func (r Rule) validate(pt Point) error {
	switch {
	case r.Prob < 0 || r.Prob > 1:
		return fmt.Errorf("fault: %s: probability %g outside [0,1]", pt, r.Prob)
	case r.Prob > 0 && r.Every > 0:
		return fmt.Errorf("fault: %s: p and every are mutually exclusive", pt)
	case r.Prob == 0 && r.Every == 0:
		return fmt.Errorf("fault: %s: needs p=<prob> or every=<n>", pt)
	case r.Min < 0 || r.Max < r.Min:
		return fmt.Errorf("fault: %s: bad duration range [%v,%v]", pt, r.Min, r.Max)
	}
	return nil
}

// Plan is a fault schedule: a seed plus per-point rules. Plans are
// immutable once built and safe to share between workers; a nil *Plan
// means "no faults" everywhere one is accepted.
type Plan struct {
	Seed  uint64
	rules map[Point]Rule
}

// NewPlan starts an empty schedule with the given seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{Seed: seed, rules: make(map[Point]Rule)}
}

// Set installs a rule for pt and returns the plan for chaining. It panics
// on an invalid rule or unknown point — plans are built by code or by
// ParsePlan, both of which must not produce invalid schedules.
func (p *Plan) Set(pt Point, r Rule) *Plan {
	if _, ok := pointIndex[pt]; !ok {
		panic(fmt.Sprintf("fault: unknown point %q", pt))
	}
	if err := r.validate(pt); err != nil {
		panic(err)
	}
	p.rules[pt] = r
	return p
}

// Rule returns pt's rule and whether the plan schedules it.
func (p *Plan) Rule(pt Point) (Rule, bool) {
	if p == nil {
		return Rule{}, false
	}
	r, ok := p.rules[pt]
	return r, ok
}

// Enabled reports whether the plan schedules pt.
func (p *Plan) Enabled(pt Point) bool {
	_, ok := p.Rule(pt)
	return ok
}

// Active returns the scheduled points in canonical order.
func (p *Plan) Active() []Point {
	if p == nil {
		return nil
	}
	var out []Point
	for _, pt := range Points {
		if _, ok := p.rules[pt]; ok {
			out = append(out, pt)
		}
	}
	return out
}

// String renders the plan in the spec grammar ParsePlan accepts;
// ParsePlan(p.String()) reproduces the plan exactly.
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", p.Seed)
	for _, pt := range p.Active() {
		r := p.rules[pt]
		b.WriteByte(';')
		b.WriteString(string(pt))
		b.WriteByte(':')
		if r.Every > 0 {
			fmt.Fprintf(&b, "every=%d", r.Every)
		} else {
			fmt.Fprintf(&b, "p=%s", strconv.FormatFloat(r.Prob, 'g', -1, 64))
		}
		if r.Max > 0 {
			fmt.Fprintf(&b, ",min=%v,max=%v", r.Min, r.Max)
		}
		if r.Workers > 0 {
			fmt.Fprintf(&b, ",workers=%d", r.Workers)
		}
	}
	return b.String()
}

// ParsePlan parses a fault schedule spec:
//
//	seed=42;op.delay:p=0.02,min=1us,max=50us;conn.drop:every=500
//
// Segments are ';'-separated. "seed=N" may appear anywhere (default 1).
// Every other segment is point:key=value[,key=value...] with keys p
// (probability), every (fire each N-th draw; exclusive with p), min/max
// (Go durations) and workers (arm only workers 0..N-1). The shorthands ""
// and "off" mean no plan (nil, nil); "chaos" or "chaos:seed=N" is the
// standard battery schedule (ChaosPlan). Unknown points and malformed
// rules are errors.
func ParsePlan(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	switch {
	case spec == "" || spec == "off":
		return nil, nil
	case spec == "chaos":
		return ChaosPlan(1), nil
	case strings.HasPrefix(spec, "chaos:seed="):
		seed, err := strconv.ParseUint(strings.TrimPrefix(spec, "chaos:seed="), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fault: bad chaos seed in %q: %v", spec, err)
		}
		return ChaosPlan(seed), nil
	}
	p := NewPlan(1)
	sawRule := false
	for _, seg := range strings.Split(spec, ";") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if v, ok := strings.CutPrefix(seg, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			continue
		}
		name, args, ok := strings.Cut(seg, ":")
		if !ok {
			return nil, fmt.Errorf("fault: segment %q is not point:key=value[,...]", seg)
		}
		pt := Point(strings.TrimSpace(name))
		if _, known := pointIndex[pt]; !known {
			return nil, fmt.Errorf("fault: unknown point %q (known: %v)", name, Points)
		}
		var r Rule
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("fault: %s: %q is not key=value", pt, kv)
			}
			var err error
			switch k {
			case "p", "prob":
				r.Prob, err = strconv.ParseFloat(v, 64)
			case "every":
				r.Every, err = strconv.ParseUint(v, 10, 64)
			case "min":
				r.Min, err = time.ParseDuration(v)
			case "max":
				r.Max, err = time.ParseDuration(v)
			case "workers":
				r.Workers, err = strconv.ParseUint(v, 10, 64)
				if err == nil && r.Workers == 0 {
					err = fmt.Errorf("must be at least 1 (omit it to arm every worker)")
				}
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("fault: %s: %s=%s: %v", pt, k, v, err)
			}
		}
		if r.Max == 0 {
			r.Max = r.Min
		}
		if err := r.validate(pt); err != nil {
			return nil, err
		}
		p.rules[pt] = r
		sawRule = true
	}
	if !sawRule {
		return nil, fmt.Errorf("fault: spec %q schedules no points", spec)
	}
	return p, nil
}

// ChaosPlan is the standard battery schedule: every structure-facing and
// EBR-facing point armed at rates tuned so a few thousand operations per
// worker hit each point several times without drowning the run in sleep.
// The chaos arm of settest.RunAll and the CI chaos job run exactly this
// plan under three pinned seeds.
func ChaosPlan(seed uint64) *Plan {
	return NewPlan(seed).
		Set(OpDelay, Rule{Prob: 0.02, Min: time.Microsecond, Max: 50 * time.Microsecond}).
		Set(CSDelay, Rule{Prob: 0.005, Min: time.Microsecond, Max: 20 * time.Microsecond}).
		Set(GuardFail, Rule{Prob: 0.25}).
		Set(RetireDelay, Rule{Prob: 0.02, Min: time.Microsecond, Max: 10 * time.Microsecond}).
		Set(EBRStall, Rule{Every: 7, Min: 50 * time.Microsecond, Max: 500 * time.Microsecond}).
		Set(EBRAbandon, Rule{Every: 11})
}

// Figure9 is the paper's Figure 9 victim schedule as a cs.delay rule: each
// of the first victims workers is "delayed for a random interval between
// 1000 and 100000 ns every 10 updates, while holding locks".
func Figure9(victims uint64) Rule {
	return Rule{Every: 10, Min: time.Microsecond, Max: 100 * time.Microsecond, Workers: victims}
}

// Multiprogramming is the Tables 2–3 context-switch schedule as a cs.delay
// rule on every worker: an update's critical section is hit with
// probability 0.0005 and the thread is then off CPU for 50–500µs. With
// several threads per hardware context a short critical section is hit
// rarely, but across millions of updates a few hits land inside the write
// phase, which is what Table 2 measures.
func Multiprogramming() Rule {
	return Rule{Prob: 0.0005, Min: 50 * time.Microsecond, Max: 500 * time.Microsecond}
}

// Tally counts firings per point, shared by all of a run's injectors.
// All methods are safe for concurrent use.
type Tally struct {
	counts [numPoints]atomic.Uint64
}

// NewTally returns an empty tally.
func NewTally() *Tally { return &Tally{} }

func (t *Tally) add(pt Point) {
	if t != nil {
		t.counts[pointIndex[pt]].Add(1)
	}
}

// Count returns pt's firing count.
func (t *Tally) Count(pt Point) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[pointIndex[pt]].Load()
}

// Total returns the firing count summed over all points.
func (t *Tally) Total() uint64 {
	var n uint64
	if t != nil {
		for i := range t.counts {
			n += t.counts[i].Load()
		}
	}
	return n
}

// Snapshot returns the nonzero counts keyed by point.
func (t *Tally) Snapshot() map[Point]uint64 {
	out := make(map[Point]uint64)
	if t != nil {
		for i, pt := range Points {
			if n := t.counts[i].Load(); n > 0 {
				out[pt] = n
			}
		}
	}
	return out
}

// String renders the nonzero counts in canonical order:
// "op.delay=12 conn.drop=3". Empty tally renders "none".
func (t *Tally) String() string {
	snap := t.Snapshot()
	if len(snap) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(snap))
	for pt := range snap {
		keys = append(keys, string(pt))
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, snap[Point(k)]))
	}
	return strings.Join(parts, " ")
}

// Injector is one worker's (or one connection's) view of a plan: a private
// deterministic RNG stream per scheduled point, so firing decisions depend
// only on (seed, point, worker, draw index) — never on other workers'
// progress. Not safe for concurrent use; give each goroutine its own.
// A nil *Injector never fires — every method tolerates a nil receiver, so
// fault hooks cost one predictable branch when no plan is armed.
type Injector struct {
	tally *Tally
	pts   [numPoints]injPoint

	// doom, when set by Elide, receives cs.delay firings: the speculation
	// aborts and the delay moves outside the critical section.
	doom *htm.Doom
	// pendingCS is a cs.delay to serve at the next InCS (locks held);
	// pendingOff one to serve at the next BetweenOps (elided mode).
	pendingCS, pendingOff time.Duration
}

type injPoint struct {
	armed bool
	rule  Rule
	rng   *xrand.Rng
	n     uint64 // draws since the last every-N firing
}

// NewInjector builds worker w's injector for plan. The stream for each
// point mixes the plan seed, the point's canonical index, and the worker
// index, so adding a point to a plan does not shift any other point's
// stream. Points whose rule names fewer Workers than w+1 stay unarmed.
// tally may be nil (no counting); a nil plan returns nil.
func NewInjector(plan *Plan, worker uint64, tally *Tally) *Injector {
	if plan == nil {
		return nil
	}
	in := &Injector{tally: tally}
	for i, pt := range Points {
		r, ok := plan.rules[pt]
		if !ok || (r.Workers > 0 && worker >= r.Workers) {
			continue
		}
		seed := plan.Seed
		seed ^= (uint64(i) + 1) * 0x9e3779b97f4a7c15
		seed ^= (worker + 1) * 0xbf58476d1ce4e5b9
		in.pts[i] = injPoint{armed: true, rule: r, rng: xrand.New(seed | 1)}
	}
	return in
}

// Fire draws pt's trigger and reports whether the fault fires; firings
// are counted in the shared tally.
func (in *Injector) Fire(pt Point) bool {
	if in == nil {
		return false
	}
	p := &in.pts[pointIndex[pt]]
	if !p.armed {
		return false
	}
	fired := false
	if p.rule.Every > 0 {
		p.n++
		if p.n >= p.rule.Every {
			p.n = 0
			fired = true
		}
	} else {
		fired = p.rng.Bool(p.rule.Prob)
	}
	if fired {
		in.tally.add(pt)
	}
	return fired
}

// Duration draws a duration from pt's [Min, Max] range (deterministic,
// from the same per-point stream).
func (in *Injector) Duration(pt Point) time.Duration {
	if in == nil {
		return 0
	}
	p := &in.pts[pointIndex[pt]]
	if !p.armed || p.rule.Max <= 0 {
		return 0
	}
	span := int64(p.rule.Max - p.rule.Min)
	if span <= 0 {
		return p.rule.Min
	}
	return p.rule.Min + time.Duration(p.rng.Int63n(span+1))
}

// Delay fires pt and, when it fires, busy-spins for a drawn duration.
// It reports whether the fault fired.
func (in *Injector) Delay(pt Point) bool {
	if !in.Fire(pt) {
		return false
	}
	Spin(in.Duration(pt))
	return true
}

// Elide switches cs.delay to the TSX behaviour of an eliding worker: a
// firing arms doom, so the worker's next speculation aborts, and the drawn
// time is spent at the next BetweenOps, with no lock held.
func (in *Injector) Elide(doom *htm.Doom) {
	if in != nil {
		in.doom = doom
	}
}

// OnUpdate draws cs.delay once for an update the worker is about to issue.
// A firing is served inside that update's critical section (InCS) or, when
// eliding, dooms the speculation and waits for BetweenOps. Drawing per
// update rather than per critical-section entry keeps the rate independent
// of how many updates a structure's write phase actually enters.
func (in *Injector) OnUpdate() {
	if !in.Fire(CSDelay) {
		return
	}
	d := in.Duration(CSDelay)
	if in.doom != nil {
		in.doom.Arm()
		in.pendingOff += d
		return
	}
	in.pendingCS += d
}

// InCS serves a pending cs.delay; blocking write phases call it (through
// core.Ctx.InCS) while their locks are held.
func (in *Injector) InCS() {
	if in != nil && in.pendingCS > 0 {
		serve(&in.pendingCS)
	}
}

// BetweenOps is the worker's between-operations point: it serves a
// cs.delay deferred by elision, then draws op.delay.
func (in *Injector) BetweenOps() {
	if in == nil {
		return
	}
	if in.pendingOff > 0 {
		serve(&in.pendingOff)
	}
	in.Delay(OpDelay)
}

// serve spins off a pending delay and clears it.
func serve(pending *time.Duration) {
	d := *pending
	*pending = 0
	Spin(d)
}

// Spin busy-waits for about d, yielding the processor each iteration
// (time.Sleep's floor is too coarse for microsecond delays): the goroutine
// stays runnable, and keeps holding whatever it holds, instead of parking.
func Spin(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}
