package fault

import (
	"strings"
	"testing"
	"time"

	"csds/internal/htm"
)

func TestNumPointsPinned(t *testing.T) {
	if len(Points) != numPoints {
		t.Fatalf("numPoints const is %d but Points has %d entries", numPoints, len(Points))
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"seed=42;op.delay:p=0.02,min=1µs,max=50µs",
		"seed=7;conn.drop:every=500;handler.panic:every=9",
		"seed=1;guard.fail:p=0.25;ebr.stall:every=7,min=50µs,max=500µs",
		"seed=3;cs.delay:every=10,min=1µs,max=100µs,workers=1",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(String()=%q): %v", p.String(), err)
		}
		if p.String() != again.String() {
			t.Fatalf("round trip drifted: %q -> %q", p.String(), again.String())
		}
	}
	// The standard battery plan must round-trip through its own rendering.
	cp := ChaosPlan(3)
	back, err := ParsePlan(cp.String())
	if err != nil {
		t.Fatalf("ParsePlan(ChaosPlan.String()=%q): %v", cp.String(), err)
	}
	if back.String() != cp.String() {
		t.Fatalf("chaos plan drifted: %q -> %q", cp.String(), back.String())
	}
}

func TestParsePlanShorthands(t *testing.T) {
	for _, spec := range []string{"", "off", "  off  "} {
		p, err := ParsePlan(spec)
		if err != nil || p != nil {
			t.Fatalf("ParsePlan(%q) = %v, %v; want nil, nil", spec, p, err)
		}
	}
	p, err := ParsePlan("chaos:seed=9")
	if err != nil || p == nil || p.Seed != 9 {
		t.Fatalf("ParsePlan(chaos:seed=9) = %v, %v", p, err)
	}
	if p.String() != ChaosPlan(9).String() {
		t.Fatalf("chaos shorthand != ChaosPlan(9)")
	}
}

func TestParsePlanRejects(t *testing.T) {
	bad := []string{
		"seed=1",                              // no points scheduled
		"seed=1;bogus.point:p=0.5",            // unknown point
		"seed=1;op.delay:p=1.5",               // probability out of range
		"seed=1;op.delay:p=0.5,every=3",       // both triggers
		"seed=1;op.delay:min=5us,max=1us",     // inverted range
		"seed=1;op.delay:frequency=3",         // unknown key
		"seed=x;op.delay:p=0.5",               // bad seed
		"op.delay",                            // no rule at all
		"seed=1;cs.delay:every=10,workers=0",  // zero victims
		"seed=1;cs.delay:every=10,workers=-1", // negative victims
		"seed=1;cs.delay:every=10,workers=x",  // not a count
		"seed=1;cs.delay:p=0",                 // zero rate schedules nothing
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted; want error", spec)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan, err := ParsePlan("seed=11;op.delay:p=0.1,min=0s,max=0s;conn.drop:every=37;guard.fail:p=0.3")
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[Point]uint64 {
		tally := NewTally()
		for w := uint64(0); w < 4; w++ {
			in := NewInjector(plan, w, tally)
			for i := 0; i < 5000; i++ {
				in.Fire(OpDelay)
				in.Fire(ConnDrop)
				in.Fire(GuardFail)
			}
		}
		return tally.Snapshot()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no faults fired at all")
	}
	for pt, n := range a {
		if b[pt] != n {
			t.Fatalf("point %s: run1 fired %d, run2 fired %d", pt, n, b[pt])
		}
	}
	if a[ConnDrop] != 4*(5000/37) {
		t.Fatalf("every=37 over 4x5000 draws fired %d, want %d", a[ConnDrop], 4*(5000/37))
	}
}

func TestInjectorStreamsIndependent(t *testing.T) {
	// Arming an extra point must not shift another point's stream.
	base, _ := ParsePlan("seed=5;op.delay:p=0.1")
	more, _ := ParsePlan("seed=5;op.delay:p=0.1;conn.drop:p=0.5")
	ta, tb := NewTally(), NewTally()
	ia, ib := NewInjector(base, 0, ta), NewInjector(more, 0, tb)
	for i := 0; i < 3000; i++ {
		ia.Fire(OpDelay)
		ib.Fire(OpDelay)
		ib.Fire(ConnDrop)
	}
	if ta.Count(OpDelay) != tb.Count(OpDelay) {
		t.Fatalf("op.delay stream shifted: %d vs %d", ta.Count(OpDelay), tb.Count(OpDelay))
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	for _, pt := range Points {
		if in.Fire(pt) {
			t.Fatalf("nil injector fired %s", pt)
		}
		if in.Duration(pt) != 0 {
			t.Fatalf("nil injector drew a duration for %s", pt)
		}
		if in.Delay(pt) {
			t.Fatalf("nil injector delayed at %s", pt)
		}
	}
	var p *Plan
	if p.Enabled(OpDelay) || p.String() != "off" || len(p.Active()) != 0 {
		t.Fatal("nil plan misbehaved")
	}
	var tl *Tally
	if tl.Total() != 0 || tl.Count(OpDelay) != 0 {
		t.Fatal("nil tally misbehaved")
	}
}

func TestDurationBounds(t *testing.T) {
	plan, _ := ParsePlan("seed=2;op.delay:p=1,min=3us,max=9us")
	in := NewInjector(plan, 1, nil)
	for i := 0; i < 200; i++ {
		d := in.Duration(OpDelay)
		if d < 3*time.Microsecond || d > 9*time.Microsecond {
			t.Fatalf("duration %v outside [3us,9us]", d)
		}
	}
}

func TestTallyString(t *testing.T) {
	tl := NewTally()
	if tl.String() != "none" {
		t.Fatalf("empty tally = %q", tl.String())
	}
	plan, _ := ParsePlan("seed=1;shed.busy:every=1")
	in := NewInjector(plan, 0, tl)
	in.Fire(ShedBusy)
	in.Fire(ShedBusy)
	if !strings.Contains(tl.String(), "shed.busy=2") {
		t.Fatalf("tally = %q, want shed.busy=2", tl.String())
	}
}

// The §5.4 adversaries are pinned plans on cs.delay; their renderings are
// the paper's parameters.
func TestSection54Plans(t *testing.T) {
	for _, tc := range []struct {
		rule Rule
		want string
	}{
		{Figure9(1), "seed=1;cs.delay:every=10,min=1µs,max=100µs,workers=1"},
		{Multiprogramming(), "seed=1;cs.delay:p=0.0005,min=50µs,max=500µs"},
	} {
		if got := NewPlan(1).Set(CSDelay, tc.rule).String(); got != tc.want {
			t.Errorf("plan = %q, want %q", got, tc.want)
		}
	}
}

func TestSpinWaitsApproximately(t *testing.T) {
	start := time.Now()
	Spin(200 * time.Microsecond)
	if el := time.Since(start); el < 200*time.Microsecond {
		t.Fatalf("Spin returned early: %v", el)
	}
}

// cs.delay is drawn once per update: every=10 fires exactly once per ten
// OnUpdate calls, and only on the injectors its workers= rule arms.
func TestCSDelayEveryN(t *testing.T) {
	plan := NewPlan(1).Set(CSDelay, Figure9(1))
	tally := NewTally()
	victim, bystander := NewInjector(plan, 0, tally), NewInjector(plan, 1, tally)
	for i := 0; i < 100; i++ {
		victim.OnUpdate()
		bystander.OnUpdate()
		victim.pendingCS, bystander.pendingCS = 0, 0 // don't accumulate
	}
	if n := tally.Count(CSDelay); n != 10 {
		t.Fatalf("fired %d cs.delays for 100 victim updates, want 10", n)
	}
}

func TestCSDelayServedInCS(t *testing.T) {
	const d = 100 * time.Microsecond
	in := NewInjector(NewPlan(2).Set(CSDelay, Rule{Every: 1, Min: d, Max: d}), 0, nil)
	in.InCS() // nothing pending: no stall, no panic
	in.OnUpdate()
	if in.pendingCS != d {
		t.Fatalf("pendingCS = %v, want %v armed for the critical section", in.pendingCS, d)
	}
	start := time.Now()
	in.InCS()
	if time.Since(start) < d {
		t.Fatal("InCS did not serve the delay")
	}
	if in.pendingCS != 0 {
		t.Fatal("pending delay not consumed")
	}
}

// An eliding worker dooms its speculation instead of stalling with locks
// held, and serves the time between operations.
func TestCSDelayElidedArmsDoom(t *testing.T) {
	const d = 50 * time.Microsecond
	in := NewInjector(NewPlan(3).Set(CSDelay, Rule{Every: 1, Min: d, Max: d}), 0, nil)
	var doom htm.Doom
	in.Elide(&doom)
	in.OnUpdate()
	if !doom.Armed() {
		t.Fatal("doom not armed in elided mode")
	}
	if in.pendingCS != 0 {
		t.Fatal("elided mode must not stall inside the critical section")
	}
	if in.pendingOff != d {
		t.Fatalf("pendingOff = %v, want the deschedule deferred to between-ops", in.pendingOff)
	}
	start := time.Now()
	in.BetweenOps()
	if time.Since(start) < d {
		t.Fatal("BetweenOps did not serve the deferred deschedule")
	}
	if in.pendingOff != 0 {
		t.Fatal("pending deschedule not consumed")
	}
}

func TestCSDelayPerUpdateRate(t *testing.T) {
	tally := NewTally()
	in := NewInjector(NewPlan(4).Set(CSDelay, Rule{Prob: 0.25}), 0, tally)
	const n = 40000
	for i := 0; i < n; i++ {
		in.OnUpdate()
	}
	if got := float64(tally.Count(CSDelay)) / n; got < 0.22 || got > 0.28 {
		t.Fatalf("cs.delay rate %f per update, want ~0.25", got)
	}
}

// A plan that leaves cs.delay unscheduled never fires it, and the worker
// hooks stay inert, on a live injector and on a nil one.
func TestCSDelayNoPlanNoEffects(t *testing.T) {
	tally := NewTally()
	in := NewInjector(NewPlan(5).Set(GuardFail, Rule{Prob: 1}), 0, tally)
	var doom htm.Doom
	in.Elide(&doom)
	for i := 0; i < 1000; i++ {
		in.OnUpdate()
		in.InCS()
		in.BetweenOps()
	}
	if tally.Total() != 0 || doom.Armed() || in.pendingCS != 0 || in.pendingOff != 0 {
		t.Fatalf("unscheduled cs.delay had effects: fired %s", tally)
	}
	var none *Injector
	none.Elide(&doom)
	none.OnUpdate()
	none.InCS()
	none.BetweenOps()
	if doom.Armed() {
		t.Fatal("nil injector armed doom")
	}
}

// A zero switch rate cannot be scheduled at all: the plan grammar and
// Plan.Set both refuse it, so it can only ever mean "cs.delay absent".
func TestCSDelayZeroRateNeverFires(t *testing.T) {
	if _, err := ParsePlan("seed=1;cs.delay:p=0,min=50us,max=500us"); err == nil {
		t.Fatal("ParsePlan accepted a zero cs.delay rate")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Plan.Set accepted a zero cs.delay rate")
			}
		}()
		NewPlan(1).Set(CSDelay, Rule{Min: 50 * time.Microsecond, Max: 500 * time.Microsecond})
	}()
}

func TestCSDelayDegenerateSpanUsesMin(t *testing.T) {
	in := NewInjector(NewPlan(7).Set(CSDelay, Rule{Every: 1, Min: time.Microsecond, Max: time.Microsecond}), 0, nil)
	in.OnUpdate()
	if in.pendingCS != time.Microsecond {
		t.Fatalf("pendingCS = %v, want 1µs", in.pendingCS)
	}
}
