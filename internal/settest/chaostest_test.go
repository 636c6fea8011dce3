package settest

import (
	"testing"

	"csds/internal/core"
	"csds/internal/fault"
	"csds/internal/xrand"
)

// The acceptance bar of the fault plane: the same schedule replayed with
// the same seed fires the same faults the same number of times. A fixed
// single-worker op sequence makes every draw count-deterministic, so the
// tallies must match exactly — including the guard-fail draws taken
// inside GuardedScan, whose count depends only on this worker's ops when
// no other writer runs.
func TestChaosTallyDeterministic(t *testing.T) {
	run := func() map[fault.Point]uint64 {
		plan := fault.ChaosPlan(42)
		tally := fault.NewTally()
		f, err := core.NewFactory("list/lazy")
		if err != nil {
			t.Fatal(err)
		}
		s := f(core.Options{ExpectedSize: chaosSpan})
		scanner := s.(core.Scanner)
		c := core.NewCtx(0)
		c.Fault = fault.NewInjector(plan, 0, tally)
		rng := xrand.New(99)
		for i := 0; i < 2000; i++ {
			c.Fault.BetweenOps()
			k := core.Key(rng.Int63n(chaosSpan))
			switch {
			case i%16 == 7:
				scanner.Scan(c, 0, chaosSpan, func(core.Key, core.Value) bool { return true })
			case rng.Bool(0.5):
				c.Fault.OnUpdate()
				s.Put(c, k, core.Value(k))
			default:
				c.Fault.OnUpdate()
				s.Remove(c, k)
			}
		}
		return tally.Snapshot()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("schedule fired nothing")
	}
	for pt, n := range a {
		if b[pt] != n {
			t.Fatalf("point %s fired %d then %d: schedule not reproducible", pt, n, b[pt])
		}
	}
	if a[fault.GuardFail] == 0 || a[fault.OpDelay] == 0 || a[fault.CSDelay] == 0 {
		t.Fatalf("expected op.delay, cs.delay and guard.fail to fire; got %v", a)
	}
}
