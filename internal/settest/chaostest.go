// The chaos battery: every structure and combinator under a seeded fault
// schedule (internal/fault). Where the poison battery proves reclamation
// correct under honest concurrency, this battery proves it — and
// linearizability — under injected hostility: workers that stall between
// operations and inside critical sections, scans whose guard validations
// are forcibly failed, retire callbacks that run late, and a reclamation
// antagonist that stalls inside epoch brackets and abandons records
// without exiting them (Fraser's stalled-reader failure mode, TR 579 §4).
//
// The assertions are the repository's standing invariants, none relaxed:
// per-key insert/remove algebra (linearizability), the poison equation
// (no traversal observes a poisoned or recycled mapping), and a quiesced
// drain ending at reclaimed == retired. A fault plane that broke any of
// them would be injecting unsoundness, not adversity.

package settest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/xrand"
)

// chaosSpan is the battery's key range: small enough that removes recycle
// nodes under traversal, large enough for scans to cover real pages.
const chaosSpan = 96

// chaosSeeds are the pinned seeds of the standard battery — the CI chaos
// job runs exactly these (one under -short). Three seeds, three
// different interleaving pressures; a failure reproduces with the seed
// printed in the subtest name.
var chaosSeeds = []uint64{0xC0FFEE, 0xBADC0DE, 0x5EED}

func runChaos(t *testing.T, f Factory, plan *fault.Plan) {
	t.Helper()
	dom := ebr.NewDomain()
	s := f(core.Options{Domain: dom, ExpectedSize: chaosSpan})
	scanner, _ := s.(core.Scanner)
	cursor, _ := s.(core.Cursor)
	tally := fault.NewTally()
	iters := scale(3000)

	const workers = 4
	type keyTally struct{ ins, rem int64 }
	ledgers := make([][chaosSpan]keyTally, workers)

	var wg, awg sync.WaitGroup
	stop := make(chan struct{})

	// The reclamation antagonist: stalls inside epoch brackets (holding
	// the global epoch back while everyone else retires into limbo) and
	// abandons records active-without-exit (Unregister's force-exit must
	// absorb them). It runs throwaway records so the main workers' own
	// reclamation discipline stays untouched. The workload decides the
	// duration: the antagonist runs until the workers finish (its own
	// WaitGroup — it stops on the channel the workers' wait closes).
	antIn := fault.NewInjector(plan, uint64(workers), tally)
	if plan.Enabled(fault.EBRStall) || plan.Enabled(fault.EBRAbandon) {
		awg.Add(1)
		go func() {
			defer awg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if antIn.Fire(fault.EBRStall) {
					r := dom.Register()
					r.Enter()
					fault.Spin(antIn.Duration(fault.EBRStall))
					r.Exit()
					r.Unregister()
				}
				if antIn.Fire(fault.EBRAbandon) {
					r := dom.Register()
					r.Enter()
					// No Exit: the panicking-worker shape.
					r.Unregister()
				}
				runtime.Gosched()
			}
		}()
	}

	var errMu sync.Mutex
	var firstErr error
	fail := func(format string, args ...any) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		errMu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inj := fault.NewInjector(plan, uint64(w), tally)
			c := core.NewCtx(w)
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
			c.Fault = inj
			rng := xrand.New(uint64(w)*0x9e3779b97f4a7c15 + 3)
			check := func(where string, k core.Key, v core.Value) bool {
				if k == core.PoisonKey || v == core.PoisonValue {
					fail("%s observed a poisoned node: key %d value %d", where, k, v)
					return false
				}
				if v != core.Value(k) {
					fail("%s observed impossible mapping %d -> %d (want %d)", where, k, v, core.Value(k))
					return false
				}
				return true
			}
			for i := 0; i < iters; i++ {
				inj.BetweenOps()
				k := core.Key(rng.Int63n(chaosSpan))
				switch {
				case scanner != nil && i%32 == 9:
					scanner.Scan(c, 0, chaosSpan, func(k core.Key, v core.Value) bool {
						return check("Scan", k, v)
					})
				case cursor != nil && i%32 == 21:
					pos := core.Key(0)
					for done := false; !done; {
						pos, done = cursor.CursorNext(c, pos, chaosSpan, 8, func(k core.Key, v core.Value) bool {
							return check("CursorNext", k, v)
						})
					}
				case rng.Bool(0.3):
					if v, ok := s.Get(c, k); ok {
						check("Get", k, v)
					}
				case rng.Bool(0.5):
					inj.OnUpdate()
					if s.Put(c, k, core.Value(k)) {
						ledgers[w][k].ins++
					}
				default:
					inj.OnUpdate()
					if s.Remove(c, k) {
						ledgers[w][k].rem++
					}
				}
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	wg.Wait()
	close(stop)
	awg.Wait()
	if firstErr != nil {
		t.Fatalf("settest: chaos battery (plan %s): %v", plan, firstErr)
	}

	// Linearizability ledger: successful inserts minus successful removes
	// per key must be 0 or 1 and must match final presence.
	c := ctx()
	for k := 0; k < chaosSpan; k++ {
		var ins, rem int64
		for w := 0; w < workers; w++ {
			ins += ledgers[w][k].ins
			rem += ledgers[w][k].rem
		}
		_, present := s.Get(c, core.Key(k))
		delta := ins - rem
		if delta != 0 && delta != 1 {
			t.Fatalf("key %d: successful inserts - removes = %d (linearizability violated under plan %s)", k, delta, plan)
		}
		if (delta == 1) != present {
			t.Fatalf("key %d: delta %d but present=%v (plan %s)", k, delta, present, plan)
		}
	}

	// A chaos run that injected nothing proves nothing.
	if tally.Total() == 0 {
		t.Fatalf("chaos plan %s fired no faults over %d ops", plan, workers*iters)
	}
	// cs.delay is drawn once per update the workers issue, so a plan that
	// schedules it must have served some inside critical sections.
	if plan.Enabled(fault.CSDelay) && tally.Count(fault.CSDelay) == 0 {
		t.Fatalf("chaos plan %s scheduled %s but it never fired (fired: %s)", plan, fault.CSDelay, tally)
	}

	// Quiesced drain: the injected stalls, abandons, and delayed retire
	// callbacks must not strand a single node.
	checkDrained(t, dom, fmt.Sprintf(" (plan %s, fired: %s)", plan, tally))
}
