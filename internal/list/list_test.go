package list

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/stats"
	"csds/internal/xrand"
)

func lazy(o core.Options) core.Set         { return NewLazy(o) }
func lockCoupling(o core.Options) core.Set { return NewLockCoupling(o) }
func pugh(o core.Options) core.Set         { return NewPugh(o) }
func cow(o core.Options) core.Set          { return NewCOW(o) }
func harris(o core.Options) core.Set       { return NewHarris(o) }
func waitFree(o core.Options) core.Set     { return NewWaitFree(o) }

// The per-algorithm arms of settest's matrix, one test per arm.
func TestLazy(t *testing.T)               { settest.RunAll(t, lazy, settest.Point) }
func TestLazyElided(t *testing.T)         { settest.RunAll(t, lazy, settest.Elided) }
func TestLazyEBR(t *testing.T)            { settest.RunAll(t, lazy, settest.EBR) }
func TestLazyPoison(t *testing.T)         { settest.RunAll(t, lazy, settest.Poison) }
func TestLazyChaos(t *testing.T)          { settest.RunAll(t, lazy, settest.Chaos) }
func TestLockCoupling(t *testing.T)       { settest.RunAll(t, lockCoupling, settest.Point) }
func TestLockCouplingElided(t *testing.T) { settest.RunAll(t, lockCoupling, settest.Elided) }
func TestLockCouplingEBR(t *testing.T)    { settest.RunAll(t, lockCoupling, settest.EBR) }
func TestLockCouplingPoison(t *testing.T) { settest.RunAll(t, lockCoupling, settest.Poison) }
func TestLockCouplingChaos(t *testing.T)  { settest.RunAll(t, lockCoupling, settest.Chaos) }
func TestPugh(t *testing.T)               { settest.RunAll(t, pugh, settest.Point) }
func TestPughElided(t *testing.T)         { settest.RunAll(t, pugh, settest.Elided) }
func TestPughEBR(t *testing.T)            { settest.RunAll(t, pugh, settest.EBR) }
func TestPughPoison(t *testing.T)         { settest.RunAll(t, pugh, settest.Poison) }
func TestPughChaos(t *testing.T)          { settest.RunAll(t, pugh, settest.Chaos) }
func TestCOW(t *testing.T)                { settest.RunAll(t, cow, settest.Point) }
func TestCOWElided(t *testing.T)          { settest.RunAll(t, cow, settest.Elided) }
func TestCOWEBR(t *testing.T)             { settest.RunAll(t, cow, settest.EBR) }
func TestCOWPoison(t *testing.T)          { settest.RunAll(t, cow, settest.Poison) }
func TestCOWChaos(t *testing.T)           { settest.RunAll(t, cow, settest.Chaos) }
func TestHarris(t *testing.T)             { settest.RunAll(t, harris, settest.Point) }
func TestHarrisElided(t *testing.T)       { settest.RunAll(t, harris, settest.Elided) }
func TestHarrisEBR(t *testing.T)          { settest.RunAll(t, harris, settest.EBR) }
func TestHarrisPoison(t *testing.T)       { settest.RunAll(t, harris, settest.Poison) }
func TestHarrisChaos(t *testing.T)        { settest.RunAll(t, harris, settest.Chaos) }
func TestWaitFree(t *testing.T)           { settest.RunAll(t, waitFree, settest.Point) }
func TestWaitFreeElided(t *testing.T)     { settest.RunAll(t, waitFree, settest.Elided) }
func TestWaitFreeEBR(t *testing.T)        { settest.RunAll(t, waitFree, settest.EBR) }
func TestWaitFreePoison(t *testing.T)     { settest.RunAll(t, waitFree, settest.Poison) }
func TestWaitFreeChaos(t *testing.T)      { settest.RunAll(t, waitFree, settest.Chaos) }

// elidedLazy is the lazy list with HTM elision on its update paths.
func elidedLazy(o core.Options) core.Set {
	o.ElideAttempts = 5
	return NewLazy(o)
}

// The scan and cursor batteries once more with elision on: guard
// windows inside elided critical sections must not let a scan or a page
// observe a torn insert or remove.
func TestLazyScannerElided(t *testing.T) { settest.RunAll(t, elidedLazy, settest.Scan) }
func TestLazyCursorElided(t *testing.T)  { settest.RunAll(t, elidedLazy, settest.Cursor) }

// wired names, in registry order, the lists with per-algorithm tests
// above.
var wired = []string{"list/cow", "list/harris", "list/lazy", "list/lockcoupling", "list/pugh", "list/waitfree"}

// TestEveryAlgorithmWired fails until every registered list is named
// in wired with its per-algorithm tests, so a new algorithm cannot ship
// without the whole matrix.
func TestEveryAlgorithmWired(t *testing.T) {
	var registered []string
	for _, info := range core.ByKind("list") {
		registered = append(registered, info.Name)
	}
	if !slices.Equal(registered, wired) {
		t.Fatalf("registered lists %v, per-algorithm tests for %v", registered, wired)
	}
}

// eachAlg runs the batteries b on every registered list, one subtest
// per algorithm named without its kind prefix.
func eachAlg(t *testing.T, b settest.Battery) {
	for _, info := range core.ByKind("list") {
		t.Run(strings.TrimPrefix(info.Name, "list/"), func(t *testing.T) { settest.RunAll(t, info.New, b) })
	}
}

// The capability arms loop the registry.
func TestScanners(t *testing.T)       { eachAlg(t, settest.Scan) }
func TestCursors(t *testing.T)        { eachAlg(t, settest.Cursor) }
func TestCursorPageCost(t *testing.T) { eachAlg(t, settest.PageCost) }
func TestBatchers(t *testing.T)       { eachAlg(t, settest.Batch) }

func TestRegistryEntries(t *testing.T) {
	for _, name := range wired {
		info, ok := core.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		s := info.New(core.Options{})
		if s.Len() != 0 {
			t.Fatalf("%s: fresh instance non-empty", name)
		}
	}
	feat, ok := core.Featured("list")
	if !ok || feat.Name != "list/lazy" {
		t.Fatalf("featured list = %+v, want list/lazy", feat)
	}
}

// TestLazySortedInvariant checks the physical list stays sorted and
// duplicate-free under churn.
func TestLazySortedInvariant(t *testing.T) {
	l := NewLazy(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < 5000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.next.Load(); n != nil && n.key != core.KeyMax; n = n.next.Load() {
		if n.key <= prev {
			t.Fatalf("list unsorted or duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestHarrisSortedInvariant does the same for the lock-free list.
func TestHarrisSortedInvariant(t *testing.T) {
	l := NewHarris(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 7)
			for i := 0; i < 5000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.link.Load().next; n.key != core.KeyMax; n = n.link.Load().next {
		if n.link.Load().marked {
			continue
		}
		if n.key <= prev {
			t.Fatalf("harris list unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestWaitFreeSortedInvariant: same structural check for the wait-free
// list, plus no reachable node may carry a poison mark (poisoned nodes are
// never linked).
func TestWaitFreeSortedInvariant(t *testing.T) {
	l := NewWaitFree(core.Options{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 13)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					l.Put(c, k, k)
				} else {
					l.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := l.head.link.Load().next; n.key != core.KeyMax; n = n.link.Load().next {
		link := n.link.Load()
		if link.src == poisonDesc {
			t.Fatal("poisoned node reachable in the list")
		}
		if link.marked {
			continue
		}
		if n.key <= prev {
			t.Fatalf("waitfree list unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
}

// TestLazyRestartCounting: force a validation failure and check it lands in
// the stats.
func TestLazyRestartCounting(t *testing.T) {
	// Single-threaded operations never restart.
	l := NewLazy(core.Options{})
	c := core.NewCtx(0)
	for i := 0; i < 1000; i++ {
		l.Put(c, core.Key(i), 0)
	}
	if c.Stats.RestartedOps[0] == 0 {
		t.Fatal("no operations recorded in restart bucket 0")
	}
	for i := 1; i < stats.RestartBuckets; i++ {
		if c.Stats.RestartedOps[i] != 0 {
			t.Fatalf("sequential run recorded %d ops with %d restarts", c.Stats.RestartedOps[i], i)
		}
	}
}

// TestLockCouplingWaits: under contention the lock-coupling list must
// accumulate lock waits (that is its defining pathology).
func TestLockCouplingWaits(t *testing.T) {
	l := NewLockCoupling(core.Options{})
	seed := core.NewCtx(0)
	for i := 0; i < 512; i++ {
		l.Put(seed, core.Key(i*2), 0)
	}
	var wg sync.WaitGroup
	ths := make([]stats.Thread, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Stats = &ths[w]
			rng := xrand.New(uint64(w) + 5)
			// Enough work that each worker outlives several scheduler
			// timeslices (~10ms each): a preempted worker holding a
			// coupling lock forces waits in the others even on a
			// single-CPU host, where 3000 iterations fit inside one
			// slice and would record nothing.
			for i := 0; i < 30000; i++ {
				l.Get(c, core.Key(rng.Int63n(1024)))
			}
		}(w)
	}
	wg.Wait()
	var waits uint64
	for i := range ths {
		waits += ths[i].LockWaits
	}
	if waits == 0 {
		t.Fatal("lock-coupling under contention recorded zero lock waits")
	}
}

// TestWaitFreeCtxIDGuard: out-of-range worker IDs must be rejected loudly.
func TestWaitFreeCtxIDGuard(t *testing.T) {
	l := NewWaitFree(core.Options{})
	c := core.NewCtx(0)
	c.ID = wfMaxThreads
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Ctx.ID did not panic")
		}
	}()
	l.Put(c, 1, 1)
}

func TestLazyValueFidelity(t *testing.T) {
	l := NewLazy(core.Options{})
	c := core.NewCtx(0)
	l.Put(c, 5, 500)
	l.Put(c, 3, 300)
	l.Put(c, 9, 900)
	for _, kv := range [][2]core.Key{{3, 300}, {5, 500}, {9, 900}} {
		if v, ok := l.Get(c, kv[0]); !ok || v != kv[1] {
			t.Fatalf("Get(%d) = (%d, %v)", kv[0], v, ok)
		}
	}
}
