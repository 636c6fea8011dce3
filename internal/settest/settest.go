// Package settest is the conformance and stress suite for core.Set
// implementations. It has one entry point, RunAll, which probes the
// capabilities of the set a Factory builds and runs the batteries the
// set supports — all of them, or the arms a caller names:
//
//	arm (Battery)      runs when the set is
//	Point              always: empty/basic/ordered-fill semantics, a
//	                   sequential model, a testing/quick property, and
//	                   the concurrent shared-key, disjoint-key and
//	                   readers-during-updates bodies
//	Elided             always (elision support cannot be probed): the
//	                   point-op bodies, plus scan and cursor churn, with
//	                   ElideAttempts = 5
//	EBR                always: an attached domain never reclaims more
//	                   than it retired
//	Poison             always: recycled nodes are poisoned, readers must
//	                   never observe them, the quiesced drain is complete
//	Chaos              always: the pinned seeded fault plans
//	Scan               core.Scanner
//	Cursor, PageCost   core.Cursor
//	Batch              core.Batcher
//	Resize             core.Resizable: the concurrent bodies (shared
//	                   keys, readers, scan churn, cursor churn, batch
//	                   shared, batch anchors, poison) re-run while one
//	                   antagonist grows and shrinks the width
//
// The concurrent checks are set-theoretic: for every key, the number of
// successful inserts minus successful removes equals its final presence
// (each successful Put is an absent→present transition and each
// successful Remove a present→absent transition, so the algebra holds
// for any linearizable set regardless of interleaving), and anchor keys
// that are never updated are seen by every read that overlaps them.
//
// Structure packages run one arm per test: the capability arms (Scan,
// Cursor, PageCost, Batch) loop every algorithm the package registers
// (core.ByKind), the per-algorithm arms (Point, Elided, EBR, Poison,
// Chaos) have a test per algorithm, and each package's
// TestEveryAlgorithmWired fails until a newly registered algorithm has
// them.
// The combinator tests run every arm over one composite roster.
// RunCacheTTL is the one battery outside the matrix: it needs a builder
// that wraps an inner set with a clock, which a Factory cannot express.
package settest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/xrand"
)

// Factory builds a fresh empty set with the given options.
type Factory func(core.Options) core.Set

// A Battery names one arm of the matrix; RunAll's only parameter takes
// any union of them.
type Battery uint

const (
	Point    Battery = 1 << iota // empty/basic/ordered-fill, sequential, quick, concurrent bodies
	Elided                       // the elided arm (ElideAttempts = 5)
	EBR                          // an attached domain never reclaims more than it retired
	Poison                       // recycled nodes are never observed; the drain is complete
	Chaos                        // the pinned seeded fault plans, one subtest per seed
	Scan                         // the scan battery (core.Scanner)
	Cursor                       // the cursor battery (core.Cursor)
	PageCost                     // the O(page) page-cost contract (core.Cursor)
	Batch                        // the batch battery (core.Batcher)
	Resize                       // the under-resize arm (core.Resizable)
)

// RunAll executes the batteries the sets built by f support, one subtest
// per check (see the package doc for the matrix). Capabilities are probed
// by type assertion on one instance built with zero options.
//
// With no only, RunAll runs the whole matrix the set supports. Otherwise
// it runs the union of only, and a named capability battery the set
// lacks fails the test rather than being skipped. Resize with Point,
// Scan, Cursor, Batch or Poison runs those batteries' under-resize
// bodies in place of their static ones; Resize alone runs the whole
// under-resize arm. Elided, EBR, Chaos and PageCost have no under-resize
// body, so naming one of them with Resize fails the test.
func RunAll(t *testing.T, f Factory, only ...Battery) {
	t.Helper()
	probe := f(core.Options{})
	has := Point | Elided | EBR | Poison | Chaos
	if _, ok := probe.(core.Scanner); ok {
		has |= Scan
	}
	if _, ok := probe.(core.Cursor); ok {
		has |= Cursor | PageCost
	}
	if _, ok := probe.(core.Batcher); ok {
		has |= Batch
	}
	if _, ok := probe.(core.Resizable); ok {
		has |= Resize
	}
	var want Battery
	for _, b := range only {
		want |= b
	}
	static, resize, err := arms(has, want)
	if err != nil {
		t.Fatalf("settest: %T: %v", probe, err)
	}
	if static != 0 {
		runStatic(t, f, static, has)
	}
	if resize != 0 {
		runResize(t, f, resize)
	}
}

// arms splits the requested batteries want (zero: all of them) of a set
// that supports has into those run on fresh sets and those whose
// under-resize bodies run, rejecting requests that would run nothing the
// caller named.
func arms(has, want Battery) (static, resize Battery, err error) {
	switch {
	case want == 0:
		if has&Resize != 0 {
			resize = has
		}
		return has, resize, nil
	case want&^has != 0:
		return 0, 0, fmt.Errorf("the set lacks a capability the requested batteries need")
	case want&Resize != 0 && want&(Elided|EBR|Chaos|PageCost) != 0:
		return 0, 0, fmt.Errorf("Elided, EBR, Chaos and PageCost have no under-resize body")
	case want == Resize:
		return 0, has, nil
	case want&Resize != 0:
		return 0, want, nil
	default:
		return want, 0, nil
	}
}

// runStatic runs the batteries in b on fresh, unresized sets; has is
// what the set supports.
func runStatic(t *testing.T, f Factory, b, has Battery) {
	if b&Point != 0 {
		t.Run("EmptyBehaviour", func(t *testing.T) { testEmpty(t, f) })
		t.Run("BasicSemantics", func(t *testing.T) { testBasic(t, f) })
		t.Run("OrderedFill", func(t *testing.T) { testOrderedFill(t, f) })
		t.Run("SequentialModel", func(t *testing.T) { testSequentialModel(t, f) })
		t.Run("QuickProperty", func(t *testing.T) { testQuickProperty(t, f) })
		t.Run("ConcurrentSharedKeys", func(t *testing.T) {
			runConcurrentShared(t, f(core.Options{ExpectedSize: 64}))
		})
		t.Run("ConcurrentDisjointKeys", func(t *testing.T) { testConcurrentDisjoint(t, f) })
		t.Run("ConcurrentReadersDuringUpdates", func(t *testing.T) {
			runReadersDuringUpdates(t, f(core.Options{ExpectedSize: 128}))
		})
	}
	if b&Elided != 0 {
		// HTM elision on the update paths: guard windows inside elided
		// critical sections must behave exactly like the plain-lock
		// paths. Elision support cannot be probed, so this arm runs on
		// every set; the churn bodies join it when the set scans or
		// pages.
		elided := func(o core.Options) core.Set {
			o.ElideAttempts = 5
			return f(o)
		}
		t.Run("ElidedBasic", func(t *testing.T) { testBasic(t, elided) })
		t.Run("ElidedSequentialModel", func(t *testing.T) { testSequentialModel(t, elided) })
		t.Run("ElidedConcurrentShared", func(t *testing.T) {
			runConcurrentShared(t, elided(core.Options{ExpectedSize: 64}))
		})
		t.Run("ElidedConcurrentDisjoint", func(t *testing.T) { testConcurrentDisjoint(t, elided) })
		if has&Scan != 0 {
			t.Run("ElidedScanUnderChurn", func(t *testing.T) { runScanUnderChurn(t, elided(scanOptions())) })
		}
		if has&Cursor != 0 {
			t.Run("ElidedCursorUnderChurn", func(t *testing.T) { runCursorUnderChurn(t, elided(scanOptions())) })
		}
	}
	if b&EBR != 0 {
		t.Run("EBR", func(t *testing.T) { testEBR(t, f) })
	}
	if b&Scan != 0 {
		t.Run("ScanSequentialModel", func(t *testing.T) { testScanSequential(t, f) })
		t.Run("ScanEarlyStop", func(t *testing.T) { testScanEarlyStop(t, f) })
		t.Run("ScanBounds", func(t *testing.T) { testScanBounds(t, f) })
		t.Run("ScanUnderChurn", func(t *testing.T) { runScanUnderChurn(t, f(scanOptions())) })
		t.Run("ScanContendedValidation", func(t *testing.T) { testScanContended(t, f) })
	}
	if b&Cursor != 0 {
		t.Run("CursorSequentialModel", func(t *testing.T) { testCursorSequential(t, f) })
		t.Run("CursorPageBudget", func(t *testing.T) { testCursorPageBudget(t, f) })
		t.Run("CursorEarlyStop", func(t *testing.T) { testCursorEarlyStop(t, f) })
		t.Run("CursorTokenCodec", func(t *testing.T) { testCursorTokenCodec(t, f) })
		t.Run("CursorUnderChurn", func(t *testing.T) { runCursorUnderChurn(t, f(scanOptions())) })
	}
	if b&PageCost != 0 {
		t.Run("CursorPageCost", func(t *testing.T) { testCursorPageCost(t, f) })
	}
	if b&Batch != 0 {
		t.Run("SequentialBatchModel", func(t *testing.T) { testSequentialBatchModel(t, f) })
		t.Run("CallerOrderDelivery", func(t *testing.T) { testCallerOrderDelivery(t, f) })
		t.Run("ConcurrentBatchShared", func(t *testing.T) {
			runConcurrentBatchShared(t, f(core.Options{ExpectedSize: 64}).(batchSet))
		})
		t.Run("BatchAnchorsDuringChurn", func(t *testing.T) {
			runBatchAnchorsDuringChurn(t, f(core.Options{ExpectedSize: 128}).(batchSet))
		})
	}
	if b&Poison != 0 {
		t.Run("Poison", func(t *testing.T) {
			dom := ebr.NewDomain()
			runPoison(t, f(core.Options{Domain: dom, ExpectedSize: poisonSpan}), dom)
			checkDrained(t, dom, "")
		})
	}
	if b&Chaos != 0 {
		seeds := chaosSeeds
		if testing.Short() {
			seeds = seeds[:1]
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
				runChaos(t, f, fault.ChaosPlan(seed))
			})
		}
	}
}

// runResize runs the under-resize bodies of the batteries in b: the same
// set-algebra and anchor arguments must hold however often the partition
// is reshaped underneath the workload.
func runResize(t *testing.T, f Factory, b Battery) {
	resizing := func(name string, o core.Options, body func(t *testing.T, s core.Set)) {
		t.Run(name, func(t *testing.T) {
			s := f(o)
			underResize(t, s.(core.Resizable), nil, func() { body(t, s) })
		})
	}
	if b&Point != 0 {
		resizing("SharedKeysUnderResize", core.Options{ExpectedSize: 256}, runConcurrentShared)
		resizing("ReadersDuringResize", core.Options{ExpectedSize: 256}, runReadersDuringUpdates)
	}
	if b&Scan != 0 {
		resizing("ScanUnderResize", scanOptions(), runScanUnderChurn)
	}
	if b&Cursor != 0 {
		// A token minted under one shard map must resume seamlessly
		// under any later one.
		resizing("CursorUnderResize", scanOptions(), runCursorUnderChurn)
	}
	if b&Batch != 0 {
		resizing("BatchSharedUnderResize", core.Options{ExpectedSize: 256}, func(t *testing.T, s core.Set) {
			runConcurrentBatchShared(t, s.(batchSet))
		})
		resizing("BatchAnchorsUnderResize", core.Options{ExpectedSize: 256}, func(t *testing.T, s core.Set) {
			runBatchAnchorsDuringChurn(t, s.(batchSet))
		})
	}
	if b&Poison != 0 {
		// Every published resize eagerly retires a whole superseded
		// shard map: this proves teardown reclamation (ReclaimAll
		// sweeps) never recycles a node out from under a straggling
		// reader.
		t.Run("PoisonUnderResize", func(t *testing.T) {
			dom := ebr.NewDomain()
			s := f(core.Options{Domain: dom, ExpectedSize: poisonSpan})
			underResize(t, s.(core.Resizable), dom, func() { runPoison(t, s, dom) })
			checkDrained(t, dom, "")
		})
	}
}

// underResize runs body while one antagonist goroutine cycles the width
// of rz up and down, so both grow and shrink migrations race it. With a
// domain, the antagonist retires superseded shard maps through its own
// record, exactly like the harness's elastic controller. The antagonist
// is stopped and joined even when body fails the test.
func underResize(t *testing.T, rz core.Resizable, dom *ebr.Domain, body func()) {
	t.Helper()
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- cycleWidths(rz, dom, stop) }()
	defer func() {
		close(stop)
		if err := <-errc; err != nil {
			t.Errorf("settest: Resize failed under the battery: %v", err)
		}
		if w := rz.Width(); w < 1 {
			t.Errorf("settest: final Width = %d", w)
		}
	}()
	body()
}

// cycleWidths is the resize antagonist: it resizes rz through a fixed
// grow/shrink cycle until stop closes or a Resize fails. Its epoch
// record is unregistered before it returns, so a caller that has
// received its result can drain the domain.
func cycleWidths(rz core.Resizable, dom *ebr.Domain, stop <-chan struct{}) error {
	c := core.NewCtx(999)
	if dom != nil {
		c.Epoch = dom.Register()
		defer c.Epoch.Unregister()
	}
	widths := []int{2, 8, 1, 4, 16, 3}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return nil
		default:
		}
		if err := rz.Resize(c, widths[i%len(widths)]); err != nil {
			return err
		}
		runtime.Gosched()
	}
}

// testEBR exercises the set with an EBR domain attached: whatever the
// structure retires, reclaimed never exceeds retired.
func testEBR(t *testing.T, f Factory) {
	dom := ebr.NewDomain()
	s := f(core.Options{Domain: dom, ExpectedSize: 256})
	const workers = 4
	iters := scale(3000)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Epoch = dom.Register()
			rng := xrand.New(uint64(w) + 99)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(128))
				c.EpochEnter()
				switch rng.Uint64n(3) {
				case 0:
					s.Put(c, k, k)
				case 1:
					s.Remove(c, k)
				default:
					s.Get(c, k)
				}
				c.EpochExit()
			}
		}(w)
	}
	wg.Wait()
	retired, reclaimed := dom.Stats()
	if reclaimed > retired {
		t.Fatalf("EBR reclaimed %d > retired %d", reclaimed, retired)
	}
}

// checkDrained ages every limbo list out of its grace period — all
// records are unregistered, so every advance succeeds — and requires
// that nothing retired stays stranded. note adds context to the failure.
func checkDrained(t *testing.T, dom *ebr.Domain, note string) {
	t.Helper()
	dom.Advance()
	dom.Advance()
	dom.Advance()
	retired, reclaimed := dom.Stats()
	if reclaimed > retired {
		t.Fatalf("EBR reclaimed %d > retired %d%s", reclaimed, retired, note)
	}
	if reclaimed != retired {
		t.Fatalf("quiesced drain left %d of %d retired nodes unreclaimed%s", retired-reclaimed, retired, note)
	}
}

func ctx() *core.Ctx { return core.NewCtx(0) }

// scale shrinks stress iteration counts under -short (the CI-sized
// battery): the interleaving coverage stays, the spin-heavy volume —
// which inflates badly on few-core hosts, where ticket-lock waiters and
// whole-map-copy updaters timeshare cores — drops fourfold. On a
// single-CPU host the volume halves again: with every worker timesharing
// one core, each spin-heavy iteration costs wall time instead of running
// in parallel, and the batteries' correctness arguments are about
// interleavings, not iteration totals — relying on generous timeouts
// there is exactly the timing dependence these suites must not have.
func scale(n int) int {
	if testing.Short() {
		n /= 4
	}
	if runtime.NumCPU() == 1 {
		n /= 2
	}
	if n < 1 {
		n = 1
	}
	return n
}

func testEmpty(t *testing.T, f Factory) {
	s := f(core.Options{})
	c := ctx()
	if _, ok := s.Get(c, 1); ok {
		t.Fatal("Get on empty set found a key")
	}
	if s.Remove(c, 1) {
		t.Fatal("Remove on empty set succeeded")
	}
	if s.Len() != 0 {
		t.Fatalf("empty Len = %d", s.Len())
	}
}

func testBasic(t *testing.T, f Factory) {
	s := f(core.Options{})
	c := ctx()
	if !s.Put(c, 10, 100) {
		t.Fatal("first Put failed")
	}
	if s.Put(c, 10, 999) {
		t.Fatal("duplicate Put succeeded")
	}
	if v, ok := s.Get(c, 10); !ok || v != 100 {
		t.Fatalf("Get(10) = (%d, %v), want (100, true) — duplicate Put must not overwrite", v, ok)
	}
	if _, ok := s.Get(c, 11); ok {
		t.Fatal("Get of absent key succeeded")
	}
	if !s.Remove(c, 10) {
		t.Fatal("Remove of present key failed")
	}
	if s.Remove(c, 10) {
		t.Fatal("second Remove succeeded")
	}
	if _, ok := s.Get(c, 10); ok {
		t.Fatal("Get after Remove succeeded")
	}
	// Reinsertion after removal.
	if !s.Put(c, 10, 7) {
		t.Fatal("reinsert failed")
	}
	if v, _ := s.Get(c, 10); v != 7 {
		t.Fatalf("reinsert value = %d", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func testOrderedFill(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 512})
	c := ctx()
	// Ascending, descending and interleaved inserts stress the search
	// logic around both sentinels.
	for k := core.Key(0); k < 100; k++ {
		if !s.Put(c, k, k*2) {
			t.Fatalf("ascending Put(%d) failed", k)
		}
	}
	for k := core.Key(299); k >= 200; k-- {
		if !s.Put(c, k, k*2) {
			t.Fatalf("descending Put(%d) failed", k)
		}
	}
	for k := core.Key(0); k < 100; k++ {
		if v, ok := s.Get(c, k); !ok || v != k*2 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
		if _, ok := s.Get(c, k+100); ok {
			t.Fatalf("Get(%d) found phantom", k+100)
		}
	}
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	// Remove evens.
	for k := core.Key(0); k < 100; k += 2 {
		if !s.Remove(c, k) {
			t.Fatalf("Remove(%d) failed", k)
		}
	}
	for k := core.Key(0); k < 100; k++ {
		_, ok := s.Get(c, k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("after removal Get(%d) = %v, want %v", k, ok, want)
		}
	}
	if s.Len() != 150 {
		t.Fatalf("Len = %d, want 150", s.Len())
	}
}

func testSequentialModel(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 128})
	c := ctx()
	rng := xrand.New(20240611)
	model := map[core.Key]core.Value{}
	for i := 0; i < scale(20000); i++ {
		k := core.Key(rng.Int63n(200))
		switch rng.Uint64n(3) {
		case 0:
			want := false
			if _, in := model[k]; !in {
				model[k] = core.Value(i)
				want = true
			}
			if got := s.Put(c, k, core.Value(i)); got != want {
				t.Fatalf("step %d: Put(%d) = %v, want %v", i, k, got, want)
			}
		case 1:
			_, want := model[k]
			delete(model, k)
			if got := s.Remove(c, k); got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", i, k, got, want)
			}
		default:
			wv, want := model[k]
			gv, got := s.Get(c, k)
			if got != want || (got && gv != wv) {
				t.Fatalf("step %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, gv, got, wv, want)
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("final Len = %d, model %d", s.Len(), len(model))
	}
}

func testQuickProperty(t *testing.T, f Factory) {
	// Property: any op sequence leaves the set equal to the model.
	prop := func(ops []uint16) bool {
		s := f(core.Options{})
		c := ctx()
		model := map[core.Key]core.Value{}
		for i, raw := range ops {
			k := core.Key(raw % 64)
			switch (raw / 64) % 3 {
			case 0:
				_, in := model[k]
				if !in {
					model[k] = core.Value(i)
				}
				if s.Put(c, k, core.Value(i)) == in {
					return false
				}
			case 1:
				_, in := model[k]
				delete(model, k)
				if s.Remove(c, k) != in {
					return false
				}
			default:
				_, in := model[k]
				if _, got := s.Get(c, k); got != in {
					return false
				}
			}
		}
		if s.Len() != len(model) {
			return false
		}
		for k, v := range model {
			if gv, ok := s.Get(c, k); !ok || gv != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// runConcurrentShared hammers a small shared key space and checks the
// insert/remove algebra per key.
func runConcurrentShared(t *testing.T, s core.Set) {
	const workers = 8
	iters := scale(4000)
	const keySpace = 32
	type tally struct{ ins, rem int64 }
	tallies := make([][keySpace]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*7919 + 17)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(keySpace))
				if rng.Bool(0.5) {
					if s.Put(c, k, k) {
						tallies[w][k].ins++
					}
				} else {
					if s.Remove(c, k) {
						tallies[w][k].rem++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	c := ctx()
	total := 0
	for k := 0; k < keySpace; k++ {
		var ins, rem int64
		for w := 0; w < workers; w++ {
			ins += tallies[w][k].ins
			rem += tallies[w][k].rem
		}
		_, present := s.Get(c, core.Key(k))
		delta := ins - rem
		if delta != 0 && delta != 1 {
			t.Fatalf("key %d: successful inserts - removes = %d (linearizability violated)", k, delta)
		}
		if (delta == 1) != present {
			t.Fatalf("key %d: delta %d but present=%v", k, delta, present)
		}
		if present {
			total++
		}
	}
	if got := s.Len(); got != total {
		t.Fatalf("Len = %d, but %d keys present", got, total)
	}
}

// testConcurrentDisjoint gives each worker a private key range; at the end
// each range must exactly match the worker's private model.
func testConcurrentDisjoint(t *testing.T, f Factory) {
	s := f(core.Options{ExpectedSize: 1024})
	const workers = 8
	const rangeSize = 64
	iters := scale(4000)
	models := make([]map[core.Key]core.Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w)*104729 + 5)
			base := core.Key(w * rangeSize)
			model := map[core.Key]core.Value{}
			for i := 0; i < iters; i++ {
				k := base + core.Key(rng.Int63n(rangeSize))
				switch rng.Uint64n(3) {
				case 0:
					v := core.Value(i)
					_, in := model[k]
					if !in {
						model[k] = v
					}
					if s.Put(c, k, v) == in {
						panic("disjoint Put disagreed with model")
					}
				case 1:
					_, in := model[k]
					delete(model, k)
					if s.Remove(c, k) != in {
						panic("disjoint Remove disagreed with model")
					}
				default:
					_, in := model[k]
					if _, got := s.Get(c, k); got != in {
						panic("disjoint Get disagreed with model")
					}
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	c := ctx()
	want := 0
	for w := 0; w < workers; w++ {
		want += len(models[w])
		for k, v := range models[w] {
			if gv, ok := s.Get(c, k); !ok || gv != v {
				t.Fatalf("worker %d key %d: Get = (%d, %v), want (%d, true)", w, k, gv, ok, v)
			}
		}
	}
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

// runReadersDuringUpdates checks that concurrent readers always see a
// key that is never removed, while churn happens around it. Readers
// yield every 64 reads: a reader that never parks starves lock holders
// preempted on few-core hosts, and the updaters' ticket locks then hand
// off in a convoy whose length depends on the host, not the structure.
func runReadersDuringUpdates(t *testing.T, s core.Set) {
	c0 := ctx()
	const anchor = core.Key(500)
	if !s.Put(c0, anchor, 12345) {
		t.Fatal("anchor insert failed")
	}
	stop := make(chan struct{})
	var readers, updaters sync.WaitGroup
	var mu sync.Mutex
	bad := 0
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			c := core.NewCtx(100 + r)
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := s.Get(c, anchor); !ok || v != 12345 {
					mu.Lock()
					bad++
					mu.Unlock()
					return
				}
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(r)
	}
	for w := 0; w < 4; w++ {
		updaters.Add(1)
		go func(w int) {
			defer updaters.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 321)
			for i := 0; i < scale(5000); i++ {
				// Churn keys around (but never equal to) the anchor.
				k := core.Key(400 + rng.Int63n(200))
				if k == anchor {
					continue
				}
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	updaters.Wait()
	close(stop)
	readers.Wait()
	if bad != 0 {
		t.Fatal("a reader lost sight of the anchor key during unrelated churn")
	}
	if v, ok := s.Get(c0, anchor); !ok || v != 12345 {
		t.Fatal("anchor missing after churn")
	}
}
