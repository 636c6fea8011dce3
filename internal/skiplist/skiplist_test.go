package skiplist

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
	"csds/internal/xrand"
)

func herlihy(o core.Options) core.Set  { return NewHerlihy(o) }
func pugh(o core.Options) core.Set     { return NewPugh(o) }
func lockFree(o core.Options) core.Set { return NewLockFree(o) }

// The per-algorithm arms of settest's matrix, one test per arm.
func TestHerlihy(t *testing.T)        { settest.RunAll(t, herlihy, settest.Point) }
func TestHerlihyElided(t *testing.T)  { settest.RunAll(t, herlihy, settest.Elided) }
func TestHerlihyEBR(t *testing.T)     { settest.RunAll(t, herlihy, settest.EBR) }
func TestHerlihyPoison(t *testing.T)  { settest.RunAll(t, herlihy, settest.Poison) }
func TestHerlihyChaos(t *testing.T)   { settest.RunAll(t, herlihy, settest.Chaos) }
func TestPugh(t *testing.T)           { settest.RunAll(t, pugh, settest.Point) }
func TestPughElided(t *testing.T)     { settest.RunAll(t, pugh, settest.Elided) }
func TestPughEBR(t *testing.T)        { settest.RunAll(t, pugh, settest.EBR) }
func TestPughPoison(t *testing.T)     { settest.RunAll(t, pugh, settest.Poison) }
func TestPughChaos(t *testing.T)      { settest.RunAll(t, pugh, settest.Chaos) }
func TestLockFree(t *testing.T)       { settest.RunAll(t, lockFree, settest.Point) }
func TestLockFreeElided(t *testing.T) { settest.RunAll(t, lockFree, settest.Elided) }
func TestLockFreeEBR(t *testing.T)    { settest.RunAll(t, lockFree, settest.EBR) }
func TestLockFreePoison(t *testing.T) { settest.RunAll(t, lockFree, settest.Poison) }
func TestLockFreeChaos(t *testing.T)  { settest.RunAll(t, lockFree, settest.Chaos) }

// wired names, in registry order, the skiplists with per-algorithm tests
// above.
var wired = []string{"skiplist/herlihy", "skiplist/lockfree", "skiplist/pugh"}

// TestEveryAlgorithmWired fails until every registered skiplist is named
// in wired with its per-algorithm tests, so a new algorithm cannot ship
// without the whole matrix.
func TestEveryAlgorithmWired(t *testing.T) {
	var registered []string
	for _, info := range core.ByKind("skiplist") {
		registered = append(registered, info.Name)
	}
	if !slices.Equal(registered, wired) {
		t.Fatalf("registered skiplists %v, per-algorithm tests for %v", registered, wired)
	}
}

// eachAlg runs the batteries b on every registered skiplist, one subtest
// per algorithm named without its kind prefix.
func eachAlg(t *testing.T, b settest.Battery) {
	for _, info := range core.ByKind("skiplist") {
		t.Run(strings.TrimPrefix(info.Name, "skiplist/"), func(t *testing.T) { settest.RunAll(t, info.New, b) })
	}
}

// The capability arms loop the registry.
func TestScanners(t *testing.T)       { eachAlg(t, settest.Scan) }
func TestCursors(t *testing.T)        { eachAlg(t, settest.Cursor) }
func TestCursorPageCost(t *testing.T) { eachAlg(t, settest.PageCost) }
func TestBatchers(t *testing.T)       { eachAlg(t, settest.Batch) }

func TestRegistry(t *testing.T) {
	info, ok := core.Featured("skiplist")
	if !ok || info.Name != "skiplist/herlihy" {
		t.Fatalf("featured skiplist = %+v", info)
	}
	if _, ok := core.Lookup("skiplist/pugh"); !ok {
		t.Fatal("skiplist/pugh not registered")
	}
}

func TestLevelForSize(t *testing.T) {
	cases := map[int]bool{0: true, 10: true, 1024: true, 1 << 30: true}
	for n := range cases {
		l := levelForSize(n)
		if l < 4 || l > maxMaxLevel {
			t.Fatalf("levelForSize(%d) = %d out of bounds", n, l)
		}
	}
	if levelForSize(1024) < levelForSize(16) {
		t.Fatal("levelForSize not monotone")
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	rng := xrand.New(42)
	const draws = 100000
	counts := make([]int, 33)
	for i := 0; i < draws; i++ {
		l := randomLevel(rng, 32)
		if l < 1 || l > 32 {
			t.Fatalf("randomLevel out of range: %d", l)
		}
		counts[l]++
	}
	// P(level 1) = 1/2, P(level 2) = 1/4: check coarse geometry.
	if counts[1] < draws*45/100 || counts[1] > draws*55/100 {
		t.Fatalf("P(level=1) = %f, want ~0.5", float64(counts[1])/draws)
	}
	if counts[2] < draws*20/100 || counts[2] > draws*30/100 {
		t.Fatalf("P(level=2) = %f, want ~0.25", float64(counts[2])/draws)
	}
	// Capped draw.
	for i := 0; i < 1000; i++ {
		if l := randomLevel(rng, 4); l > 4 {
			t.Fatalf("randomLevel ignored cap: %d", l)
		}
	}
}

// TestHerlihyLevel0Sorted checks the bottom-level list invariant after
// concurrent churn.
func TestHerlihyLevel0Sorted(t *testing.T) {
	s := NewHerlihy(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 31)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := s.head.next[0].Load(); n.key != core.KeyMax; n = n.next[0].Load() {
		if n.key <= prev {
			t.Fatalf("level 0 unsorted/duplicated: %d after %d", n.key, prev)
		}
		prev = n.key
	}
	// Every upper-level chain must be a subsequence of level 0 ordering.
	for lvl := 1; lvl < s.maxLevel; lvl++ {
		prev := core.KeyMin
		for n := s.head.next[lvl].Load(); n.key != core.KeyMax; n = n.next[lvl].Load() {
			if n.key <= prev {
				t.Fatalf("level %d unsorted: %d after %d", lvl, n.key, prev)
			}
			prev = n.key
		}
	}
}

// TestPughTowersEventuallyClean: after quiescing plus a full sweep of
// operations, no marked node should remain reachable at level 0.
func TestPughTowersEventuallyClean(t *testing.T) {
	s := NewPugh(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 77)
			for i := 0; i < 3000; i++ {
				k := core.Key(rng.Int63n(32))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	// A final pass of removes cleans every key's path.
	c := core.NewCtx(0)
	for k := core.Key(0); k < 32; k++ {
		s.Remove(c, k)
	}
	for n := s.head.next[0].Load(); n.key != core.KeyMax; n = n.next[0].Load() {
		if n.marked.Load() {
			t.Fatal("marked node still reachable at level 0 after cleaning sweep")
		}
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing every key", s.Len())
	}
}

func TestHerlihyMaxLevelOption(t *testing.T) {
	s := NewHerlihy(core.Options{MaxLevel: 6})
	if s.maxLevel != 6 {
		t.Fatalf("maxLevel = %d, want 6", s.maxLevel)
	}
	c := core.NewCtx(0)
	for i := 0; i < 500; i++ {
		s.Put(c, core.Key(i), core.Value(i))
	}
	if s.Len() != 500 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i := 0; i < 500; i++ {
		if v, ok := s.Get(c, core.Key(i)); !ok || v != core.Value(i) {
			t.Fatalf("Get(%d) = (%d, %v)", i, v, ok)
		}
	}
}

func TestLockFreeLevel0Sorted(t *testing.T) {
	s := NewLockFree(core.Options{ExpectedSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			rng := xrand.New(uint64(w) + 91)
			for i := 0; i < 4000; i++ {
				k := core.Key(rng.Int63n(64))
				if rng.Bool(0.5) {
					s.Put(c, k, k)
				} else {
					s.Remove(c, k)
				}
			}
		}(w)
	}
	wg.Wait()
	prev := core.KeyMin
	for n := s.head.next[0].Load().next; n.key != core.KeyMax; {
		link := n.next[0].Load()
		if !link.marked {
			if n.key <= prev {
				t.Fatalf("lock-free skiplist level 0 unsorted/dup: %d after %d", n.key, prev)
			}
			prev = n.key
		}
		n = link.next
	}
}

func TestLockFreeNeverRecordsLockStats(t *testing.T) {
	s := NewLockFree(core.Options{})
	c := core.NewCtx(0)
	for i := 0; i < 2000; i++ {
		s.Put(c, core.Key(i%64), 1)
		s.Remove(c, core.Key(i%32))
	}
	if c.Stats.LockAcqs != 0 || c.Stats.LockWaits != 0 {
		t.Fatal("lock-free algorithm touched lock statistics")
	}
}
