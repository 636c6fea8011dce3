package hashtable

import (
	"slices"
	"strings"
	"testing"

	"csds/internal/core"
	"csds/internal/settest"
)

func lazy(o core.Options) core.Set    { return NewLazy(o) }
func cow(o core.Options) core.Set     { return NewCOW(o) }
func striped(o core.Options) core.Set { return NewStriped(o) }

// smallTable is the lazy table with 2 buckets, which forces heavy chain
// sharing: sorted-splice paths, scans and cursor pages over long shared
// buckets, and chains that recycle under readers mid-traversal.
func smallTable(o core.Options) core.Set {
	o.Buckets = 2
	return NewLazy(o)
}

// The per-algorithm arms of settest's matrix, one test per arm.
func TestLazy(t *testing.T)          { settest.RunAll(t, lazy, settest.Point) }
func TestLazyElided(t *testing.T)    { settest.RunAll(t, lazy, settest.Elided) }
func TestLazyEBR(t *testing.T)       { settest.RunAll(t, lazy, settest.EBR) }
func TestLazyPoison(t *testing.T)    { settest.RunAll(t, lazy, settest.Poison) }
func TestLazyChaos(t *testing.T)     { settest.RunAll(t, lazy, settest.Chaos) }
func TestCOW(t *testing.T)           { settest.RunAll(t, cow, settest.Point) }
func TestCOWElided(t *testing.T)     { settest.RunAll(t, cow, settest.Elided) }
func TestCOWEBR(t *testing.T)        { settest.RunAll(t, cow, settest.EBR) }
func TestCOWPoison(t *testing.T)     { settest.RunAll(t, cow, settest.Poison) }
func TestCOWChaos(t *testing.T)      { settest.RunAll(t, cow, settest.Chaos) }
func TestStriped(t *testing.T)       { settest.RunAll(t, striped, settest.Point) }
func TestStripedElided(t *testing.T) { settest.RunAll(t, striped, settest.Elided) }
func TestStripedEBR(t *testing.T)    { settest.RunAll(t, striped, settest.EBR) }
func TestStripedPoison(t *testing.T) { settest.RunAll(t, striped, settest.Poison) }
func TestStripedChaos(t *testing.T)  { settest.RunAll(t, striped, settest.Chaos) }

// The whole matrix on the 2-bucket table.
func TestLazySmallTable(t *testing.T)               { settest.RunAll(t, smallTable, settest.Point) }
func TestLazySmallTableElided(t *testing.T)         { settest.RunAll(t, smallTable, settest.Elided) }
func TestLazySmallTableEBR(t *testing.T)            { settest.RunAll(t, smallTable, settest.EBR) }
func TestLazySmallTablePoison(t *testing.T)         { settest.RunAll(t, smallTable, settest.Poison) }
func TestLazySmallTableChaos(t *testing.T)          { settest.RunAll(t, smallTable, settest.Chaos) }
func TestLazyScannerSmallTable(t *testing.T)        { settest.RunAll(t, smallTable, settest.Scan) }
func TestLazyCursorSmallTable(t *testing.T)         { settest.RunAll(t, smallTable, settest.Cursor) }
func TestLazyCursorPageCostSmallTable(t *testing.T) { settest.RunAll(t, smallTable, settest.PageCost) }
func TestLazyBatcherSmallTable(t *testing.T)        { settest.RunAll(t, smallTable, settest.Batch) }

// bucketed runs the batteries b on a registered bucketed table (a hash
// table whose buckets are one of the list algorithms).
func bucketed(t *testing.T, name string, b settest.Battery) {
	info, ok := core.Lookup(name)
	if !ok {
		t.Fatalf("registry is missing %s", name)
	}
	settest.RunAll(t, info.New, b)
}

func TestBucketedLockCoupling(t *testing.T) { bucketed(t, "hashtable/lockcoupling", settest.Point) }
func TestBucketedLockCouplingElided(t *testing.T) {
	bucketed(t, "hashtable/lockcoupling", settest.Elided)
}
func TestBucketedLockCouplingEBR(t *testing.T) { bucketed(t, "hashtable/lockcoupling", settest.EBR) }
func TestBucketedLockCouplingPoison(t *testing.T) {
	bucketed(t, "hashtable/lockcoupling", settest.Poison)
}
func TestBucketedPugh(t *testing.T)           { bucketed(t, "hashtable/pugh", settest.Point) }
func TestBucketedPughElided(t *testing.T)     { bucketed(t, "hashtable/pugh", settest.Elided) }
func TestBucketedPughEBR(t *testing.T)        { bucketed(t, "hashtable/pugh", settest.EBR) }
func TestBucketedPughPoison(t *testing.T)     { bucketed(t, "hashtable/pugh", settest.Poison) }
func TestBucketedHarris(t *testing.T)         { bucketed(t, "hashtable/harris", settest.Point) }
func TestBucketedHarrisElided(t *testing.T)   { bucketed(t, "hashtable/harris", settest.Elided) }
func TestBucketedHarrisEBR(t *testing.T)      { bucketed(t, "hashtable/harris", settest.EBR) }
func TestBucketedHarrisPoison(t *testing.T)   { bucketed(t, "hashtable/harris", settest.Poison) }
func TestBucketedWaitFree(t *testing.T)       { bucketed(t, "hashtable/waitfree", settest.Point) }
func TestBucketedWaitFreeElided(t *testing.T) { bucketed(t, "hashtable/waitfree", settest.Elided) }
func TestBucketedWaitFreeEBR(t *testing.T)    { bucketed(t, "hashtable/waitfree", settest.EBR) }
func TestBucketedWaitFreePoison(t *testing.T) { bucketed(t, "hashtable/waitfree", settest.Poison) }

func TestBucketedChaos(t *testing.T) {
	for _, name := range []string{
		"hashtable/lockcoupling", "hashtable/pugh", "hashtable/harris", "hashtable/waitfree",
	} {
		t.Run(name, func(t *testing.T) { bucketed(t, name, settest.Chaos) })
	}
}

// wired names, in registry order, the hashtables with per-algorithm tests
// above.
var wired = []string{"hashtable/cow", "hashtable/harris", "hashtable/lazy", "hashtable/lockcoupling", "hashtable/pugh", "hashtable/striped", "hashtable/waitfree"}

// TestEveryAlgorithmWired fails until every registered hashtable is named
// in wired with its per-algorithm tests, so a new algorithm cannot ship
// without the whole matrix.
func TestEveryAlgorithmWired(t *testing.T) {
	var registered []string
	for _, info := range core.ByKind("hashtable") {
		registered = append(registered, info.Name)
	}
	if !slices.Equal(registered, wired) {
		t.Fatalf("registered hashtables %v, per-algorithm tests for %v", registered, wired)
	}
}

// eachAlg runs the batteries b on every registered hashtable, one
// subtest per algorithm named without its kind prefix.
func eachAlg(t *testing.T, b settest.Battery) {
	for _, info := range core.ByKind("hashtable") {
		t.Run(strings.TrimPrefix(info.Name, "hashtable/"), func(t *testing.T) { settest.RunAll(t, info.New, b) })
	}
}

// The capability arms loop the registry. Hash-table scans and cursor
// pages are ascending like every other structure's (the ordered key
// index); batches apply as unsorted point operations, since hash routing
// destroys key order and amortization comes from the combinator layer
// above. TestCursorPageCost pins the O(pages·page) materialization the
// ordered key index bought over the old O(pages·table) collect-and-sort.
func TestScanners(t *testing.T)       { eachAlg(t, settest.Scan) }
func TestCursors(t *testing.T)        { eachAlg(t, settest.Cursor) }
func TestCursorPageCost(t *testing.T) { eachAlg(t, settest.PageCost) }
func TestBatchers(t *testing.T)       { eachAlg(t, settest.Batch) }

func TestBucketCount(t *testing.T) {
	cases := []struct {
		o    core.Options
		want int
	}{
		{core.Options{}, defaultBuckets},
		{core.Options{Buckets: 8}, 8},
		{core.Options{Buckets: 9}, 16},
		{core.Options{ExpectedSize: 1000}, 1024},
		{core.Options{Buckets: 1}, 2},
	}
	for _, tc := range cases {
		if got := bucketCount(tc.o); got != tc.want {
			t.Errorf("bucketCount(%+v) = %d, want %d", tc.o, got, tc.want)
		}
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequential keys must not collapse into few buckets.
	const mask = 1023
	counts := make(map[uint64]int)
	for k := core.Key(0); k < 4096; k++ {
		counts[hash(k, mask)]++
	}
	if len(counts) < 900 {
		t.Fatalf("hash used only %d of 1024 buckets for sequential keys", len(counts))
	}
}

func TestFeaturedIsLazy(t *testing.T) {
	info, ok := core.Featured("hashtable")
	if !ok || info.Name != "hashtable/lazy" {
		t.Fatalf("featured hashtable = %+v", info)
	}
}

func TestLazyNoRestartsEver(t *testing.T) {
	// §5.1: the per-bucket-lock hash table never restarts.
	s := NewLazy(core.Options{Buckets: 4})
	c := core.NewCtx(0)
	for i := 0; i < 1000; i++ {
		s.Put(c, core.Key(i), core.Value(i))
		s.Remove(c, core.Key(i/2))
	}
	if c.Stats.Restarts != 0 {
		t.Fatalf("lazy hash recorded %d restarts; per-bucket locking must never restart", c.Stats.Restarts)
	}
}
