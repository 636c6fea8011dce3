// Tests for the conformance suite itself: RunAll, arm by arm and whole,
// must pass on a trivially correct reference implementation (a
// mutex-guarded map), take the under-resize arm on a well-behaved
// Resizable, skip the arms a plain core.Set cannot serve, and drive a
// composite built by the layered factory.
package settest

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"

	// Populate the registries for the composite case and the batch fuzzer.
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
)

// refSet is the obviously linearizable reference: one mutex, one map,
// plus the map's keys kept sorted so a cursor page materializes only the
// page (the page-cost contract every core.Cursor must meet).
type refSet struct {
	mu   sync.Mutex
	m    map[core.Key]core.Value
	keys []core.Key // ascending; exactly the keys of m
}

func newRefSet(core.Options) core.Set {
	return &refSet{m: map[core.Key]core.Value{}}
}

// search returns the index of the first key >= k. Callers hold mu.
func (r *refSet) search(k core.Key) int {
	return sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= k })
}

func (r *refSet) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[k]
	return v, ok
}

func (r *refSet) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; ok {
		return false
	}
	r.m[k] = v
	r.keys = slices.Insert(r.keys, r.search(k), k)
	return true
}

func (r *refSet) Remove(c *core.Ctx, k core.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; !ok {
		return false
	}
	delete(r.m, k)
	i := r.search(k)
	r.keys = slices.Delete(r.keys, i, i+1)
	return true
}

func (r *refSet) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

// Scan implements core.Scanner the obviously correct way: collect the
// range under the mutex (one true atomic snapshot), release, replay in
// key order.
func (r *refSet) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	r.mu.Lock()
	var buf []core.ScanPair
	for i := r.search(lo); i < len(r.keys) && r.keys[i] < hi; i++ {
		buf = append(buf, core.ScanPair{K: r.keys[i], V: r.m[r.keys[i]]})
	}
	r.mu.Unlock()
	return core.ReplayScan(buf, f)
}

// CursorNext implements core.Cursor the obviously correct way: collect
// at most max in-range keys from pos under the mutex, then let
// core.MergePage deliver them.
func (r *refSet) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	if max < 1 {
		max = 1
	}
	r.mu.Lock()
	var buf []core.ScanPair
	i := r.search(pos)
	for ; i < len(r.keys) && r.keys[i] < hi && len(buf) < max; i++ {
		buf = append(buf, core.ScanPair{K: r.keys[i], V: r.m[r.keys[i]]})
	}
	exhausted := i == len(r.keys) || r.keys[i] >= hi
	r.mu.Unlock()
	c.RecordPagePull(len(buf))
	return core.MergePage(buf, exhausted, hi, max, f)
}

// The reference Batcher is the obviously correct one: each element is a
// point op under the mutex, applied in index order.
func (r *refSet) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	core.LoopMultiGet(c, r, keys, f)
}

func (r *refSet) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	core.LoopMultiPut(c, r, pairs, f)
}

func (r *refSet) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	core.LoopMultiRemove(c, r, keys, f)
}

// refResizable adds a no-op repartition (the map is its own single
// shard); it verifies the under-resize machinery itself — width cycling,
// final checks — against an implementation that cannot fail.
type refResizable struct {
	*refSet
	width atomic.Int64
}

func newRefResizable(o core.Options) core.Set {
	rr := &refResizable{refSet: newRefSet(o).(*refSet)}
	rr.width.Store(1)
	return rr
}

func (r *refResizable) Resize(c *core.Ctx, n int) error {
	if n < 1 {
		n = 1
	}
	r.width.Store(int64(n))
	return nil
}

func (r *refResizable) Width() int { return int(r.width.Load()) }

// setOnly hides every optional interface of the reference set: only the
// core.Set methods are promoted from the embedded interface.
type setOnly struct{ core.Set }

func newSetOnly(o core.Options) core.Set { return setOnly{newRefSet(o)} }

// TestRunAll: with no arms named, the matrix accepts a correct set,
// takes the under-resize arm on a Resizable, skips (rather than fails)
// the scan, cursor and batch arms on a set that offers none of them — an
// arm that ran would panic on its type assertion — and resolves a
// composite through the layered factory; a request naming an arm that
// would not run is rejected.
func TestRunAll(t *testing.T) {
	sharded, err := core.NewFactory("sharded(2,list/lazy)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		f    Factory
	}{
		{"ref/set", newRefSet},
		{"ref/resizable", newRefResizable},
		{"ref/setonly", newSetOnly},
		{"sharded(2,list/lazy)", Factory(sharded)},
	} {
		t.Run(tc.name, func(t *testing.T) { RunAll(t, tc.f) })
	}
	// A request that would run none of the arms it names is rejected:
	// a capability the set lacks, or an arm with no under-resize body
	// named with Resize.
	all := Point | Elided | EBR | Poison | Chaos | Scan | Cursor | PageCost | Batch | Resize
	for _, tc := range []struct {
		has, want Battery
	}{
		{Point | Chaos, Scan},
		{Point | Chaos, Resize | Point},
		{all, Resize | Chaos},
		{all, Resize | Elided},
		{all, Resize | EBR},
		{all, Resize | PageCost},
		{all, Resize | Cursor | PageCost},
	} {
		if _, _, err := arms(tc.has, tc.want); err == nil {
			t.Errorf("arms(%#x, %#x) accepted a request that runs none of its arms", tc.has, tc.want)
		}
	}
}

// Each battery on its own: the reference set passes every static arm
// and the reference Resizable every under-resize arm.
func TestBatteryOnReferenceSet(t *testing.T)        { RunAll(t, newRefSet, Point) }
func TestEBROnReferenceSet(t *testing.T)            { RunAll(t, newRefSet, EBR) }
func TestScannerBatteryOnReferenceSet(t *testing.T) { RunAll(t, newRefSet, Scan) }
func TestCursorBatteryOnReferenceSet(t *testing.T)  { RunAll(t, newRefSet, Cursor) }
func TestBatcherBatteryOnReferenceSet(t *testing.T) { RunAll(t, newRefSet, Batch) }
func TestRunResizableOnReference(t *testing.T)      { RunAll(t, newRefResizable, Resize|Point) }
func TestScannerBatteryUnderResizeOnReference(t *testing.T) {
	RunAll(t, newRefResizable, Resize|Scan)
}
func TestCursorBatteryUnderResizeOnReference(t *testing.T) {
	RunAll(t, newRefResizable, Resize|Cursor)
}
func TestBatcherBatteryUnderResizeOnReference(t *testing.T) {
	RunAll(t, newRefResizable, Resize|Batch)
}

// Each battery on a composite built by the layered factory; the chaos
// battery must reject nothing the other batteries accept.
func TestRunSpecComposite(t *testing.T)        { runSpec(t, "sharded(2,list/lazy)", Point) }
func TestRunScannerSpecComposite(t *testing.T) { runSpec(t, "sharded(2,list/lazy)", Scan) }
func TestRunCursorSpecComposite(t *testing.T)  { runSpec(t, "sharded(2,list/lazy)", Cursor) }
func TestRunBatcherSpecComposite(t *testing.T) { runSpec(t, "sharded(2,list/lazy)", Batch) }
func TestRunChaosSpecSmoke(t *testing.T)       { runSpec(t, "sharded(2,list/lazy)", Chaos) }

func runSpec(t *testing.T, spec string, b Battery) {
	f, err := core.NewFactory(spec)
	if err != nil {
		t.Fatal(err)
	}
	RunAll(t, Factory(f), b)
}

// TestScale pins the iteration scaling contract: /4 under -short, /2
// again on single-CPU hosts (where spin-heavy workers timeshare one
// core), floored at 1.
func TestScale(t *testing.T) {
	want := 4000
	if testing.Short() {
		want = 1000
	}
	if runtime.NumCPU() == 1 {
		want /= 2
	}
	if got := scale(4000); got != want {
		t.Fatalf("scale(4000) = %d, want %d (short=%v, cpus=%d)", got, want, testing.Short(), runtime.NumCPU())
	}
	if got := scale(1); got != 1 {
		t.Fatalf("scale(1) = %d, want the floor of 1", got)
	}
}
