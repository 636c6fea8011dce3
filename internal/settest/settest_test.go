// Tests for the conformance suite itself: the battery must pass on a
// trivially correct reference implementation (a mutex-guarded map), drive
// composite specs through the layered factory, and exercise the
// concurrent-resize harness against a well-behaved Resizable.
package settest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"

	// Populate the registries for the RunSpec and batch-fuzz tests.
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
)

// refSet is the obviously linearizable reference: one mutex, one map.
type refSet struct {
	mu sync.Mutex
	m  map[core.Key]core.Value
}

func newRefSet(core.Options) core.Set {
	return &refSet{m: map[core.Key]core.Value{}}
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
	return true
}

func (r *refSet) Remove(c *core.Ctx, k core.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[k]; !ok {
		return false
	}
	delete(r.m, k)
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
	for k, v := range r.m {
		if k >= lo && k < hi {
			buf = append(buf, core.ScanPair{K: k, V: v})
		}
	}
	r.mu.Unlock()
	core.SortScanPairs(buf)
	return core.ReplayScan(buf, f)
}

// CursorNext implements core.Cursor the obviously correct way: collect
// the in-range tail under the mutex, sort, deliver the first max.
func (r *refSet) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	if pos >= hi {
		return hi, true
	}
	r.mu.Lock()
	var buf []core.ScanPair
	for k, v := range r.m {
		if k >= pos && k < hi {
			buf = append(buf, core.ScanPair{K: k, V: v})
		}
	}
	r.mu.Unlock()
	return core.MergePage(buf, true, hi, max, f)
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
// shard); it verifies the RunResizable harness machinery itself — width
// cycling, final checks — against an implementation that cannot fail.
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

// TestBatteryOnReferenceSet: the full battery accepts a correct set.
func TestBatteryOnReferenceSet(t *testing.T) {
	Run(t, newRefSet)
}

// TestEBROnReferenceSet: the EBR battery tolerates structures that never
// retire (retired stays 0, reclaimed never exceeds it).
func TestEBROnReferenceSet(t *testing.T) {
	RunEBR(t, newRefSet)
}

// TestRunResizableOnReference: the resize battery drives widths and
// passes on a correct Resizable.
func TestRunResizableOnReference(t *testing.T) {
	RunResizable(t, newRefResizable)
}

// TestRunSpecComposite: RunSpec resolves composite specifications through
// the layered core factory and runs them.
func TestRunSpecComposite(t *testing.T) {
	RunSpec(t, "sharded(2,list/lazy)")
}

// TestScannerBatteryOnReferenceSet: the scan battery accepts a correct
// scanner.
func TestScannerBatteryOnReferenceSet(t *testing.T) {
	RunScanner(t, newRefSet, true)
}

// TestScannerBatteryUnderResizeOnReference: the scan-under-resize harness
// itself passes against a Resizable whose scans cannot fail.
func TestScannerBatteryUnderResizeOnReference(t *testing.T) {
	RunScannerResizable(t, newRefResizable, true)
}

// TestRunScannerSpecComposite: spec resolution reaches the scan battery.
func TestRunScannerSpecComposite(t *testing.T) {
	RunScannerSpec(t, "sharded(2,list/lazy)", true)
}

// TestCursorBatteryOnReferenceSet: the cursor battery accepts a correct
// pagination implementation.
func TestCursorBatteryOnReferenceSet(t *testing.T) {
	RunCursor(t, newRefSet)
}

// TestCursorBatteryUnderResizeOnReference: the cursor-under-resize
// harness itself passes against a Resizable whose pages cannot fail.
func TestCursorBatteryUnderResizeOnReference(t *testing.T) {
	RunCursorResizable(t, newRefResizable)
}

// TestRunCursorSpecComposite: spec resolution reaches the cursor battery.
func TestRunCursorSpecComposite(t *testing.T) {
	RunCursorSpec(t, "sharded(2,list/lazy)")
}

// TestBatcherBatteryOnReferenceSet: the batched battery accepts a
// correct Batcher.
func TestBatcherBatteryOnReferenceSet(t *testing.T) {
	RunBatcher(t, newRefSet)
}

// TestBatcherBatteryUnderResizeOnReference: the batch-under-resize
// harness itself passes against a Resizable whose batches cannot fail.
func TestBatcherBatteryUnderResizeOnReference(t *testing.T) {
	RunBatcherResizable(t, newRefResizable)
}

// TestRunBatcherSpecComposite: spec resolution reaches the batch battery.
func TestRunBatcherSpecComposite(t *testing.T) {
	RunBatcherSpec(t, "sharded(2,list/lazy)")
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
