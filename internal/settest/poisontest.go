// The poisoning battery: the memory-reclamation overhaul's conformance
// suite. With an EBR domain attached, every remove retires its node
// through a reclaim callback that poisons the mapping (core.PoisonKey /
// core.PoisonValue) and recycles the node into a package pool — so a
// structure that lets a traversal reach a node past its grace period no
// longer fails silently: the reader observes an impossible mapping and
// the battery reports it (and under -race, the reclaim's poisoning
// stores race the late reader's loads, which the race detector flags
// even when the values happen to look plausible).
//
// The checks are value-shaped: every Put writes Value(k) for key k, so
// any Get or scan that returns ok must return exactly Value(k) — a
// poisoned value, a recycled node's new mapping, or a stale snapshot all
// break that equation. The battery sizes itself through scale(), parks
// with Gosched on a cadence, and bounds every loop, so it is safe on a
// single-CPU host.

package settest

import (
	"runtime"
	"sync"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/xrand"
)

// poisonSpan is the key range of the battery: small, so removes
// constantly recycle nodes that concurrent readers are traversing.
const poisonSpan = 96

// runPoison is the poisoning workload: churn workers retire and recycle
// nodes while reader workers assert that no traversal ever observes a
// poisoned or recycled mapping. The caller checks the quiesced drain
// (checkDrained) once every record — a resize antagonist's included —
// is unregistered.
func runPoison(t *testing.T, s core.Set, dom *ebr.Domain) {
	scanner, _ := s.(core.Scanner)
	cursor, _ := s.(core.Cursor)
	iters := scale(4000)

	var wg sync.WaitGroup
	// Churners: small key range, update-heavy — nodes retire, age through
	// their grace period, and recycle while the readers below traverse.
	const churners, readers = 2, 2
	for w := 0; w < churners; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(w)
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
			rng := xrand.New(uint64(w)*0x9e3779b97f4a7c15 + 1)
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(poisonSpan))
				if rng.Uint64n(2) == 0 {
					s.Put(c, k, core.Value(k))
				} else {
					s.Remove(c, k)
				}
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	// Readers: every observation must be the one mapping a live key can
	// have. The structures open their own epoch brackets — that discipline
	// is precisely what this battery verifies.
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := core.NewCtx(churners + w)
			c.Epoch = dom.Register()
			defer c.Epoch.Unregister()
			rng := xrand.New(uint64(w)*0x51af3c1d + 7)
			check := func(where string, k core.Key, v core.Value) bool {
				if k == core.PoisonKey || v == core.PoisonValue {
					t.Errorf("%s observed a poisoned node: key %d value %d", where, k, v)
					return false
				}
				if v != core.Value(k) {
					t.Errorf("%s observed impossible mapping %d -> %d (want %d): recycled or stale node", where, k, v, core.Value(k))
					return false
				}
				return true
			}
			for i := 0; i < iters; i++ {
				k := core.Key(rng.Int63n(poisonSpan))
				switch {
				case scanner != nil && i%16 == 5:
					scanner.Scan(c, 0, poisonSpan, func(k core.Key, v core.Value) bool {
						return check("Scan", k, v)
					})
				case cursor != nil && i%16 == 11:
					pos := core.Key(0)
					for done := false; !done; {
						pos, done = cursor.CursorNext(c, pos, poisonSpan, 8, func(k core.Key, v core.Value) bool {
							return check("CursorNext", k, v)
						})
					}
				default:
					if v, ok := s.Get(c, k); ok {
						check("Get", k, v)
					}
				}
				if i&63 == 0 {
					runtime.Gosched()
				}
			}
		}(w)
	}

	wg.Wait()
}
