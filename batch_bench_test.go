// Microbenchmarks for the batched-operation paths: the same multi-key
// work issued as one Multi* call versus a loop of point operations.
// BenchmarkBatchVsLooped reports keys/op-normalized timings so the
// batch/looped pairs compare directly: on a plain ordered list the
// batch amortizes the head-to-key traversal across sorted keys, on
// sharded(32) it additionally crosses each shard boundary once per
// batch instead of once per key, on sharded(32,hashtable/lazy) — O(1)
// buckets, nothing to amortize but the crossing — the rows locate the
// batch size where grouping starts to pay (MultiGet loops point gets up
// to one key per shard), and on a deliberately contended
// single-shard composite the batch path's flat-combining publication
// list folds many threads' batches into one lock acquisition — the
// looped rows are the same contended work without that path, and the
// combinefrac metric shows when it engaged.
package csds

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"csds/internal/core"
	"csds/internal/xrand"
)

// batchBenchSet builds a spec pre-filled with half the keys of a 2*size
// key space (the harness's steady-state convention).
func batchBenchSet(b *testing.B, spec string, size int) core.Set {
	b.Helper()
	s, err := core.Build(spec, core.Options{ExpectedSize: size})
	if err != nil {
		b.Fatal(err)
	}
	c := core.NewCtx(0)
	r := xrand.New(1)
	for s.Len() < size {
		s.Put(c, core.Key(r.Int63n(int64(2*size))), 1)
	}
	return s
}

// runBatchedOps drives one goroutine's measured loop: draws batches of
// n keys from the 2*size space (a read-mostly mix: get, then put+remove
// every fourth batch) and applies them batched or looped.
func runBatchedOps(c *core.Ctx, s core.Set, rng *xrand.Rng, size, n, rounds int, batched bool) {
	bt := core.AsBatcher(s)
	keys := make([]core.Key, n)
	pairs := make([]core.KV, n)
	sink := 0
	for r := 0; r < rounds; r++ {
		for i := range keys {
			keys[i] = core.Key(rng.Int63n(int64(2 * size)))
			pairs[i] = core.KV{K: keys[i], V: 1}
		}
		onGet := func(i int, v core.Value, ok bool) {
			if ok {
				sink++
			}
		}
		onBool := func(i int, ok bool) {
			if ok {
				sink++
			}
		}
		if batched {
			switch r % 4 {
			case 1:
				bt.MultiPut(c, pairs, onBool)
			case 3:
				bt.MultiRemove(c, keys, onBool)
			default:
				bt.MultiGet(c, keys, onGet)
			}
		} else {
			switch r % 4 {
			case 1:
				core.LoopMultiPut(c, s, pairs, onBool)
			case 3:
				core.LoopMultiRemove(c, s, keys, onBool)
			default:
				core.LoopMultiGet(c, s, keys, onGet)
			}
		}
	}
	_ = sink
}

// BenchmarkBatchVsLooped: each op is ONE KEY (b.N keys total split into
// batches), so ns/op compares directly between the batch and looped
// rows of a cell. The uncontended cells run single-threaded — pure
// traversal/boundary amortization; the sharded(1) cells run GOMAXPROCS
// goroutines against one shard — synchronization amortization, where
// the batch rows may ride the flat-combining list (combinefrac) and the
// looped rows never do.
func BenchmarkBatchVsLooped(b *testing.B) {
	const size = 2048
	for _, spec := range []string{"list/lazy", "sharded(32,list/lazy)", "sharded(32,hashtable/lazy)"} {
		for _, n := range []int{8, 64, 512} {
			for _, mode := range []string{"batch", "looped"} {
				b.Run(fmt.Sprintf("alg=%s/keys=%d/%s", spec, n, mode), func(b *testing.B) {
					s := batchBenchSet(b, spec, size)
					c := core.NewCtx(0)
					rng := xrand.New(7)
					rounds := (b.N + n - 1) / n
					b.ResetTimer()
					runBatchedOps(c, s, rng, size, n, rounds, mode == "batch")
				})
			}
		}
	}
	// Contended single shard: every key hashes to the same inner list,
	// so the only lever left is how often the lock is taken. At least 4
	// workers even on small hosts — preemption inside a held bracket
	// still produces the contention the combiner feeds on.
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	for _, n := range []int{8, 64, 512} {
		for _, mode := range []string{"batch", "looped"} {
			b.Run(fmt.Sprintf("alg=sharded(1,list/lazy)/keys=%d/%s/contended", n, mode), func(b *testing.B) {
				s := batchBenchSet(b, "sharded(1,list/lazy)", size)
				perWorker := (b.N/n)/workers + 1
				var combined, batches atomic.Uint64
				var wg sync.WaitGroup
				b.ResetTimer()
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						c := core.NewCtx(id)
						runBatchedOps(c, s, xrand.New(uint64(id+1)), size, n, perWorker, mode == "batch")
						combined.Add(c.Stats.CombinedBatches)
						batches.Add(uint64(perWorker))
					}(w)
				}
				wg.Wait()
				b.StopTimer()
				if bt := batches.Load(); bt > 0 {
					b.ReportMetric(float64(combined.Load())/float64(bt), "combinefrac")
				}
			})
		}
	}
}
