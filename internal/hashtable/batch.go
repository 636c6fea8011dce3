// Batched (core.Batcher) paths for the hash tables: unsorted point
// application. Hash routing destroys key order, every point operation
// is O(1) in the bucket, and adjacent sorted keys land in unrelated
// buckets — so a loop of point ops IS the optimal batch plan here and
// sorting would only add work. The same holds one layer up: grouping a
// read batch by shard costs more than it saves until the batch is far
// denser than one key per shard (BenchmarkBatchVsLooped's
// sharded(32,hashtable/lazy) rows), which is why sharded reads of at
// most one key per shard loop point gets too. What hashed structures
// do gain from batching is the epoch bracket: each Multi* opens one
// for the whole batch (brackets nest), amortizing the per-op epoch
// announcement, and contended single-shard write batches ride the
// shard's flat-combining point.
package hashtable

import "csds/internal/core"

// MultiGet implements core.Batcher by a loop of point lookups.
func (h *Lazy) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiGet(c, h, keys, f)
}

// MultiPut implements core.Batcher by a loop of point inserts.
func (h *Lazy) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiPut(c, h, pairs, f)
}

// MultiRemove implements core.Batcher by a loop of point removes.
func (h *Lazy) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiRemove(c, h, keys, f)
}

// MultiGet implements core.Batcher by a loop of point lookups.
func (b *Bucketed) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiGet(c, b, keys, f)
}

// MultiPut implements core.Batcher by a loop of point inserts.
func (b *Bucketed) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiPut(c, b, pairs, f)
}

// MultiRemove implements core.Batcher by a loop of point removes.
func (b *Bucketed) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiRemove(c, b, keys, f)
}

// MultiGet implements core.Batcher by a loop of point lookups.
func (h *COW) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiGet(c, h, keys, f)
}

// MultiPut implements core.Batcher by a loop of point inserts.
func (h *COW) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiPut(c, h, pairs, f)
}

// MultiRemove implements core.Batcher by a loop of point removes.
func (h *COW) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiRemove(c, h, keys, f)
}

// MultiGet implements core.Batcher by a loop of point lookups.
func (h *Striped) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiGet(c, h, keys, f)
}

// MultiPut implements core.Batcher by a loop of point inserts.
func (h *Striped) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiPut(c, h, pairs, f)
}

// MultiRemove implements core.Batcher by a loop of point removes.
func (h *Striped) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	c.EpochEnter()
	defer c.EpochExit()
	core.LoopMultiRemove(c, h, keys, f)
}
