// Batched (core.Batcher) paths for the combinators. The composite
// batching contract is destination grouping: a batch is bucket-sorted
// by shard/stripe once, and each destination boundary is crossed once
// per batch — one routing pass, one shard-map/epoch load, one lock
// epoch per shard — instead of once per key. Results are buffered and
// replayed in caller order. Sharded reads skip grouping when the batch
// is sparse (see Sharded.MultiGet): with about one key per shard there
// is nothing to amortize.
package combinator

import (
	"csds/internal/core"
	"csds/internal/htm"
	"csds/internal/locks"
)

// groupBatch bucket-sorts the batch indices 0..n-1 by destination
// part, preserving caller order inside each part (so inner duplicate-
// key semantics match the caller's index order; distinct parts hold
// disjoint keys, so cross-part order is immaterial). idx[off[p]:
// off[p+1]] lists the caller indices routed to part p. The index
// arrays are carved from the caller's scratch, so they live until the
// caller releases it.
func groupBatch(sc *core.BatchScratch, n, parts int, partOf func(i int) int) (idx, off []int) {
	off = sc.Ints(parts + 1)
	for i := 0; i < n; i++ {
		off[partOf(i)+1]++
	}
	for p := 0; p < parts; p++ {
		off[p+1] += off[p]
	}
	idx = sc.Ints(n)
	cur := sc.Ints(parts)
	copy(cur, off[:parts])
	for i := 0; i < n; i++ {
		p := partOf(i)
		idx[cur[p]] = i
		cur[p]++
	}
	return idx, off
}

// singlePart reports whether exactly one part received the whole
// batch, and which.
func singlePart(off []int) (int, bool) {
	n := off[len(off)-1]
	if n == 0 {
		return 0, false
	}
	for p := 0; p+1 < len(off); p++ {
		if off[p+1]-off[p] == n {
			return p, true
		}
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Sharded
// ---------------------------------------------------------------------------

func (s *Sharded) partOfKey(k core.Key) int {
	return indexOf(mix64(uint64(k)), len(s.shards))
}

// MultiGet implements core.Batcher. A sparse batch — no more keys than
// shards, so at most one key per shard on average and no traversal or
// bracket to share — loops point gets inside one epoch bracket and
// reports each result as it lands: grouping it would cost more than the
// gets it merges. A denser batch is grouped by shard and each shard
// serves its sub-batch through one inner MultiGet — one shard crossing
// per shard per batch. Results replay in caller order either way.
func (s *Sharded) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	if n <= len(s.shards) {
		c.EpochEnter()
		defer c.EpochExit()
		for i, k := range keys {
			v, ok := s.shard(k).Get(c, k)
			f(i, v, ok)
		}
		return
	}
	if len(s.shards) == 1 {
		core.AsBatcher(s.shards[0]).MultiGet(c, keys, f)
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	idx, off := groupBatch(sc, n, len(s.shards), func(i int) int { return s.partOfKey(keys[i]) })
	vals := sc.Vals(n)
	oks := sc.Bools(n)
	sub := sc.Keys(n)[:0]
	var g []int
	cb := func(j int, v core.Value, ok bool) { vals[g[j]], oks[g[j]] = v, ok }
	for p := range s.shards {
		lo, hi := off[p], off[p+1]
		if lo == hi {
			continue
		}
		g = idx[lo:hi]
		sub = sub[:0]
		for _, i := range g {
			sub = append(sub, keys[i])
		}
		core.AsBatcher(s.shards[p]).MultiGet(c, sub, cb)
	}
	for i := 0; i < n; i++ {
		f(i, vals[i], oks[i])
	}
}

// MultiPut implements core.Batcher. A batch that spans shards is
// grouped and applied per shard like MultiGet; a write batch whose
// keys all land in ONE shard is the contended hot-spot case and goes
// through the shard's flat-combining point instead, so colliding
// batches from many threads are applied by one winner in one inner
// bracket (see core.Combiner).
func (s *Sharded) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	n := len(pairs)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	res := sc.Bools(n)
	idx, off := groupBatch(sc, n, len(s.shards), func(i int) int { return s.partOfKey(pairs[i].K) })
	if p, one := singlePart(off); one {
		// res may travel through the publication list, but the combiner
		// hands it back exclusively once done is set, so Run's return
		// makes the scratch-carved slice safe to recycle.
		s.combiners[p].Run(c, core.BatchPut, pairs, res, s.applyCombined(p))
	} else {
		sub := sc.KVs(n)[:0]
		var g []int
		cb := func(j int, ok bool) { res[g[j]] = ok }
		for p := range s.shards {
			lo, hi := off[p], off[p+1]
			if lo == hi {
				continue
			}
			g = idx[lo:hi]
			sub = sub[:0]
			for _, i := range g {
				sub = append(sub, pairs[i])
			}
			core.AsBatcher(s.shards[p]).MultiPut(c, sub, cb)
		}
	}
	for i := range res {
		f(i, res[i])
	}
}

// MultiRemove implements core.Batcher with the same grouping and
// single-shard flat-combining path as MultiPut.
func (s *Sharded) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	res := sc.Bools(n)
	idx, off := groupBatch(sc, n, len(s.shards), func(i int) int { return s.partOfKey(keys[i]) })
	if p, one := singlePart(off); one {
		kv := sc.KVs(n)
		for i, k := range keys {
			kv[i] = core.KV{K: k}
		}
		s.combiners[p].Run(c, core.BatchRemove, kv, res, s.applyCombined(p))
	} else {
		sub := sc.Keys(n)[:0]
		var g []int
		cb := func(j int, ok bool) { res[g[j]] = ok }
		for p := range s.shards {
			lo, hi := off[p], off[p+1]
			if lo == hi {
				continue
			}
			g = idx[lo:hi]
			sub = sub[:0]
			for _, i := range g {
				sub = append(sub, keys[i])
			}
			core.AsBatcher(s.shards[p]).MultiRemove(c, sub, cb)
		}
	}
	for i := range res {
		f(i, res[i])
	}
}

// applyCombined adapts shard p's inner Batcher to the combiner's apply
// signature (possibly receiving the concatenation of several colliding
// threads' batches).
func (s *Sharded) applyCombined(p int) core.CombineApply {
	return func(c *core.Ctx, op core.BatchOp, pairs []core.KV, res []bool) {
		b := core.AsBatcher(s.shards[p])
		if op == core.BatchPut {
			b.MultiPut(c, pairs, func(j int, ok bool) { res[j] = ok })
			return
		}
		keys := make([]core.Key, len(pairs))
		for j, kv := range pairs {
			keys[j] = kv.K
		}
		b.MultiRemove(c, keys, func(j int, ok bool) { res[j] = ok })
	}
}

// ---------------------------------------------------------------------------
// Striped
// ---------------------------------------------------------------------------

// MultiGet implements core.Batcher: grouped by stripeIndex, one stripe
// crossing per stripe per batch (the order-preserving partition means
// a sorted batch touches each stripe in one contiguous run).
func (s *Striped) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	idx, off := groupBatch(sc, n, len(s.stripes), func(i int) int { return s.stripeIndex(keys[i]) })
	vals := sc.Vals(n)
	oks := sc.Bools(n)
	sub := sc.Keys(n)[:0]
	var g []int
	cb := func(j int, v core.Value, ok bool) { vals[g[j]], oks[g[j]] = v, ok }
	for p := range s.stripes {
		lo, hi := off[p], off[p+1]
		if lo == hi {
			continue
		}
		g = idx[lo:hi]
		sub = sub[:0]
		for _, i := range g {
			sub = append(sub, keys[i])
		}
		core.AsBatcher(s.stripes[p]).MultiGet(c, sub, cb)
	}
	for i := 0; i < n; i++ {
		f(i, vals[i], oks[i])
	}
}

// MultiPut implements core.Batcher, grouped by stripe.
func (s *Striped) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	n := len(pairs)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	idx, off := groupBatch(sc, n, len(s.stripes), func(i int) int { return s.stripeIndex(pairs[i].K) })
	res := sc.Bools(n)
	sub := sc.KVs(n)[:0]
	var g []int
	cb := func(j int, ok bool) { res[g[j]] = ok }
	for p := range s.stripes {
		lo, hi := off[p], off[p+1]
		if lo == hi {
			continue
		}
		g = idx[lo:hi]
		sub = sub[:0]
		for _, i := range g {
			sub = append(sub, pairs[i])
		}
		core.AsBatcher(s.stripes[p]).MultiPut(c, sub, cb)
	}
	for i := range res {
		f(i, res[i])
	}
}

// MultiRemove implements core.Batcher, grouped by stripe.
func (s *Striped) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	idx, off := groupBatch(sc, n, len(s.stripes), func(i int) int { return s.stripeIndex(keys[i]) })
	res := sc.Bools(n)
	sub := sc.Keys(n)[:0]
	var g []int
	cb := func(j int, ok bool) { res[g[j]] = ok }
	for p := range s.stripes {
		lo, hi := off[p], off[p+1]
		if lo == hi {
			continue
		}
		g = idx[lo:hi]
		sub = sub[:0]
		for _, i := range g {
			sub = append(sub, keys[i])
		}
		core.AsBatcher(s.stripes[p]).MultiRemove(c, sub, cb)
	}
	for i := range res {
		f(i, res[i])
	}
}

// ---------------------------------------------------------------------------
// Elastic
// ---------------------------------------------------------------------------

// multiGetOn runs one grouped read pass over epoch p, re-checking the
// frozen-and-superseded staleness witness once per shard (not per
// key). Reports false if any shard was stale (results are then
// discarded and the whole batch retried on the published map).
func (e *Elastic) multiGetOn(c *core.Ctx, p *epartition, keys []core.Key, vals []core.Value, oks []bool, witness bool) bool {
	sc := core.GetBatchScratch()
	defer sc.Release()
	parts := len(p.shards)
	idx, off := groupBatch(sc, len(keys), parts, func(i int) int {
		return indexOf(mix64(uint64(keys[i])), parts)
	})
	sub := sc.Keys(len(keys))[:0]
	var g []int
	cb := func(j int, v core.Value, ok bool) { vals[g[j]], oks[g[j]] = v, ok }
	for part := 0; part < parts; part++ {
		lo, hi := off[part], off[part+1]
		if lo == hi {
			continue
		}
		g = idx[lo:hi]
		sub = sub[:0]
		for _, i := range g {
			sub = append(sub, keys[i])
		}
		sh := &p.shards[part]
		core.AsBatcher(sh.set).MultiGet(c, sub, cb)
		if witness && sh.frozen.Load() && e.cur.Load() != p {
			return false
		}
	}
	return true
}

// MultiGet implements core.Batcher with the same old-then-new epoch
// discipline as Get, amortized to one epoch load and one staleness
// witness per shard per batch. After scanEpochRetries superseded maps
// it pins the map by briefly excluding resizes (resizeMu pauses
// migrations, never operations), mirroring Scan's fallback.
func (e *Elastic) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	// Pin the loaded shard maps against eager resize reclamation (one
	// bracket for the whole batch; brackets nest).
	c.EpochEnter()
	defer c.EpochExit()
	sc := core.GetBatchScratch()
	defer sc.Release()
	vals := sc.Vals(n)
	oks := sc.Bools(n)
	for attempt := 0; attempt < scanEpochRetries; attempt++ {
		if e.multiGetOn(c, e.cur.Load(), keys, vals, oks, true) {
			for i := 0; i < n; i++ {
				f(i, vals[i], oks[i])
			}
			return
		}
	}
	e.resizeMu.Lock()
	e.multiGetOn(c, e.cur.Load(), keys, vals, oks, false)
	e.resizeMu.Unlock()
	for i := 0; i < n; i++ {
		f(i, vals[i], oks[i])
	}
}

// multiWrite runs a grouped write batch under the shard gate protocol:
// one gate entry (writer publish + frozen check) per shard per batch.
// A frozen shard parks the batch until the epoch advances, then the
// unapplied remainder regroups on the published map — applied elements
// keep their results (their inner operations already linearized).
func (e *Elastic) multiWrite(c *core.Ctx, sc *core.BatchScratch, n int, keyAt func(i int) core.Key, apply func(s core.Set, members []int, res []bool)) []bool {
	c.EpochEnter()
	defer c.EpochExit()
	res := sc.Bools(n)
	pending := sc.Ints(n)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		p := e.cur.Load()
		parts := len(p.shards)
		idx, off := groupBatch(sc, len(pending), parts, func(j int) int {
			return indexOf(mix64(uint64(keyAt(pending[j]))), parts)
		})
		applied := sc.Bools(len(pending))
		memberBuf := sc.Ints(len(pending))
		stale := false
		for part := 0; part < parts; part++ {
			lo, hi := off[part], off[part+1]
			if lo == hi {
				continue
			}
			sh := &p.shards[part]
			sh.writers.Add(1)
			if sh.frozen.Load() {
				sh.writers.Add(-1)
				// The migrator owns this shard until the next map is
				// published; park (instrumented) and regroup what's left.
				locks.WaitWhile(c.Stat(), func() bool { return e.cur.Load() == p })
				stale = true
				break
			}
			members := memberBuf[:0]
			for _, j := range idx[lo:hi] {
				members = append(members, pending[j])
			}
			apply(sh.set, members, res)
			sh.writers.Add(-1)
			for _, j := range idx[lo:hi] {
				applied[j] = true
			}
		}
		if !stale {
			return res
		}
		rest := sc.Ints(len(pending))[:0]
		for j, did := range applied {
			if !did {
				rest = append(rest, pending[j])
			}
		}
		pending = rest
	}
	return res
}

// MultiPut implements core.Batcher under the shard gate protocol (see
// multiWrite).
func (e *Elastic) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	if len(pairs) == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	subBuf := sc.KVs(len(pairs))
	var m []int
	var out []bool
	cb := func(j int, ok bool) { out[m[j]] = ok }
	res := e.multiWrite(c, sc, len(pairs),
		func(i int) core.Key { return pairs[i].K },
		func(s core.Set, members []int, res []bool) {
			sub := subBuf[:0]
			for _, i := range members {
				sub = append(sub, pairs[i])
			}
			m, out = members, res
			core.AsBatcher(s).MultiPut(c, sub, cb)
		})
	for i := range res {
		f(i, res[i])
	}
}

// MultiRemove implements core.Batcher under the shard gate protocol
// (see multiWrite).
func (e *Elastic) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	if len(keys) == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	subBuf := sc.Keys(len(keys))
	var m []int
	var out []bool
	cb := func(j int, ok bool) { out[m[j]] = ok }
	res := e.multiWrite(c, sc, len(keys),
		func(i int) core.Key { return keys[i] },
		func(s core.Set, members []int, res []bool) {
			sub := subBuf[:0]
			for _, i := range members {
				sub = append(sub, keys[i])
			}
			m, out = members, res
			core.AsBatcher(s).MultiRemove(c, sub, cb)
		})
	for i := range res {
		f(i, res[i])
	}
}

// ---------------------------------------------------------------------------
// ReadCache
// ---------------------------------------------------------------------------

// MultiGet implements core.Batcher: one probe pass over the cache
// (each probe the same single atomic load as a point hit), then the
// miss set forwarded as ONE inner sub-batch, then version-guarded
// fills — per-key the exact protocol of Get, with the inner traversal
// amortized across the misses.
func (r *ReadCache) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	vals := sc.Vals(n)
	oks := sc.Bools(n)
	missIdx := sc.Ints(n)[:0]
	missKeys := sc.Keys(n)[:0]
	var missVers []uint64
	var missEnts []*rcEntry // probe-time residents (admission victims)
	var missExp []bool      // resident was this key, past its TTL
	st := c.Stat()
	for i, k := range keys {
		sl := r.slot(k)
		e := sl.entry.Load()
		expired := false
		if e != nil && e.key == k {
			if !r.expired(e) {
				vals[i], oks[i] = e.val, true
				if st != nil {
					st.RecordCacheHit()
				}
				continue
			}
			expired = true
		}
		if st != nil {
			st.RecordCacheMiss(expired)
		}
		// Version snapshot BEFORE the inner read, per the fill protocol.
		missIdx = append(missIdx, i)
		missKeys = append(missKeys, k)
		missVers = append(missVers, sl.ver.Load())
		missEnts = append(missEnts, e)
		missExp = append(missExp, expired)
	}
	if len(missIdx) > 0 {
		core.AsBatcher(r.inner).MultiGet(c, missKeys, func(j int, v core.Value, ok bool) {
			vals[missIdx[j]], oks[missIdx[j]] = v, ok
		})
		for j, i := range missIdx {
			if !oks[i] || missVers[j]&1 != 0 {
				continue
			}
			if missExp[j] || r.admit(keys[i], missEnts[j]) {
				r.fill(c, r.slot(keys[i]), keys[i], vals[i], missVers[j])
			} else if st != nil {
				st.RecordCacheReject()
			}
		}
	}
	for i := 0; i < n; i++ {
		f(i, vals[i], oks[i])
	}
}

// MultiPut implements core.Batcher: an htm.Try optimistic batch commit
// (try-acquire every touched slot lock, run the whole invalidation
// protocol and ONE inner sub-batch under them) with the per-key locked
// update loop as the structural fallback.
func (r *ReadCache) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	n := len(pairs)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	res := sc.Bools(n)
	if r.tryBatchUpdate(c, core.BatchPut, pairs, res) {
		for i := range res {
			f(i, res[i])
		}
		return
	}
	for i, kv := range pairs {
		f(i, r.Put(c, kv.K, kv.V))
	}
}

// MultiRemove implements core.Batcher; see MultiPut.
func (r *ReadCache) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	n := len(keys)
	if n == 0 {
		return
	}
	sc := core.GetBatchScratch()
	defer sc.Release()
	pairs := sc.KVs(n)
	for i, k := range keys {
		pairs[i] = core.KV{K: k}
	}
	res := sc.Bools(n)
	if r.tryBatchUpdate(c, core.BatchRemove, pairs, res) {
		for i := range res {
			f(i, res[i])
		}
		return
	}
	for i, k := range keys {
		f(i, r.Remove(c, k))
	}
}

// tryBatchUpdate is the optimistic half of the batched update: one
// htm.Try attempt that try-acquires the deduplicated slot locks
// all-or-nothing (no blocking, so colliding batches cannot deadlock on
// overlapping slot sets), bumps every version odd, drops matching
// entries, runs ONE inner sub-batch, and bumps the versions back.
// Reports whether it committed; on abort (slot contention, emulated
// capacity, injected interrupt) the caller falls back to the per-key
// locked loop.
func (r *ReadCache) tryBatchUpdate(c *core.Ctx, op core.BatchOp, pairs []core.KV, res []bool) bool {
	slots := make([]*rcSlot, 0, len(pairs))
	for _, kv := range pairs {
		sl := r.slot(kv.K)
		dup := false
		for _, have := range slots {
			if have == sl {
				dup = true
				break
			}
		}
		if !dup {
			slots = append(slots, sl)
		}
	}
	var d *htm.Doom
	if c != nil {
		d = c.Doom
	}
	return htm.Try(c.Stat(), d, func(a *htm.Acq) htm.Status {
		for _, sl := range slots {
			if !a.Lock(&sl.mu) {
				return a.AbortStatus()
			}
		}
		if !a.Commit() {
			return a.AbortStatus()
		}
		for _, sl := range slots {
			sl.ver.Add(1) // odd: batch update in flight, fills stand down
		}
		for _, kv := range pairs {
			sl := r.slot(kv.K)
			if e := sl.entry.Load(); e != nil && e.key == kv.K {
				sl.entry.Store(nil)
			}
		}
		b := core.AsBatcher(r.inner)
		if op == core.BatchPut {
			b.MultiPut(c, pairs, func(j int, ok bool) { res[j] = ok })
		} else {
			keys := make([]core.Key, len(pairs))
			for j, kv := range pairs {
				keys[j] = kv.K
			}
			b.MultiRemove(c, keys, func(j int, ok bool) { res[j] = ok })
		}
		for _, sl := range slots {
			sl.ver.Add(1) // even again
		}
		return htm.Committed
	})
}
