package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"csds/internal/core"
	"csds/internal/stats"
)

// The span(N,spec) combinator is the benchmark's tracing probe. It is
// placed around the outermost structure (N = 1) and around each leaf
// (N = 2), e.g. span(1,sharded(32,span(2,hashtable/lazy))), and records
// one span per call into the layer below it. It forwards every optional
// extension the module's structures implement — Batcher, Scanner,
// Cursor, Ranger and Reclaimer — unchanged, so a composite takes exactly
// the same batch, combining, scan and page paths with or without the
// probe: were Batcher dropped, core.AsBatcher would silently fall back to
// looped point operations.

// Span layers: the combinator argument.
const (
	layerOuter = 1 // the outermost structure, as the caller sees it
	layerLeaf  = 2 // one leaf instance under the combinator
	numLayers  = 2
)

// family classifies a request by what the caller asked for; latencies,
// spans and self times are reported per family.
type family uint8

const (
	famGet    family = iota // one point lookup
	famUpdate               // one point insert or remove
	famBurst                // one pipelined burst (network only)
	famScan                 // one one-shot range scan
	famPage                 // one cursor page
	famBatch                // one Multi* call
	numFam
)

var famNames = [numFam]string{"get", "update", "burst", "scan", "page", "batch"}

func (f family) String() string { return famNames[f] }

// buildTracer is the tracer a span combinator binds to when it is built.
// Structures are built on one goroutine (buildTraced), and each span
// instance keeps the tracer it was built with, so nothing reads this
// variable on the hot path.
var buildTracer *tracer

func init() {
	core.RegisterCombinator(core.Combinator{
		Name: "span",
		New: func(arg int, inner func(core.Options) core.Set, o core.Options) core.Set {
			return newSpanSet(arg, inner(o), buildTracer)
		},
		ArgDesc: "layer",
		Desc:    "benchmark probe: records a span around every call into the inner structure",
		Validate: func(arg int) error {
			if arg > numLayers {
				return fmt.Errorf("span: layer %d out of range 1..%d", arg, numLayers)
			}
			return nil
		},
	})
}

// buildTraced builds spec with every span combinator in it bound to tr
// (nil: spans forward without recording).
func buildTraced(spec string, o core.Options, tr *tracer) (core.Set, error) {
	buildTracer = tr
	defer func() { buildTracer = nil }()
	return core.Build(spec, o)
}

// traceSpec wraps a spec in the probe: span(1,...) around the whole
// structure and span(2,...) around its leaf.
func traceSpec(spec string) (string, error) {
	s, err := core.ParseSpec(spec)
	if err != nil {
		return "", err
	}
	leaf := &s
	for !(*leaf).IsLeaf() {
		leaf = &(*leaf).Inner
	}
	*leaf = &core.Spec{Name: "span", Arg: layerLeaf, Inner: *leaf}
	return (&core.Spec{Name: "span", Arg: layerOuter, Inner: s}).String(), nil
}

// wrapped is what a span forwards to: a Set with every extension the
// module's structures implement.
type wrapped interface {
	core.Set
	core.Batcher
	core.Scanner
	core.Cursor
	core.Ranger
	core.Reclaimer
}

type spanSet struct {
	inner wrapped
	layer int
	tr    *tracer
}

func newSpanSet(layer int, inner core.Set, tr *tracer) *spanSet {
	w, ok := inner.(wrapped)
	if !ok {
		// Every registry structure and combinator implements all five
		// extensions; a probe that claimed one its inner lacks would
		// change the paths the composite takes.
		panic(fmt.Sprintf("span: %T lacks an extension the probe forwards", inner))
	}
	return &spanSet{inner: w, layer: layer, tr: tr}
}

func (s *spanSet) Get(c *core.Ctx, k core.Key) (core.Value, bool) {
	sl := s.tr.begin(c, s.layer, famGet, 1)
	v, ok := s.inner.Get(c, k)
	s.tr.end(sl, c)
	return v, ok
}

func (s *spanSet) Put(c *core.Ctx, k core.Key, v core.Value) bool {
	sl := s.tr.begin(c, s.layer, famUpdate, 1)
	ok := s.inner.Put(c, k, v)
	s.tr.end(sl, c)
	return ok
}

func (s *spanSet) Remove(c *core.Ctx, k core.Key) bool {
	sl := s.tr.begin(c, s.layer, famUpdate, 1)
	ok := s.inner.Remove(c, k)
	s.tr.end(sl, c)
	return ok
}

func (s *spanSet) Len() int { return s.inner.Len() }

func (s *spanSet) Range(f func(k core.Key, v core.Value) bool) { s.inner.Range(f) }

func (s *spanSet) ReclaimAll() { s.inner.ReclaimAll() }

func (s *spanSet) Scan(c *core.Ctx, lo, hi core.Key, f func(k core.Key, v core.Value) bool) bool {
	sl := s.tr.begin(c, s.layer, famScan, 0)
	done := s.inner.Scan(c, lo, hi, f)
	s.tr.end(sl, c)
	return done
}

func (s *spanSet) CursorNext(c *core.Ctx, pos, hi core.Key, max int, f func(k core.Key, v core.Value) bool) (core.Key, bool) {
	sl := s.tr.begin(c, s.layer, famPage, 0)
	next, done := s.inner.CursorNext(c, pos, hi, max, f)
	s.tr.end(sl, c)
	return next, done
}

func (s *spanSet) MultiGet(c *core.Ctx, keys []core.Key, f func(i int, v core.Value, ok bool)) {
	sl := s.tr.begin(c, s.layer, famBatch, len(keys))
	s.inner.MultiGet(c, keys, f)
	s.tr.end(sl, c)
}

func (s *spanSet) MultiPut(c *core.Ctx, pairs []core.KV, f func(i int, inserted bool)) {
	sl := s.tr.begin(c, s.layer, famBatch, len(pairs))
	s.inner.MultiPut(c, pairs, f)
	s.tr.end(sl, c)
}

func (s *spanSet) MultiRemove(c *core.Ctx, keys []core.Key, f func(i int, removed bool)) {
	sl := s.tr.begin(c, s.layer, famBatch, len(keys))
	s.inner.MultiRemove(c, keys, f)
	s.tr.end(sl, c)
}

// maxSlots bounds the worker contexts a tracer follows: a context's ID
// indexes its slot (library workers count from 0, server connections
// from 1).
const maxSlots = 64

// tracer keeps spans in memory, one slot per worker context. A slot is
// written only by the goroutine that owns the context (core.Ctx is
// single-goroutine), so recording takes no lock and no shared write; the
// slots are read once the workers have stopped.
type tracer struct {
	// Outer spans that start in [from, until) are recorded: the timed
	// window, in nanotime units.
	from, until int64
	spanCap     int // spans kept per slot for the dump; aggregates cover every call
	dropped     atomic.Uint64
	slots       [maxSlots]slot
}

// newTracer returns a tracer that records nothing until window is set.
func newTracer(spanCap int) *tracer { return &tracer{spanCap: spanCap} }

// window sets the interval in which outer spans record. It must be set
// before the structure is driven.
func (t *tracer) window(from, until int64) { t.from, t.until = from, until }

type slot struct {
	depth  int
	frames [numLayers]frame
	agg    [numLayers][numFam]layerAgg
	// maxWaitNs is the longest lock wait one leaf call accumulated.
	maxWaitNs uint64
	spans     []spanRec
	_         [64]byte
}

type frame struct {
	layer int
	fam   family
	start int64
	child int64 // time covered by child spans
	idx   int   // index in slot.spans, -1 when not kept
	snap  counters
}

// spanRec is one kept span; parent indexes the same slot's spans (-1:
// none). The dump joins outer spans to the client request around them.
type spanRec struct {
	start, end int64
	parent     int32
	layer      uint8
	fam        family
}

// layerAgg accumulates one layer's calls of one family.
type layerAgg struct {
	calls, keys uint64
	ns, childNs int64
	d           counters
}

// counters are the worker-slot metrics (stats.Thread) the probe reads at
// each boundary; the difference across a call is what the call did.
type counters struct {
	lockAcqs, lockWaits, lockWaitNs uint64
	restartedOps, completedOps      uint64
	poolHits, poolMisses            uint64
	combined, scanRetries           uint64
	cursorRetries, pageKeys         uint64
}

func (k *counters) take(t *stats.Thread) {
	k.lockAcqs, k.lockWaits, k.lockWaitNs = t.LockAcqs, t.LockWaits, t.LockWaitNs
	k.completedOps, k.restartedOps = 0, 0
	for b, n := range t.RestartedOps {
		k.completedOps += n
		if b > 0 {
			k.restartedOps += n
		}
	}
	k.poolHits, k.poolMisses = t.PoolHits, t.PoolMisses
	k.combined, k.scanRetries = t.CombinedBatches, t.ScanRetries
	k.cursorRetries, k.pageKeys = t.CursorRetries, t.PagePullKeys
}

// addDiff adds (now - before) into k.
func (k *counters) addDiff(now, before *counters) {
	k.lockAcqs += now.lockAcqs - before.lockAcqs
	k.lockWaits += now.lockWaits - before.lockWaits
	k.lockWaitNs += now.lockWaitNs - before.lockWaitNs
	k.restartedOps += now.restartedOps - before.restartedOps
	k.completedOps += now.completedOps - before.completedOps
	k.poolHits += now.poolHits - before.poolHits
	k.poolMisses += now.poolMisses - before.poolMisses
	k.combined += now.combined - before.combined
	k.scanRetries += now.scanRetries - before.scanRetries
	k.cursorRetries += now.cursorRetries - before.cursorRetries
	k.pageKeys += now.pageKeys - before.pageKeys
}

func (k *counters) add(o *counters) { k.addDiff(o, &counters{}) }

// begin opens a span for a call into layer. An outer span opens only
// when it starts inside the recording window; a leaf span only under an
// open outer span of the same worker, and it inherits that span's family
// (a leaf MultiGet under a one-key Get is still get work). It returns nil
// when nothing is recorded. An outer span's clock is read first, to test
// the window; a leaf's last. What the probe spends in between is part of
// the calibrated probe cost.
func (t *tracer) begin(c *core.Ctx, layer int, fam family, keys int) *slot {
	if t == nil || c == nil || c.Stats == nil {
		return nil
	}
	if c.ID < 0 || c.ID >= maxSlots {
		t.dropped.Add(1)
		return nil
	}
	sl := &t.slots[c.ID]
	var now int64
	if layer == layerOuter {
		if sl.depth != 0 {
			return nil
		}
		if now = nanotime(); now < t.from || now >= t.until {
			return nil
		}
	} else {
		if sl.depth != 1 {
			return nil
		}
		fam = sl.frames[0].fam
	}
	f := &sl.frames[sl.depth]
	sl.depth++
	f.layer, f.fam, f.child, f.idx = layer, fam, 0, -1
	sl.agg[layer-1][fam].keys += uint64(keys)
	f.snap.take(c.Stats)
	if sl.spans == nil {
		sl.spans = make([]spanRec, 0, t.spanCap)
	}
	if len(sl.spans) < cap(sl.spans) {
		parent := int32(-1)
		if layer == layerLeaf {
			parent = int32(sl.frames[0].idx)
		}
		f.idx = len(sl.spans)
		sl.spans = append(sl.spans, spanRec{parent: parent, layer: uint8(layer), fam: fam})
	}
	if layer == layerLeaf {
		now = nanotime()
	}
	f.start = now
	return sl
}

// end closes the span begin opened.
func (t *tracer) end(sl *slot, c *core.Ctx) {
	if sl == nil {
		return
	}
	now := nanotime()
	sl.depth--
	f := &sl.frames[sl.depth]
	d := now - f.start
	var after counters
	after.take(c.Stats)
	a := &sl.agg[f.layer-1][f.fam]
	a.calls++
	a.ns += d
	a.childNs += f.child
	a.d.addDiff(&after, &f.snap)
	if f.layer == layerLeaf {
		sl.frames[0].child += d
		if w := after.lockWaitNs - f.snap.lockWaitNs; w > sl.maxWaitNs {
			sl.maxWaitNs = w
		}
	}
	if f.idx >= 0 {
		sp := &sl.spans[f.idx]
		sp.start, sp.end = f.start, now
	}
}

// layerTotals sums every slot's aggregates.
type layerTotals struct {
	agg       [numLayers][numFam]layerAgg
	maxWaitNs uint64
}

func (t *tracer) totals() layerTotals {
	var lt layerTotals
	for i := range t.slots {
		sl := &t.slots[i]
		for l := range sl.agg {
			for f := range sl.agg[l] {
				a, s := &lt.agg[l][f], &sl.agg[l][f]
				a.calls += s.calls
				a.keys += s.keys
				a.ns += s.ns
				a.childNs += s.childNs
				a.d.add(&s.d)
			}
		}
		lt.maxWaitNs = max(lt.maxWaitNs, sl.maxWaitNs)
	}
	return lt
}

// sum folds one layer's families (all of them when fams is empty).
func (lt *layerTotals) sum(layer int, fams ...family) layerAgg {
	if len(fams) == 0 {
		for f := family(0); f < numFam; f++ {
			fams = append(fams, f)
		}
	}
	var out layerAgg
	for _, f := range fams {
		a := &lt.agg[layer-1][f]
		out.calls += a.calls
		out.keys += a.keys
		out.ns += a.ns
		out.childNs += a.childNs
		out.d.add(&a.d)
	}
	return out
}

// probeCost is what the probe adds by itself, per outer span holding one
// leaf span: the time outside the outer span (it lands in the caller's
// share), inside the outer span but outside the leaf (the combinator's
// share) and inside the leaf span.
type probeCost struct{ outside, self, inLeaf float64 }

// calibrateProbe measures probeCost on a private tracer with n empty
// outer-and-leaf span pairs.
func calibrateProbe(n int) probeCost {
	t := newTracer(0)
	t.window(0, math.MaxInt64)
	c := &core.Ctx{Stats: &stats.Thread{}}
	t0 := nanotime()
	for i := 0; i < n; i++ {
		o := t.begin(c, layerOuter, famGet, 1)
		t.end(t.begin(c, layerLeaf, famGet, 1), c)
		t.end(o, c)
	}
	total := float64(nanotime() - t0)
	o, l := t.slots[0].agg[layerOuter-1][famGet], t.slots[0].agg[layerLeaf-1][famGet]
	return probeCost{
		outside: (total - float64(o.ns)) / float64(n),
		self:    float64(o.ns-o.childNs) / float64(n),
		inLeaf:  float64(l.ns) / float64(n),
	}
}
