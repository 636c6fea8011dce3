package main

import (
	"fmt"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/stats"
	"csds/internal/workload"
)

// libRig is one structure built in-process with its reclamation domain.
type libRig struct {
	set     core.Set
	dom     *ebr.Domain
	prefill int
}

// bootLib builds and prefills the structure: the in-process set-up step.
func bootLib(w *workloadDef, spec string, gen *workload.Generator, tr *tracer) (*libRig, error) {
	dom := ebr.NewDomain()
	set, err := buildTraced(spec, core.Options{ExpectedSize: w.size, KeySpan: core.Key(2 * w.size), Domain: dom}, tr)
	if err != nil {
		return nil, err
	}
	// The prefill context carries no stats slot, so the probe ignores it.
	n := gen.Fill(&core.Ctx{Rng: workerRng(0, -1)}, set)
	return &libRig{set: set, dom: dom, prefill: n}, nil
}

// libWorker is one closed-loop caller of the library: it issues its next
// call as soon as the previous one returns. Its context ID indexes its
// tracer slot.
type libWorker struct {
	id  int
	set core.Set
	c   *core.Ctx
	s   *stream
	rec *recorder

	// Per-call check state, read by the callbacks below (built once per
	// worker, so a call allocates no closure).
	lo, hi, prev core.Key
	delivered    uint64 // scan and page mappings delivered so far
	batch        []core.Key
	pairs        []core.KV
}

func newLibWorker(id int, rig *libRig, s *stream, rec *recorder, seed uint64) *libWorker {
	return &libWorker{
		id:  id,
		set: rig.set,
		c:   &core.Ctx{ID: id, Rng: workerRng(seed, id+100), Stats: &stats.Thread{}, Epoch: rig.dom.Register()},
		s:   s,
		rec: rec,
	}
}

// inWindow checks one delivered scan or page mapping: keys ascend, stay
// inside the requested window and map to themselves.
func (w *libWorker) inWindow(k core.Key, v core.Value) bool {
	if k <= w.prev || k < w.lo || k >= w.hi || v != k {
		w.rec.violation("window [%d,%d): key %d (value %d) after %d", w.lo, w.hi, k, v, w.prev)
	}
	w.prev = k
	w.delivered++
	return true
}

func (w *libWorker) gotBatch(i int, v core.Value, ok bool) {
	if ok && v != w.batch[i] {
		w.rec.violation("multiget key %d: value %d", w.batch[i], v)
	}
}

func (w *libWorker) putBatch(_ int, inserted bool) {
	if inserted {
		w.rec.inserted++
	}
}

func (w *libWorker) removeBatch(_ int, removed bool) {
	if removed {
		w.rec.removed++
	}
}

func (w *libWorker) run(p plan) {
	batcher := w.set.(core.Batcher)
	scanner := w.set.(core.Scanner)
	inWindow, gotBatch, putBatch, removeBatch := w.inWindow, w.gotBatch, w.putBatch, w.removeBatch
	pg := 0
	c, rec := w.c, w.rec
	for i := 0; ; i++ {
		if i == len(w.s.ops) {
			i = 0
		}
		if nanotime() >= p.end {
			return
		}
		o := &w.s.ops[i]
		switch o.kind {
		case workload.OpGet:
			t0 := nanotime()
			v, ok := w.set.Get(c, o.key)
			t1 := nanotime()
			if ok && v != o.key {
				rec.violation("get %d: value %d", o.key, v)
			}
			w.done(p, famGet, t0, t1)
		case workload.OpPut, workload.OpRemove:
			t0 := nanotime()
			var ok bool
			if o.kind == workload.OpPut {
				ok = w.set.Put(c, o.key, o.key)
			} else {
				ok = w.set.Remove(c, o.key)
			}
			t1 := nanotime()
			switch {
			case ok && o.kind == workload.OpPut:
				rec.inserted++
			case ok:
				rec.removed++
			}
			rec.updates(p.window(t0), 1)
			w.done(p, famUpdate, t0, t1)
		case workload.OpScan:
			w.lo, w.hi, w.prev = o.key, o.hi, o.key-1
			t0 := nanotime()
			scanner.Scan(c, o.key, o.hi, inWindow)
			w.done(p, famScan, t0, nanotime())
		case workload.OpCursorScan:
			// Every page is one request; the window check spans pages.
			w.lo, w.hi, w.prev = o.key, o.hi, o.key-1
			pc, err := core.OpenCursor(w.set, o.key, o.hi)
			if err != nil {
				rec.violation("open cursor: %v", err)
				return
			}
			for !pc.Done() && nanotime() < p.end {
				before := w.delivered
				t0 := nanotime()
				pc.Next(c, int(w.s.pageLens[pg]), inWindow)
				w.done(p, famPage, t0, nanotime())
				if p.window(t0) >= 0 {
					rec.pageKeys += w.delivered - before
				}
				if pg++; pg == len(w.s.pageLens) {
					pg = 0
				}
			}
		case workload.OpMultiGet:
			w.batch = w.s.keys[o.off : o.off+o.n]
			t0 := nanotime()
			batcher.MultiGet(c, w.batch, gotBatch)
			w.done(p, famBatch, t0, nanotime())
		case workload.OpMultiPut:
			w.pairs = w.pairs[:0]
			for _, k := range w.s.keys[o.off : o.off+o.n] {
				w.pairs = append(w.pairs, core.KV{K: k, V: k})
			}
			t0 := nanotime()
			batcher.MultiPut(c, w.pairs, putBatch)
			t1 := nanotime()
			rec.updates(p.window(t0), int(o.n))
			w.done(p, famBatch, t0, t1)
		case workload.OpMultiRemove:
			t0 := nanotime()
			batcher.MultiRemove(c, w.s.keys[o.off:o.off+o.n], removeBatch)
			t1 := nanotime()
			rec.updates(p.window(t0), int(o.n))
			w.done(p, famBatch, t0, t1)
		default:
			panic(fmt.Sprintf("libWorker: op kind %d", o.kind))
		}
	}
}

// done records one completed call.
func (w *libWorker) done(p plan, fam family, t0, t1 int64) {
	win := p.window(t0)
	w.rec.latency(win, fam, t1-t0)
	w.rec.requests(win, 1, fam, t0, t1)
}
