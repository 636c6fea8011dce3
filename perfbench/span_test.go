package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/stats"
	"csds/internal/workload"
)

func TestTraceSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"sharded(32,hashtable/lazy)":             "span(1,sharded(32,span(2,hashtable/lazy)))",
		"list/lazy":                              "span(1,span(2,list/lazy))",
		"readcache(64,sharded(4,list/lazy))":     "span(1,readcache(64,sharded(4,span(2,list/lazy))))",
		"sharded(8, list/lazy)":                  "span(1,sharded(8,span(2,list/lazy)))",
		"striped(2,sharded(2,skiplist/herlihy))": "span(1,striped(2,sharded(2,span(2,skiplist/herlihy))))",
	} {
		got, err := traceSpec(spec)
		if err != nil || got != want {
			t.Errorf("traceSpec(%q) = %q, %v; want %q", spec, got, err, want)
		}
	}
	if _, err := core.Build("span(3,list/lazy)", core.Options{}); err == nil {
		t.Error("span(3,...) built; want a layer range error")
	}
}

// capabilities lists the optional extensions s implements.
func capabilities(s core.Set) []string {
	var caps []string
	for name, ok := range map[string]bool{
		"Batcher":   is[core.Batcher](s),
		"Scanner":   is[core.Scanner](s),
		"Cursor":    is[core.Cursor](s),
		"Ranger":    is[core.Ranger](s),
		"Reclaimer": is[core.Reclaimer](s),
		"Resizable": is[core.Resizable](s),
	} {
		if ok {
			caps = append(caps, name)
		}
	}
	sort.Strings(caps)
	return caps
}

func is[T any](s core.Set) bool { _, ok := s.(T); return ok }

// TestSpanCapabilityParity: wrapping a workload's spec in the probe
// neither adds nor drops an extension, so every composite path (batch
// grouping, flat combining, streaming pages) is the one the untraced
// structure takes.
func TestSpanCapabilityParity(t *testing.T) {
	for _, w := range workloads {
		traced, err := traceSpec(w.spec)
		if err != nil {
			t.Fatal(err)
		}
		o := core.Options{ExpectedSize: 256}
		plain, err := core.Build(w.spec, o)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := buildTraced(traced, o, newTracer(0))
		if err != nil {
			t.Fatal(err)
		}
		if a, b := capabilities(plain), capabilities(wrapped); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: plain %v, traced %v", w.name, a, b)
		}
	}
}

// replay applies one op stream to s through one context and returns a
// transcript of every result, scan and page included.
func replay(t *testing.T, s core.Set, ops []op, keys []core.Key, pageLens []int32, tr *tracer, dom *ebr.Domain) []string {
	t.Helper()
	c := &core.Ctx{ID: 0, Stats: &stats.Thread{}, Rng: workerRng(1, 0), Epoch: dom.Register()}
	defer c.Epoch.Unregister()
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	visit := func(k core.Key, v core.Value) bool { note("  %d=%d", k, v); return true }
	if tr != nil {
		tr.window(0, math.MaxInt64)
	}
	for i, o := range ops {
		switch o.kind {
		case workload.OpGet:
			v, ok := s.Get(c, o.key)
			note("get %d %d %v", o.key, v, ok)
		case workload.OpPut:
			note("put %d %v", o.key, s.Put(c, o.key, o.key))
		case workload.OpRemove:
			note("remove %d %v", o.key, s.Remove(c, o.key))
		case workload.OpScan:
			note("scan [%d,%d) %v", o.key, o.hi, s.(core.Scanner).Scan(c, o.key, o.hi, visit))
		case workload.OpCursorScan:
			pc, err := core.OpenCursor(s, o.key, o.hi)
			if err != nil {
				t.Fatal(err)
			}
			for p := i; !pc.Done(); p++ {
				tok, done := pc.Next(c, int(pageLens[p%len(pageLens)]), visit)
				note("page %s %v", tok, done)
			}
		case workload.OpMultiGet:
			s.(core.Batcher).MultiGet(c, keys[o.off:o.off+o.n], func(j int, v core.Value, ok bool) { note("mget %d %d %v", j, v, ok) })
		case workload.OpMultiPut:
			var pairs []core.KV
			for _, k := range keys[o.off : o.off+o.n] {
				pairs = append(pairs, core.KV{K: k, V: k})
			}
			s.(core.Batcher).MultiPut(c, pairs, func(j int, ok bool) { note("mput %d %v", j, ok) })
		case workload.OpMultiRemove:
			s.(core.Batcher).MultiRemove(c, keys[o.off:o.off+o.n], func(j int, ok bool) { note("mremove %d %v", j, ok) })
		}
	}
	note("len %d", s.Len())
	return out
}

// TestSpanIdenticalResults: the same op stream gives the same results
// with and without the probe, for every workload's spec, and the probe
// records every call it forwards.
func TestSpanIdenticalResults(t *testing.T) {
	cfg, err := workload.ParseMix("paper:scan-frac=0.05:cursor-frac=0.05:batch-frac=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Size, cfg.KeySpace = 512, 1024
	gen := workload.NewGenerator(cfg)
	s := genStream(gen, workerRng(7, 0), 3000)
	for _, w := range workloads {
		traced, err := traceSpec(w.spec)
		if err != nil {
			t.Fatal(err)
		}
		build := func(spec string, tr *tracer) (core.Set, *ebr.Domain) {
			dom := ebr.NewDomain()
			set, err := buildTraced(spec, core.Options{ExpectedSize: cfg.Size, KeySpan: cfg.KeySpace, Domain: dom}, tr)
			if err != nil {
				t.Fatal(err)
			}
			gen.Fill(&core.Ctx{Rng: workerRng(0, -1)}, set)
			return set, dom
		}
		plain, pdom := build(w.spec, nil)
		tr := newTracer(1 << 10)
		probed, tdom := build(traced, tr)
		a := replay(t, plain, s.ops, s.keys, s.pageLens, nil, pdom)
		b := replay(t, probed, s.ops, s.keys, s.pageLens, tr, tdom)
		if len(a) != len(b) {
			t.Fatalf("%s: transcripts differ in length: %d vs %d", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: line %d: plain %q, traced %q", w.name, i, a[i], b[i])
			}
		}

		lt := tr.totals()
		want := map[family]uint64{}
		for _, o := range s.ops {
			switch o.kind {
			case workload.OpGet:
				want[famGet]++
			case workload.OpPut, workload.OpRemove:
				want[famUpdate]++
			case workload.OpScan:
				want[famScan]++
			case workload.OpMultiGet, workload.OpMultiPut, workload.OpMultiRemove:
				want[famBatch]++
			}
		}
		for f, n := range want {
			if got := lt.agg[layerOuter-1][f].calls; got != n {
				t.Errorf("%s: %d outer %s spans, want %d", w.name, got, f, n)
			}
			if lt.agg[layerLeaf-1][f].calls < n {
				t.Errorf("%s: %d leaf %s spans under %d outer ones", w.name, lt.agg[layerLeaf-1][f].calls, f, n)
			}
		}
		if lt.agg[layerOuter-1][famPage].calls == 0 {
			t.Errorf("%s: no page spans recorded", w.name)
		}
		for i, sp := range tr.slots[0].spans {
			if sp.end < sp.start || (sp.layer == layerLeaf) != (sp.parent >= 0) ||
				(sp.parent >= 0 && tr.slots[0].spans[sp.parent].layer != layerOuter) {
				t.Fatalf("%s: span %d malformed: %+v", w.name, i, sp)
			}
		}
	}
}

func TestProbeCalibration(t *testing.T) {
	pc := calibrateProbe(1 << 12)
	if pc.self <= 0 || pc.inLeaf <= 0 || pc.outside <= 0 {
		t.Errorf("calibration %+v: every share must be positive", pc)
	}
}
