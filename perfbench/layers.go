package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// windowTotals sums the workers' window counters.
type windowTotals struct {
	reqs, sent, updKeys, pageKeys uint64
	busyNs                        int64
}

func totalsOf(out *runOut) windowTotals {
	var t windowTotals
	for _, r := range out.recs {
		for _, n := range r.reqs {
			t.reqs += n
		}
		t.sent += r.sent
		t.updKeys += r.updKeys
		t.pageKeys += r.pageKeys
		t.busyNs += r.busyNs
	}
	return t
}

// layerMetrics derives the per-layer report from an untraced run u and a
// traced run t of the same workload and seed. Self times come from t's
// spans (see split); runtime and generator figures come from u, where no
// probe runs.
func layerMetrics(u, t *runOut, pc probeCost) []metric {
	lt := t.tr.totals()
	tt, ut := totalsOf(t), totalsOf(u)
	outer := lt.sum(layerOuter)
	leaf := lt.sum(layerLeaf)
	st := split(t, pc)
	var ms []metric
	add := func(name string, v float64, unit, note string) {
		ms = append(ms, metric{name, v, unit, note})
	}

	if t.w.net {
		add("server.self_us_per_req", st.server/st.reqs/1e3, "us", "client round trip outside the outer structure span")
		add("server.parse_ns_per_req", t.parseNs, "ns", "sent request bytes replayed through server.ReadRequest")
	} else {
		add("server.self_us_per_req", st.server/st.reqs/1e3, "us", "no server: the call boundary outside the outer span")
	}
	xs := lt.sum(layerOuter, famGet, famUpdate, famBatch)
	add("server.keys_per_crossing", ratio(float64(xs.keys), float64(xs.calls)), "keys",
		fmt.Sprintf("keys per point or batch call into the structure; %d calls", xs.calls))
	add("server.shed_frac", ratio(float64(t.shed), float64(tt.sent)), "frac", "requests the server answered busy")

	for f := family(0); f < numFam; f++ {
		o, l := lt.agg[layerOuter-1][f], lt.agg[layerLeaf-1][f]
		if o.calls == 0 {
			continue
		}
		add("combinator.self_ns_per_"+f.String(), (float64(o.ns-o.childNs)-float64(l.calls)*pc.self)/float64(o.calls), "ns",
			fmt.Sprintf("outer span minus leaf spans, net of the probe; %d calls", o.calls))
	}
	if b := lt.agg[layerOuter-1][famBatch]; b.calls > 0 {
		add("combinator.combine_frac", float64(b.d.combined)/float64(b.calls), "frac", "batch calls applied through a flat-combining list")
	}

	if p := lt.agg[layerOuter-1][famPage]; p.calls > 0 {
		add("core.page_overcollect", ratio(float64(p.d.pageKeys), float64(tt.pageKeys)), "x", "keys page collects pulled per key delivered")
		add("core.cursor_retry_frac", float64(p.d.cursorRetries)/float64(p.calls), "frac", "page collects invalidated per page")
	}
	if s := lt.agg[layerOuter-1][famScan]; s.calls > 0 {
		add("core.scan_retry_frac", float64(s.d.scanRetries)/float64(s.calls), "frac", "scan collects invalidated per scan")
	}

	for f := family(0); f < numFam; f++ {
		o, l := lt.agg[layerOuter-1][f], lt.agg[layerLeaf-1][f]
		if o.calls == 0 {
			continue
		}
		add("leaf.ns_per_"+f.String(), (float64(l.ns)-float64(l.calls)*pc.inLeaf)/float64(o.calls), "ns",
			fmt.Sprintf("leaf span time per outer call, net of the probe; %d leaf calls", l.calls))
	}
	add("leaf.lock_wait_frac", ratio(float64(leaf.d.lockWaits), float64(leaf.d.lockAcqs)), "frac",
		fmt.Sprintf("lock acquisitions that waited; %d acquisitions", leaf.d.lockAcqs))
	add("leaf.restart_frac", ratio(float64(leaf.d.restartedOps), float64(leaf.d.completedOps)), "frac",
		fmt.Sprintf("leaf operations restarted at least once; %d operations", leaf.d.completedOps))
	add("leaf.max_wait_us", float64(lt.maxWaitNs)/1e3, "us", "longest lock wait inside one leaf call")

	add("ebr.retired_per_update", ratio(float64(t.retiredInWin), float64(tt.updKeys)), "nodes",
		fmt.Sprintf("nodes retired per update key; %d update keys", tt.updKeys))
	add("ebr.reclaim_lag_max", float64(t.lagMax), "nodes", "peak retired minus reclaimed, sampled every 2 ms")
	add("ebr.pool_hit_frac", ratio(float64(outer.d.poolHits), float64(outer.d.poolHits+outer.d.poolMisses)), "frac",
		fmt.Sprintf("node and buffer draws served by a pool; %d draws", outer.d.poolHits+outer.d.poolMisses))

	add("gc.cycles", float64(u.gcs), "count", "GC cycles in the untraced window")
	add("gc.pause_ms", float64(u.pauseNs)/1e6, "ms", "GC pause in the untraced window")
	add("allocs_per_op", ratio(float64(u.mallocs), float64(ut.reqs)), "allocs", "heap allocations per request, untraced, whole process")

	window := float64(u.plan.end - u.plan.winStart)
	add("bench.own_frac", 1-float64(ut.busyNs)/(window*float64(len(u.recs))), "frac", "worker time spent outside requests, untraced")
	add("trace.overhead_frac", 1-ratio(t.opsPerSec, u.opsPerSec), "frac",
		fmt.Sprintf("ops_per_s untraced %.6g, traced %.6g", u.opsPerSec, t.opsPerSec))
	add("trace.probe_ns_per_req", st.probe/st.reqs, "ns",
		fmt.Sprintf("calibrated probe cost: %.1f ns outside, %.1f in the combinator, %.1f in the leaf per span pair", pc.outside, pc.self, pc.inLeaf))

	for f := family(0); f < numFam; f++ {
		if fs := u.fams[f]; fs.n > 0 {
			add(f.String()+"_p999_us", fs.p999/1e3, "us", fmt.Sprintf("untraced, pooled over the window; n=%d", fs.n))
		}
	}
	return ms
}

// selfTimes splits the traced window's client time (ns, summed over
// requests) into the layers' self times and the probe's own cost; the
// five terms add up to client exactly.
type selfTimes struct {
	reqs, client, server, comb, leaf, probe float64
}

// split attributes client time: the server's share is the client's time
// outside the outer span, the combinator's the outer span minus its leaf
// spans, the leaf's its spans, each net of the probe's calibrated cost,
// which is reported as a term of its own.
func split(t *runOut, pc probeCost) selfTimes {
	lt := t.tr.totals()
	tt := totalsOf(t)
	outer, leaf := lt.sum(layerOuter), lt.sum(layerLeaf)
	st := selfTimes{reqs: float64(tt.reqs), client: float64(tt.busyNs)}
	st.probe = float64(outer.calls)*pc.outside + float64(leaf.calls)*(pc.self+pc.inLeaf)
	st.server = st.client - float64(outer.ns) - float64(outer.calls)*pc.outside
	st.comb = float64(outer.ns-outer.childNs) - float64(leaf.calls)*pc.self
	st.leaf = float64(leaf.ns) - float64(leaf.calls)*pc.inLeaf
	return st
}

// printLayerSum shows that the self times add up to what the clients
// timed.
func printLayerSum(w io.Writer, t *runOut, pc probeCost) {
	st := split(t, pc)
	per := func(ns float64) float64 { return ns / st.reqs / 1e3 }
	fmt.Fprintf(w, "# self time per request: server %.4f + combinator %.4f + leaf %.4f + probe %.4f = %.4f us; client total %.4f us\n",
		per(st.server), per(st.comb), per(st.leaf), per(st.probe), per(st.server+st.comb+st.leaf+st.probe), per(st.client))
	if d := t.tr.dropped.Load(); d > 0 {
		fmt.Fprintf(w, "# %d calls came from contexts outside the tracer's slots and were not traced\n", d)
	}
}

// dumpSpans writes the kept spans as CSV: one row per client request
// (layer client) and per structure call (outer, leaf). A structure span
// belongs to the client request on the same worker whose interval holds
// its start; every span of one request carries that request's id, and
// spans outside the kept requests are left out.
func dumpSpans(dir string, w *workloadDef, seed uint64, t *runOut) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.csv", w.name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,parent,req,layer,family,start_ns,end_ns")
	id := 0
	layerName := [...]string{"client", "outer", "leaf"}
	for wi, rec := range t.recs {
		slot := wi
		if w.net {
			slot = wi + 1 // connections are numbered from 1 by the server
		}
		spans := t.tr.slots[slot].spans
		rows := make([]int, len(spans)) // span index -> row id
		ci, clientRow := 0, make([]int, len(rec.spans))
		for i, cs := range rec.spans {
			clientRow[i] = id
			fmt.Fprintf(bw, "%d,-1,%d,client,%s,%d,%d\n", id, reqID(wi, i), cs.fam, cs.start, cs.end)
			id++
		}
		for si, sp := range spans {
			for ci < len(rec.spans) && rec.spans[ci].end < sp.start {
				ci++
			}
			if ci == len(rec.spans) || rec.spans[ci].start > sp.start {
				rows[si] = -1 // outside the kept requests
				continue
			}
			req, parent := reqID(wi, ci), clientRow[ci]
			if sp.parent >= 0 {
				parent = rows[sp.parent]
			}
			rows[si] = id
			fmt.Fprintf(bw, "%d,%d,%d,%s,%s,%d,%d\n", id, parent, req, layerName[sp.layer], sp.fam, sp.start, sp.end)
			id++
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// reqID numbers worker wi's i-th kept request; 0 means no request.
func reqID(wi, i int) uint64 { return uint64(wi+1)<<32 | uint64(i+1) }
