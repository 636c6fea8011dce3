package main

import (
	"fmt"
	"time"
)

// subWindow is the length of the equal sub-windows a run's timed window
// splits into. Rates and latency quantiles are taken per sub-window and
// reported as their median, so a stalled sub-window (another tenant of
// the host, a GC) does not move the result.
const subWindow = 500 * time.Millisecond

// plan is a run's timeline in nanotime units: warm-up before winStart,
// then n sub-windows of winLen, ending at end.
type plan struct {
	winStart, winLen, end int64
	n                     int
}

func newPlan(warm, window time.Duration) plan {
	n := max(int(window/subWindow), 1)
	p := plan{winStart: nanotime() + int64(warm), winLen: int64(window) / int64(n), n: n}
	p.end = p.winStart + int64(n)*p.winLen
	return p
}

// window returns the sub-window t falls in, or -1 during warm-up.
func (p plan) window(t int64) int {
	if t < p.winStart {
		return -1
	}
	return min(int((t-p.winStart)/p.winLen), p.n-1)
}

// recorder is one load worker's measurement slot. Its timing half covers
// the timed window only; its ledger (acknowledged inserts and removes,
// violations) covers the whole run, warm-up included, because the final
// size check balances every operation the structure ever saw. A recorder
// has a single writer.
type recorder struct {
	hists    [][numFam]*latHist // per sub-window
	reqs     []uint64
	sent     uint64 // requests completed over the whole run
	busyNs   int64
	failed   uint64
	updKeys  uint64 // update keys issued in the window (point and batch)
	pageKeys uint64 // mappings the window's cursor pages delivered
	inserted uint64
	removed  uint64
	bad      uint64
	firstBad string
	// spans holds the first client requests of the window for the trace
	// dump (capacity 0: none).
	spans []clientSpan
}

// clientSpan is one request (or pipelined burst) as the client timed it.
type clientSpan struct {
	start, end int64
	fam        family
}

func newRecorder(windows, keepSpans int) *recorder {
	return &recorder{
		hists: make([][numFam]*latHist, windows),
		reqs:  make([]uint64, windows),
		spans: make([]clientSpan, 0, keepSpans),
	}
}

func (r *recorder) latency(win int, fam family, ns int64) {
	if win < 0 {
		return
	}
	h := r.hists[win][fam]
	if h == nil {
		h = new(latHist)
		r.hists[win][fam] = h
	}
	h.add(ns)
}

// requests counts n completed requests of family fam (a burst for a
// pipeline) that occupied the worker from start to end.
func (r *recorder) requests(win, n int, fam family, start, end int64) {
	r.sent += uint64(n)
	if win < 0 {
		return
	}
	r.reqs[win] += uint64(n)
	r.busyNs += end - start
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, clientSpan{start, end, fam})
	}
}

func (r *recorder) fail(win int) {
	if win >= 0 {
		r.failed++
	}
}

func (r *recorder) updates(win, keys int) {
	if win >= 0 {
		r.updKeys += uint64(keys)
	}
}

// violation notes a wrong output; the first one is kept verbatim.
func (r *recorder) violation(format string, args ...any) {
	if r.bad == 0 {
		r.firstBad = fmt.Sprintf(format, args...)
	}
	r.bad++
}

// famStats summarizes one request family over all workers.
type famStats struct {
	n        uint64
	p50, p99 float64 // medians over sub-windows, ns
	p999     float64 // pooled over the window, ns
}

// summarizeFamily merges the workers' histograms per sub-window.
func summarizeFamily(recs []*recorder, fam family) famStats {
	var fs famStats
	var p50s, p99s []float64
	var pooled latHist
	for w := range recs[0].hists {
		var h latHist
		for _, r := range recs {
			if r.hists[w][fam] != nil {
				h.merge(r.hists[w][fam])
			}
		}
		if h.n == 0 {
			continue
		}
		fs.n += h.n
		p50s = append(p50s, h.quantile(0.50))
		p99s = append(p99s, h.quantile(0.99))
		pooled.merge(&h)
	}
	fs.p50, fs.p99 = median(p50s), median(p99s)
	fs.p999 = pooled.quantile(0.999)
	return fs
}

// opsPerSec is the median over sub-windows of requests completed per
// second.
func opsPerSec(recs []*recorder, winLen int64) float64 {
	rates := make([]float64, len(recs[0].reqs))
	for w := range rates {
		var n uint64
		for _, r := range recs {
			n += r.reqs[w]
		}
		rates[w] = float64(n) / (float64(winLen) / 1e9)
	}
	return median(rates)
}
