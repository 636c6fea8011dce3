package main

import (
	"math/bits"
	"sort"
	"time"
)

// epoch anchors nanotime: client timestamps and tracer spans share it,
// so the span dump can place a server's spans inside a client request.
var epoch = time.Now()

// nanotime is the monotonic time since epoch in nanoseconds.
func nanotime() int64 { return int64(time.Since(epoch)) }

// latHist is a log-linear latency histogram: exact below subBuckets ns,
// then subBuckets linear buckets per power of two (under 0.8% wide).
// Quantiles interpolate inside a bucket, so two runs rarely read the
// same value unless their samples agree.
type latHist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	subBits     = 7
	subBuckets  = 1 << subBits
	maxShift    = 36 // values clamp at subBuckets<<maxShift ns (~2.4 h)
	histBuckets = (maxShift + 2) * subBuckets
)

func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	if shift > maxShift {
		return histBuckets - 1
	}
	return (shift+1)*subBuckets + int(v>>shift) - subBuckets
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < subBuckets {
		return float64(i), 1
	}
	shift := i/subBuckets - 1
	m := i%subBuckets + subBuckets
	return float64(int64(m) << shift), float64(int64(1) << shift)
}

func (h *latHist) add(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds (0 for an empty
// histogram).
func (h *latHist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// median returns the median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default "exclusive" method);
// xs is sorted in place and must hold at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	sort.Float64s(xs)
	ld := len(xs)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(3)
}
