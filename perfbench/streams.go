package main

import (
	"strconv"

	"csds/internal/core"
	"csds/internal/workload"
	"csds/internal/xrand"
)

// ringLen is the length of each worker's pre-generated op stream; a
// worker that exhausts it starts over. The mixes are stationary, so
// cycling changes no proportion, and every stream is drawn before the
// timed window.
const ringLen = 1 << 17

// op is one drawn operation. Point ops use key; scans and cursor scans
// the window [key, hi); batches keys[off : off+n] of their stream.
type op struct {
	kind workload.Op
	key  core.Key
	hi   core.Key
	off  int32
	n    int32
}

// stream is one worker's op ring plus the side data its ops index.
type stream struct {
	ops      []op
	keys     []core.Key // batch keys, indexed by op.off/op.n
	pageLens []int32    // cursor page sizes, consumed in order
}

// workerRng derives a worker's generator stream from the run seed.
func workerRng(seed uint64, worker int) *xrand.Rng {
	return xrand.New(seed*0x9e3779b97f4a7c15 + uint64(worker)*0xbf58476d1ce4e5b9 + 1)
}

// genStream draws n ops for one worker from gen.
func genStream(gen *workload.Generator, rng *xrand.Rng, n int) *stream {
	s := &stream{ops: make([]op, n)}
	for i := range s.ops {
		o := op{kind: gen.NextOp(rng)}
		switch o.kind {
		case workload.OpGet, workload.OpPut, workload.OpRemove:
			o.key = gen.Key(rng)
		case workload.OpScan, workload.OpCursorScan:
			o.key, o.hi = gen.ScanRange(rng)
		default: // batched ops
			o.off = int32(len(s.keys))
			o.n = int32(gen.BatchLen(rng))
			for j := int32(0); j < o.n; j++ {
				s.keys = append(s.keys, gen.Key(rng))
			}
		}
		s.ops[i] = o
	}
	s.pageLens = make([]int32, n)
	for i := range s.pageLens {
		s.pageLens[i] = int32(gen.PageLen(rng))
	}
	return s
}

// encodeWire renders point ops as memcache-text requests, back to back;
// request i is wire[at[i]:at[i+1]]. Sets store the key as the value, so
// every hit must read back its own key.
func encodeWire(ops []op) (wire []byte, at []int32) {
	at = make([]int32, 0, len(ops)+1)
	for _, o := range ops {
		at = append(at, int32(len(wire)))
		k := int64(o.key)
		switch o.kind {
		case workload.OpGet:
			wire = append(wire, "get "...)
			wire = strconv.AppendInt(wire, k, 10)
		case workload.OpPut:
			val := strconv.AppendInt(nil, k, 10)
			wire = append(wire, "set "...)
			wire = append(wire, val...)
			wire = append(wire, " 0 0 "...)
			wire = strconv.AppendInt(wire, int64(len(val)), 10)
			wire = append(wire, "\r\n"...)
			wire = append(wire, val...)
		case workload.OpRemove:
			wire = append(wire, "delete "...)
			wire = strconv.AppendInt(wire, k, 10)
		default:
			panic("encodeWire: network mixes draw point ops only")
		}
		wire = append(wire, "\r\n"...)
	}
	return wire, append(at, int32(len(wire)))
}
