// Request execution: one parsed burst in, one response buffer out. The
// handler layer knows the structure (core.Set and its optional Batcher /
// Cursor extensions) and the audit counters, but nothing about sockets —
// tests and the fuzzer drive it through session.run over plain readers.
package server

import (
	"strconv"
	"time"

	"csds/internal/core"
	"csds/internal/fault"
)

// Protocol response fragments.
var (
	respStored    = []byte("STORED\r\n")
	respNotStored = []byte("NOT_STORED\r\n")
	respDeleted   = []byte("DELETED\r\n")
	respNotFound  = []byte("NOT_FOUND\r\n")
	respEnd       = []byte("END\r\n")
	respBusy      = []byte("SERVER_ERROR busy\r\n")
	respVersion   = []byte("VERSION csdsd/1 (csds memcache-text)\r\n")
)

// maxMergedKeys bounds one merged pipeline burst's MultiGet: enough to
// amortize the batch bracket across a deep pipeline, small enough to
// bound the reply buffer a slow reader can pin.
const maxMergedKeys = 1024

// execBurst runs a parsed pipeline burst in request order, appending
// every response to buf. Consecutive get-class requests are merged into
// a single core.Batcher MultiGet — the pipeline-to-batch promotion that
// lets a deep burst pay one batch bracket instead of one
// synchronization episode per key. It returns the grown buffer and
// whether the connection must close after the buffer is written (quit
// or a fatal protocol error).
func (s *session) execBurst(reqs []Request, buf []byte) (_ []byte, closeAfter bool) {
	// Degraded mode is sampled once per burst: under saturation the
	// read paths serve hits but skip cache fills and admission work.
	s.ctx.SkipCacheFill = s.srv.degraded()
	i := 0
	for i < len(reqs) {
		// The injected panic lands between requests of a burst — after
		// some responses are already rendered and possibly mid-pipeline —
		// which is exactly the shape serveConn's recovery contract must
		// absorb (unregister the EBR record; the half-rendered reply of
		// the dying burst is dropped, earlier bursts' were written).
		if s.inj.Fire(fault.HandlerPanic) {
			panic("fault: injected handler panic")
		}
		r := &reqs[i]
		switch r.Op {
		case OpGet:
			// Extend the merge run while the next requests are also gets
			// with the same cas mode and the merged key count stays
			// bounded.
			j, total := i+1, len(r.Keys)
			for j < len(reqs) && reqs[j].Op == OpGet && reqs[j].WithCAS == r.WithCAS &&
				total+len(reqs[j].Keys) <= maxMergedKeys {
				total += len(reqs[j].Keys)
				j++
			}
			buf = s.execGetRun(reqs[i:j], total, r.WithCAS, buf)
			i = j
			continue
		case OpSet:
			buf = s.execSet(r, buf)
		case OpDelete:
			buf = s.execDelete(r, buf)
		case OpRange, OpPage:
			buf = s.execPage(r, buf)
		case OpStats:
			buf = s.execStats(buf)
		case OpVersion:
			buf = append(buf, respVersion...)
		case OpQuit:
			return buf, true
		case OpError:
			buf = append(buf, r.Err.Line...)
			buf = append(buf, '\r', '\n')
			if r.Err.Fatal {
				return buf, true
			}
		}
		i++
	}
	return buf, false
}

// appendValue renders one VALUE block: the decimal value is the data
// payload, its byte length the declared size. gets adds a cas column;
// this store has no compare-and-swap generation, so the value itself
// serves (any concurrent overwrite is a delete+set, which changes it).
func appendValue(buf []byte, k core.Key, v core.Value, withCAS bool) []byte {
	var num [24]byte
	data := strconv.AppendInt(num[:0], int64(v), 10)
	buf = append(buf, "VALUE "...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	buf = append(buf, " 0 "...)
	buf = strconv.AppendInt(buf, int64(len(data)), 10)
	if withCAS {
		buf = append(buf, ' ')
		buf = append(buf, data...)
	}
	buf = append(buf, '\r', '\n')
	buf = append(buf, data...)
	buf = append(buf, '\r', '\n')
	return buf
}

// admit claims an in-flight slot for this session's next request,
// first letting the fault plane force a shed (the injected failure is
// indistinguishable from real saturation on the wire, which is the
// point — clients must handle busy identically either way).
func (s *session) admit() bool {
	if s.inj.Fire(fault.ShedBusy) {
		return false
	}
	return s.srv.acquire()
}

// execGetRun answers a run of merged get requests with one structure
// crossing: the concatenated key list goes through MultiGet when the
// structure batches (every registry structure does), falling back to
// looped Gets otherwise. Results replay per request, in request order,
// misses omitted per the memcache contract, each request closed by END.
func (s *session) execGetRun(reqs []Request, total int, withCAS bool, buf []byte) []byte {
	if !s.admit() {
		s.srv.audit.shed.Add(uint64(len(reqs)))
		for range reqs {
			buf = append(buf, respBusy...)
		}
		return buf
	}
	defer s.srv.release()

	keys := s.keyScratch[:0]
	for i := range reqs {
		keys = append(keys, reqs[i].Keys...)
	}
	s.keyScratch = keys
	vals := s.valScratch[:0]
	oks := s.okScratch[:0]
	for range keys {
		vals = append(vals, 0)
		oks = append(oks, false)
	}
	s.valScratch, s.okScratch = vals, oks

	if s.srv.batcher != nil && len(keys) > 1 {
		s.srv.batcher.MultiGet(s.ctx, keys, func(i int, v core.Value, ok bool) {
			vals[i], oks[i] = v, ok
		})
	} else {
		for i, k := range keys {
			vals[i], oks[i] = s.srv.set.Get(s.ctx, k)
		}
	}
	off := 0
	for i := range reqs {
		for j, k := range reqs[i].Keys {
			hit := oks[off+j]
			s.ctx.Stats.RecordRead(hit)
			if hit {
				buf = appendValue(buf, k, vals[off+j], withCAS)
			}
		}
		off += len(reqs[i].Keys)
		buf = append(buf, respEnd...)
	}
	return buf
}

// execSet applies one insert-if-absent store.
func (s *session) execSet(r *Request, buf []byte) []byte {
	if !s.admit() {
		s.srv.audit.shed.Add(1)
		if r.NoReply {
			return buf
		}
		return append(buf, respBusy...)
	}
	ok := s.srv.set.Put(s.ctx, r.SetKey, r.SetVal)
	s.srv.release()
	s.ctx.Stats.RecordInsert(ok)
	if r.NoReply {
		return buf
	}
	if ok {
		return append(buf, respStored...)
	}
	return append(buf, respNotStored...)
}

// execDelete applies one remove.
func (s *session) execDelete(r *Request, buf []byte) []byte {
	if !s.admit() {
		s.srv.audit.shed.Add(1)
		if r.NoReply {
			return buf
		}
		return append(buf, respBusy...)
	}
	ok := s.srv.set.Remove(s.ctx, r.Keys[0])
	s.srv.release()
	s.ctx.Stats.RecordRemove(ok)
	if r.NoReply {
		return buf
	}
	if ok {
		return append(buf, respDeleted...)
	}
	return append(buf, respNotFound...)
}

// execPage serves one ordered page: range opens a cursor over [Lo, Hi),
// page resumes one from the opaque token. The response streams the
// page's VALUE blocks followed by
//
//	CURSOR <token> <done>\r\nEND\r\n
//
// where token resumes the iteration (done 1 means exhausted; the token
// then points at the window end and further pages are empty). The token
// pins no server state — it survives reconnects, other servers over an
// equivalent spec, and process restarts (the socket test proves it).
func (s *session) execPage(r *Request, buf []byte) []byte {
	var pc *core.PageCursor
	var err error
	if r.Op == OpRange {
		pc, err = core.OpenCursor(s.srv.set, r.Lo, r.Hi)
	} else {
		pc, err = core.ResumeCursor(s.srv.set, r.Token)
	}
	if err != nil {
		// Corrupt or foreign tokens error in DecodeCursorToken — a
		// client mistake, never a server fault or a silently wrong page.
		buf = append(buf, "CLIENT_ERROR bad cursor token\r\n"...)
		return buf
	}
	// Pages shed before point ops: under degradation the long-bracket
	// requests are the first load dropped (they pin an epoch bracket and
	// a response buffer for the whole page).
	if s.srv.degraded() || !s.admit() {
		s.srv.audit.shed.Add(1)
		return append(buf, respBusy...)
	}
	keys := 0
	pageStart := time.Now()
	token, done := pc.Next(s.ctx, r.Max, func(k core.Key, v core.Value) bool {
		keys++
		buf = appendValue(buf, k, v, false)
		return true
	})
	s.srv.release()
	s.ctx.Stats.RecordPage(keys, uint64(time.Since(pageStart)))
	if done {
		s.ctx.Stats.RecordCursorScan()
	}
	buf = append(buf, "CURSOR "...)
	buf = append(buf, token...)
	if done {
		buf = append(buf, " 1\r\n"...)
	} else {
		buf = append(buf, " 0\r\n"...)
	}
	buf = append(buf, respEnd...)
	return buf
}

// execStats renders the audit counters: the aggregate of every closed
// connection plus this session's own live slot (other live connections
// fold in when they close — reading their hot counters mid-flight would
// race). The lock_waits / restarts / ops triple is the practical-wait-
// freedom SLA evidence the examples audit over the wire.
func (s *session) execStats(buf []byte) []byte {
	a := s.srv.auditSnapshot()
	a.Ops += s.ctx.Stats.Ops
	a.LockWaits += s.ctx.Stats.LockWaits
	a.Restarts += s.ctx.Stats.Restarts
	a.CombineStalls += s.ctx.Stats.CombineStalls
	if s.ctx.Stats.MaxWaitNs > a.MaxWaitNs {
		a.MaxWaitNs = s.ctx.Stats.MaxWaitNs
	}
	stat := func(name string, v uint64) {
		buf = append(buf, "STAT "...)
		buf = append(buf, name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, v, 10)
		buf = append(buf, '\r', '\n')
	}
	stat("conns", a.Conns)
	stat("ops", a.Ops)
	stat("lock_waits", a.LockWaits)
	stat("restarts", a.Restarts)
	stat("max_wait_ns", a.MaxWaitNs)
	stat("shed", a.Shed)
	stat("inflight", a.Inflight)
	stat("evictions", a.Evictions)
	stat("watchdog_fires", a.WatchdogFires)
	stat("combine_stalls", a.CombineStalls)
	stat("faults", a.Faults)
	stat("retired", a.Retired)
	stat("reclaimed", a.Reclaimed)
	buf = append(buf, respEnd...)
	return buf
}
