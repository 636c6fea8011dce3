// Connection machinery: the Server owns one structure instance built
// from a composite spec, an accept loop, one session goroutine per
// connection that reads, executes and writes its own replies, a global
// in-flight limit, and the graceful drain protocol.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"csds/internal/core"
	"csds/internal/ebr"
	"csds/internal/fault"
	"csds/internal/stats"
	"csds/internal/xrand"
)

// Config configures a Server. The zero value of every limit picks the
// documented default.
type Config struct {
	// Spec is the algorithm specification served — any registry name or
	// composite ("sharded(32,hashtable/lazy)"). Required.
	Spec string
	// Size hints the steady-state element count (hash sizing, skip-list
	// height); 0 defaults to 1<<16.
	Size int
	// UseEBR attaches an epoch-based reclamation domain: every
	// connection worker carries a Record, released on close (defer-based
	// — a panicking handler cannot wedge epoch advancement), and drain
	// quiesces the domain to reclaimed == retired.
	UseEBR bool
	// MaxInflight caps requests executing concurrently across all
	// connections; excess load is shed with SERVER_ERROR busy instead of
	// queueing without bound. 0 defaults to 128; negative means no limit.
	MaxInflight int
	// WriteQueue is ignored: each session writes its replies itself,
	// and the kernel socket buffer is the backpressure queue.
	//
	// Deprecated: ignored.
	WriteQueue int
	// MaxBurst bounds how many pipelined requests one read-loop turn
	// parses and answers with a single write; get runs inside a burst
	// merge into one MultiGet. 0 defaults to 64.
	MaxBurst int
	// IdleTimeout, when positive, arms a per-connection deadline before
	// each blocking read (outside drain) and each reply write: a client
	// idle (or too slow to make read or write progress) past it is
	// evicted and counted in the stats as an eviction, so a stalled peer
	// — one that never sends, or pipelines without ever reading — cannot
	// pin a session goroutine or block drain forever. 0 disables.
	IdleTimeout time.Duration
	// WatchdogTick, when positive with UseEBR, runs the self-watchdog:
	// every tick it nudges the epoch and samples the reclamation
	// domain's blocked records; a record wedged at the same state word
	// across two consecutive ticks is force-unregistered (Domain.Expel),
	// restoring epoch liveness at the documented cost of downgrading the
	// domain to GC-backed reclamation. Each expulsion counts as a
	// watchdog fire in the stats. 0 disables.
	WatchdogTick time.Duration
	// Fault, when non-nil, arms server-side fault injection: slow, torn
	// and dropped connections, injected handler panics, and forced busy
	// shedding, each on a deterministic per-connection schedule. Test
	// and chaos-drill machinery — nil in production.
	Fault *fault.Plan
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Size <= 0 {
		c.Size = 1 << 16
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 128
	}
	if c.MaxBurst <= 0 {
		c.MaxBurst = 64
	}
	return c
}

// Audit is the server's lifetime counter snapshot: closed connections'
// worker metrics merged with the reclamation domain totals.
type Audit struct {
	Conns         uint64 // connections served to completion
	Ops           uint64 // point operations executed
	LockWaits     uint64 // operations that waited for a lock
	Restarts      uint64 // operation restart events
	MaxWaitNs     uint64 // worst single lock wait
	Shed          uint64 // requests answered SERVER_ERROR busy
	Inflight      uint64 // requests executing right now (gauge, not a counter)
	Evictions     uint64 // connections evicted by the idle read or write deadline
	WatchdogFires uint64 // wedged EBR records expelled by the watchdog
	CombineStalls uint64 // flat-combining waits that exceeded the stall bound
	Faults        uint64 // injected faults fired server-side (0 without a plan)
	Retired       uint64 // EBR nodes retired (0 without EBR)
	Reclaimed     uint64 // EBR nodes reclaimed
}

// Server serves the memcache-text dialect over one structure instance.
type Server struct {
	cfg      Config
	set      core.Set
	batcher  core.Batcher // nil when the spec's structure cannot batch
	dom      *ebr.Domain  // nil without EBR
	inflight chan struct{}
	tally    *fault.Tally // nil without a fault plan

	mu    sync.Mutex
	lis   net.Listener
	conns map[net.Conn]struct{}

	draining atomic.Bool
	wg       sync.WaitGroup
	nextID   atomic.Int64

	inflightNow atomic.Int64
	watchStop   chan struct{}
	watchOnce   sync.Once
	watchWg     sync.WaitGroup

	audit auditCounters
}

// auditCounters accumulates closed connections' metrics atomically so
// any session's stats request can snapshot them without a lock.
type auditCounters struct {
	conns         atomic.Uint64
	ops           atomic.Uint64
	lockWaits     atomic.Uint64
	restarts      atomic.Uint64
	maxWaitNs     atomic.Uint64
	shed          atomic.Uint64
	evictions     atomic.Uint64
	watchdogFires atomic.Uint64
	combineStalls atomic.Uint64
}

// New builds a server over cfg.Spec. The structure is built once; every
// connection operates on it through its own core.Ctx.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Spec == "" {
		return nil, errors.New("server: Config.Spec is required")
	}
	opts := core.Options{ExpectedSize: cfg.Size, KeySpan: 2 * core.Key(cfg.Size)}
	s := &Server{cfg: cfg, conns: make(map[net.Conn]struct{})}
	if cfg.UseEBR {
		s.dom = ebr.NewDomain()
		opts.Domain = s.dom
	}
	set, err := core.Build(cfg.Spec, opts)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.set = set
	s.batcher, _ = set.(core.Batcher)
	if _, ok := set.(core.Cursor); !ok {
		return nil, fmt.Errorf("server: spec %q does not implement core.Cursor (range/page need it)", cfg.Spec)
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.Fault != nil {
		s.tally = fault.NewTally()
	}
	if s.dom != nil && cfg.WatchdogTick > 0 {
		s.watchStop = make(chan struct{})
		s.watchWg.Add(1)
		go s.watchdog(cfg.WatchdogTick)
	}
	return s, nil
}

// FaultTally exposes the server-side injected-fault counters (nil
// without a fault plan).
func (s *Server) FaultTally() *fault.Tally { return s.tally }

// watchdog is the self-healing loop: each tick it nudges the epoch
// forward and samples the domain's blocked records. A record observed
// wedged at the same announced state word on two consecutive ticks is
// not merely slow — nothing it could legally do leaves the state word
// unchanged across a full tick except being stalled inside one bracket
// — so the watchdog expels it. What Expel may do: unblock epoch
// advancement and make the ledger whole by dropping the wedge's limbo
// to the garbage collector. What it may not do: ever run a reclamation
// callback again on this domain — the expelled reader may still hold
// references into any later epoch's retirements, so the domain is
// permanently downgraded to GC-backed reclamation (see ebr.Expel).
func (s *Server) watchdog(tick time.Duration) {
	defer s.watchWg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	prev := make(map[*ebr.Record]uint64)
	for {
		select {
		case <-s.watchStop:
			return
		case <-t.C:
		}
		s.dom.Advance()
		blocked := s.dom.Blocked()
		cur := make(map[*ebr.Record]uint64, len(blocked))
		for _, b := range blocked {
			cur[b.Rec] = b.State
			if st, ok := prev[b.Rec]; ok && st == b.State {
				if s.dom.Expel(b.Rec) {
					s.audit.watchdogFires.Add(1)
					s.logf("server: watchdog expelled a wedged reclamation record (state %#x); domain is now GC-backed", b.State)
				}
			}
		}
		prev = cur
	}
}

// stopWatchdog halts the watchdog loop (idempotent).
func (s *Server) stopWatchdog() {
	if s.watchStop != nil {
		s.watchOnce.Do(func() {
			close(s.watchStop)
			s.watchWg.Wait()
		})
	}
}

// Set exposes the served structure (examples prefill through it only in
// tests; clients normally fill over the wire).
func (s *Server) Set() core.Set { return s.set }

// acquire claims one in-flight execution slot, shedding instead of
// blocking: a saturated server answers busy now rather than queueing the
// request behind an unbounded backlog it may never drain.
func (s *Server) acquire() bool {
	if s.inflight == nil {
		s.inflightNow.Add(1)
		return true
	}
	select {
	case s.inflight <- struct{}{}:
		s.inflightNow.Add(1)
		return true
	default:
		return false
	}
}

func (s *Server) release() {
	s.inflightNow.Add(-1)
	if s.inflight != nil {
		<-s.inflight
	}
}

// degraded reports whether the server is saturated enough to shed load
// selectively: at three quarters of the in-flight cap, scans and pages
// (the expensive, long-bracket requests) are answered busy while point
// ops still run, and read paths skip cache fills (core.Ctx.SkipCacheFill)
// so a degraded server serves hits without paying admission work.
func (s *Server) degraded() bool {
	if s.inflight == nil {
		return false
	}
	return int(s.inflightNow.Load())*4 >= cap(s.inflight)*3
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until Shutdown (or a permanent accept
// error). It owns l and closes it on return.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.lis != nil {
		s.mu.Unlock()
		return errors.New("server: Serve called twice")
	}
	s.lis = l
	s.mu.Unlock()
	defer l.Close()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(nc)
	}
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.Serve(l)
}

// session is one connection's execution state: the per-worker context
// (own RNG stream, stats slot, EBR record), the parsed-request burst
// buffer, the merged-batch scratch and the reply buffer reused across
// bursts. It reads from br and writes each burst's reply to w itself;
// it sets deadlines only through nc, which is what lets the fuzzer and
// the protocol tests drive it over byte readers and writers.
type session struct {
	srv        *Server
	ctx        *core.Ctx
	br         *bufio.Reader
	w          io.Writer
	nc         net.Conn        // nil when driven over plain readers (tests, fuzzer)
	inj        *fault.Injector // nil without a fault plan; methods are nil-safe
	reqs       []Request
	out        []byte
	keyScratch []core.Key
	valScratch []core.Value
	okScratch  []bool
}

// serveConn runs one connection to completion. The deferred block is
// the robustness contract: whatever happens in the handler — a clean
// quit, a protocol error, an io error, or a panic — the EBR record is
// unregistered (mid-bracket included; Unregister force-exits the
// bracket) so a dying worker can never wedge epoch advancement for the
// whole domain, and the worker's metrics fold into the audit aggregate.
// Every reply a finished burst produced was already written inline.
func (s *Server) serveConn(nc net.Conn) {
	th := &stats.Thread{}
	id := s.nextID.Add(1)
	ctx := &core.Ctx{ID: int(id), Rng: xrand.New(uint64(id)*0x9e3779b97f4a7c15 + 0xC5D5), Stats: th}
	if s.dom != nil {
		ctx.Epoch = s.dom.Register()
	}
	var inj *fault.Injector
	if s.cfg.Fault != nil {
		inj = fault.NewInjector(s.cfg.Fault, uint64(id), s.tally)
	}
	// The connection the session reads and writes may be a fault wrapper
	// (slow, torn, dropped I/O); deadlines and the close path stay on the
	// real conn underneath, which the wrapper delegates to.
	var rw net.Conn = nc
	if inj != nil && (s.cfg.Fault.Enabled(fault.ConnSlow) ||
		s.cfg.Fault.Enabled(fault.ConnTorn) || s.cfg.Fault.Enabled(fault.ConnDrop)) {
		rw = &faultConn{Conn: nc, inj: inj}
	}
	defer func() {
		if r := recover(); r != nil {
			s.logf("server: panic in connection handler: %v", r)
		}
		if ctx.Epoch != nil {
			ctx.Epoch.Unregister()
		}
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.mergeAudit(th)
		s.wg.Done()
	}()
	sess := &session{
		srv:  s,
		ctx:  ctx,
		br:   bufio.NewReaderSize(rw, maxLineLen),
		w:    rw,
		nc:   nc,
		inj:  inj,
		reqs: make([]Request, s.cfg.MaxBurst),
		out:  make([]byte, 0, 2048),
	}
	sess.run()
}

// run is the read/execute/write loop: block on one request, opportunistically
// drain the rest of the pipeline burst that is already buffered, execute
// the burst, write its reply. Bounded on every axis — burst length,
// merged keys, one reply in hand — so a fast pipelining client is
// amortized and a slow reading client is back-pressured through its own
// socket buffer (the session blocks in write and stops reading), never
// buffered without limit.
func (s *session) run() {
	for {
		if s.srv.draining.Load() {
			return
		}
		if s.nc != nil && s.srv.cfg.IdleTimeout > 0 {
			// Armed per blocking read, cleared implicitly by the next arm:
			// a client that sends no request within the window is evicted.
			s.nc.SetReadDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
		}
		if err := ReadRequest(s.br, &s.reqs[0]); err != nil {
			// io.EOF is the clean end; drain interrupts surface as read
			// deadline errors; everything else is a dead peer. An idle
			// deadline outside drain is an eviction and is counted.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && !s.srv.draining.Load() {
				s.srv.audit.evictions.Add(1)
				s.srv.logf("server: evicting idle connection (no read progress in %v)", s.srv.cfg.IdleTimeout)
			}
			return
		}
		n := 1
		for n < len(s.reqs) && s.reqs[n-1].Op != OpQuit && !s.srv.draining.Load() {
			if !s.fullRequestBuffered() {
				break
			}
			if err := ReadRequest(s.br, &s.reqs[n]); err != nil {
				break
			}
			n++
		}
		buf, closeAfter := s.execBurst(s.reqs[:n], s.out[:0])
		s.out = buf
		if len(buf) > 0 && !s.write(buf) {
			return
		}
		if closeAfter {
			return
		}
	}
}

// write sends one burst's reply, blocking while the socket buffer is
// full — that is the backpressure. A failed write ends the session: the
// peer is gone, or (with IdleTimeout) it stopped reading its replies
// for a whole window and is evicted.
func (s *session) write(buf []byte) bool {
	if s.nc != nil && s.srv.cfg.IdleTimeout > 0 {
		s.nc.SetWriteDeadline(time.Now().Add(s.srv.cfg.IdleTimeout))
	}
	if _, err := s.w.Write(buf); err != nil {
		// Drain never arms write deadlines, so a timeout here is always
		// the idle window.
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			s.srv.audit.evictions.Add(1)
			s.srv.logf("server: evicting stalled connection (no write progress in %v)", s.srv.cfg.IdleTimeout)
		}
		return false
	}
	return true
}

// fullRequestBuffered reports whether at least one complete command line
// is already buffered, i.e. another request can be parsed without
// blocking the burst on the network. (A set whose data block is split
// across segments can still block briefly in its body read; command and
// block almost always travel in one segment.)
func (s *session) fullRequestBuffered() bool {
	n := s.br.Buffered()
	if n == 0 {
		return false
	}
	peek, _ := s.br.Peek(n)
	for _, b := range peek {
		if b == '\n' {
			return true
		}
	}
	return false
}

// mergeAudit folds one finished connection's worker slot into the
// atomic aggregate.
func (s *Server) mergeAudit(th *stats.Thread) {
	s.audit.conns.Add(1)
	s.audit.ops.Add(th.Ops)
	s.audit.lockWaits.Add(th.LockWaits)
	s.audit.restarts.Add(th.Restarts)
	s.audit.combineStalls.Add(th.CombineStalls)
	for {
		cur := s.audit.maxWaitNs.Load()
		if th.MaxWaitNs <= cur || s.audit.maxWaitNs.CompareAndSwap(cur, th.MaxWaitNs) {
			break
		}
	}
}

// auditSnapshot returns the closed-connection aggregate plus domain
// reclamation totals.
func (s *Server) auditSnapshot() Audit {
	a := Audit{
		Conns:         s.audit.conns.Load(),
		Ops:           s.audit.ops.Load(),
		LockWaits:     s.audit.lockWaits.Load(),
		Restarts:      s.audit.restarts.Load(),
		MaxWaitNs:     s.audit.maxWaitNs.Load(),
		Shed:          s.audit.shed.Load(),
		Evictions:     s.audit.evictions.Load(),
		WatchdogFires: s.audit.watchdogFires.Load(),
		CombineStalls: s.audit.combineStalls.Load(),
	}
	if n := s.inflightNow.Load(); n > 0 {
		a.Inflight = uint64(n)
	}
	if s.tally != nil {
		a.Faults = s.tally.Total()
	}
	if s.dom != nil {
		a.Retired, a.Reclaimed = s.dom.Stats()
	}
	return a
}

// Audit returns the current audit snapshot (closed connections only;
// live connections fold in as they close).
func (s *Server) Audit() Audit { return s.auditSnapshot() }

// Shutdown gracefully drains the server: stop accepting, interrupt every
// connection's blocked read (in-flight bursts still execute and their
// replies are still written — drain never touches write deadlines),
// wait for all workers, then quiesce the
// reclamation domain so every retired node is reclaimed. It returns
// ctx's error if the drain outlives it, and an error if the domain
// cannot quiesce.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("server: already shut down")
	}
	s.mu.Lock()
	if s.lis != nil {
		s.lis.Close()
	}
	for nc := range s.conns {
		// Unblock reads only: pending writes (response flushes) proceed.
		nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.stopWatchdog()
	case <-ctx.Done():
		s.stopWatchdog()
		return ctx.Err()
	}
	if s.dom != nil {
		// Every record has unregistered, so each advance succeeds; three
		// advances age any limbo out of its grace period. Loop a few
		// extra in case orphan buckets were tagged ahead.
		for i := 0; i < 8; i++ {
			if ret, rec := s.dom.Stats(); ret == rec {
				return nil
			}
			s.dom.Advance()
		}
		if ret, rec := s.dom.Stats(); ret != rec {
			return fmt.Errorf("server: domain did not quiesce: retired %d, reclaimed %d", ret, rec)
		}
	}
	return nil
}
