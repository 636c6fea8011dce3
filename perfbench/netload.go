package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"csds/internal/core"
	"csds/internal/server"
	"csds/internal/workload"
)

// netRig is one booted server with its closed-loop client connections.
// Connection i is served by the session whose context ID is i+1: the
// connections are dialed one at a time and each completes a round trip
// before the next is dialed, so the server numbers them in dial order.
type netRig struct {
	srv      *server.Server
	served   chan error
	conns    []net.Conn
	readers  []*bufio.Reader
	depth    int // requests per flush
	prefill  int
	shed     uint64 // requests the server shed, read after the drain
	shutdown bool
}

// bootNet builds the served structure, prefills it and serves it on a
// loopback port with csdsd's default limits, then opens the client
// connections. This is the benchmark's set-up step.
func bootNet(w *workloadDef, spec string, gen *workload.Generator, tr *tracer) (*netRig, error) {
	cfg := server.Config{
		Spec:         spec,
		Size:         w.size,
		UseEBR:       true,
		MaxInflight:  128,
		WriteQueue:   32,
		MaxBurst:     64,
		WatchdogTick: time.Second,
	}
	buildTracer = tr
	srv, err := server.New(cfg)
	buildTracer = nil
	if err != nil {
		return nil, err
	}
	rig := &netRig{srv: srv, served: make(chan error, 1), depth: w.depth}
	// The prefill context carries no stats slot, so the probe ignores it.
	rig.prefill = gen.Fill(&core.Ctx{Rng: workerRng(0, -1)}, srv.Set())
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.close()
		return nil, err
	}
	go func() { rig.served <- srv.Serve(lis) }()
	for i := 0; i < w.workers; i++ {
		nc, err := net.Dial("tcp", lis.Addr().String())
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.conns = append(rig.conns, nc)
		br := bufio.NewReaderSize(nc, 1<<16)
		rig.readers = append(rig.readers, br)
		if _, err := io.WriteString(nc, "version\r\n"); err != nil {
			rig.close()
			return nil, err
		}
		line, err := br.ReadSlice('\n')
		if err != nil || !bytes.HasPrefix(line, []byte("VERSION ")) {
			rig.close()
			return nil, fmt.Errorf("handshake on connection %d: %q %v", i, line, err)
		}
	}
	return rig, nil
}

// close closes the client connections, drains the server and waits for
// its accept loop. Audit counters are final only after this returns:
// live connections fold in as they close.
func (r *netRig) close() error {
	for _, nc := range r.conns {
		nc.Close()
	}
	if r.shutdown {
		return nil
	}
	r.shutdown = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	select {
	case serr := <-r.served:
		err = errors.Join(err, serr)
	case <-ctx.Done():
		err = errors.Join(err, errors.New("server: accept loop did not stop"))
	}
	return err
}

// netClient drives one connection in a closed loop: it sends a request
// (or a pipelined burst) and waits for every reply before sending more.
type netClient struct {
	nc    net.Conn
	br    *bufio.Reader
	s     *stream
	wire  []byte
	at    []int32
	depth int // requests per flush
	rec   *recorder
}

func (c *netClient) run(p plan) error {
	for i := 0; ; i += c.depth {
		if i+c.depth > len(c.s.ops) {
			i = 0
		}
		t0 := nanotime()
		if t0 >= p.end {
			return nil
		}
		win := p.window(t0)
		if _, err := c.nc.Write(c.wire[c.at[i]:c.at[i+c.depth]]); err != nil {
			return err
		}
		var last int64
		var fam family
		for j := i; j < i+c.depth; j++ {
			var err error
			if fam, err = c.readReply(&c.s.ops[j], win); err != nil {
				return err
			}
			last = nanotime()
			// In a pipeline a reply's latency runs from the flush.
			c.rec.latency(win, fam, last-t0)
		}
		if c.depth > 1 {
			fam = famBurst
			c.rec.latency(win, fam, last-t0)
		}
		c.rec.requests(win, c.depth, fam, t0, last)
	}
}

var (
	lineEnd       = []byte("END\r\n")
	lineStored    = []byte("STORED\r\n")
	lineNotStored = []byte("NOT_STORED\r\n")
	lineDeleted   = []byte("DELETED\r\n")
	lineNotFound  = []byte("NOT_FOUND\r\n")
	lineBusy      = []byte("SERVER_ERROR busy\r\n")
	prefixValue   = []byte("VALUE ")
)

// readReply consumes the reply to o and checks it: a hit must return
// its own key as the value, and every acknowledged insert or remove
// enters the ledger the final size check balances. Anything the dialect
// does not allow for the request loses the stream, and ends the run.
func (c *netClient) readReply(o *op, win int) (family, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if bytes.Equal(line, lineBusy) {
		c.rec.fail(win)
		if o.kind == workload.OpGet {
			return famGet, nil
		}
		return famUpdate, nil
	}
	switch o.kind {
	case workload.OpGet:
		if bytes.Equal(line, lineEnd) {
			return famGet, nil
		}
		if !bytes.HasPrefix(line, prefixValue) {
			break
		}
		data, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		rest := line[len(prefixValue):]
		k, kok := parseInt(rest[:max(bytes.IndexByte(rest, ' '), 0)])
		v, vok := parseInt(bytes.TrimRight(data, "\r\n"))
		if !kok || !vok || k != o.key || v != o.key {
			c.rec.violation("get %d: reply %q value %q", o.key, line, data)
		}
		if end, err := c.br.ReadSlice('\n'); err != nil || !bytes.Equal(end, lineEnd) {
			return 0, fmt.Errorf("get %d: reply not closed by END: %q %v", o.key, end, err)
		}
		return famGet, nil
	case workload.OpPut:
		c.rec.updates(win, 1)
		switch {
		case bytes.Equal(line, lineStored):
			c.rec.inserted++
			return famUpdate, nil
		case bytes.Equal(line, lineNotStored):
			return famUpdate, nil
		}
	case workload.OpRemove:
		c.rec.updates(win, 1)
		switch {
		case bytes.Equal(line, lineDeleted):
			c.rec.removed++
			return famUpdate, nil
		case bytes.Equal(line, lineNotFound):
			return famUpdate, nil
		}
	}
	c.rec.violation("request %v %d: unexpected reply %q", o.kind, o.key, line)
	return 0, fmt.Errorf("reply stream lost at %q", line)
}

// parseInt parses a decimal int64 without allocating.
func parseInt(b []byte) (core.Key, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 19 {
		return 0, false
	}
	var n int64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		n = n*10 + int64(ch-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// parseNsPerRequest replays captured request bytes through the server's
// parser and returns the median time per request over a few passes.
func parseNsPerRequest(wire []byte, requests int) (float64, error) {
	var passes []float64
	var req server.Request
	for pass := 0; pass < 5; pass++ {
		br := bufio.NewReaderSize(bytes.NewReader(wire), 1<<16)
		n := 0
		t0 := nanotime()
		for {
			if err := server.ReadRequest(br, &req); err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return 0, err
			}
			if req.Op == server.OpError {
				return 0, fmt.Errorf("captured request %d does not parse: %s", n, req.Err.Line)
			}
			n++
		}
		passes = append(passes, float64(nanotime()-t0)/float64(n))
		if n != requests {
			return 0, fmt.Errorf("replay parsed %d requests, sent %d", n, requests)
		}
	}
	return median(passes), nil
}
