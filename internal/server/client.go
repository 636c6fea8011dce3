// Client is a minimal pipelined memcache-text client for the csdsd
// dialect: csdsbench -net drives its closed-loop workload through it,
// the examples are thin wrappers around it, and the socket tests speak
// through it. It is deliberately synchronous per method — pipelining is
// explicit (Pipe* to buffer requests, Flush to send, Recv* to collect
// responses in order), which is exactly the shape a closed-loop load
// generator wants.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"csds/internal/core"
	"csds/internal/xrand"
)

// ErrBusy is the typed form of SERVER_ERROR busy: the server received
// the request and shed it without executing it. Safe to retry for every
// operation class — the shed is a guarantee nothing was applied.
var ErrBusy = errors.New("server: busy (request shed, not executed)")

// RetryableError wraps a write failure the caller may safely reissue:
// the server provably did not apply the operation (today that means a
// busy shed). Transport failures mid-write do NOT produce it — after
// those the outcome is unknown and blind reissue could double-apply, so
// the raw error surfaces and the policy decision stays with the caller.
type RetryableError struct{ Err error }

func (e *RetryableError) Error() string { return "retryable: " + e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// RetryPolicy governs the client's per-operation recovery discipline.
// The zero value disables it all, preserving raw one-shot semantics.
type RetryPolicy struct {
	// Budget is the max retries per operation beyond the first attempt.
	// 0 disables retrying (and the deadline still applies if set).
	Budget int
	// OpDeadline, when positive, bounds each attempt: the connection
	// deadline is armed before the request and a slow or dead server
	// surfaces a timeout instead of hanging the caller.
	OpDeadline time.Duration
	// BaseBackoff seeds the jittered exponential backoff between
	// attempts (default 2ms); MaxBackoff caps it (default 100ms).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 100 * time.Millisecond
	}
	return p
}

// Client is one connection. Not safe for concurrent use; a load
// generator opens one per worker.
type Client struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	addr string
	rng  *xrand.Rng

	// Policy is the recovery discipline for the one-shot methods (Get,
	// Set, Delete, MultiGet, Range, Page, Stats). With a Budget, reads
	// and cursor pages retry transparently — busy sheds retry on the
	// same connection, transport faults redial first (every read is
	// idempotent, and a page token re-requests exactly the same page) —
	// while writes never auto-retry: they surface *RetryableError when
	// reissue is provably safe and the raw error otherwise. Set it
	// before issuing operations; the explicit Pipe*/Recv* layer is
	// never retried (the caller owns pipeline recovery).
	Policy RetryPolicy

	// Retries counts attempts beyond the first across every policy-
	// retried operation on this client — the observable evidence of how
	// often the recovery discipline engaged (the wire chaos cell reads
	// it to compute its fault-hit fraction).
	Retries uint64
}

// Dial connects to a csdsd server.
func Dial(addr string) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, rng: xrand.New(uint64(time.Now().UnixNano()) | 1)}
	c.attach(nc)
	return c, nil
}

func (c *Client) attach(nc net.Conn) {
	c.nc = nc
	c.br = bufio.NewReaderSize(nc, 1<<16)
	c.bw = bufio.NewWriterSize(nc, 1<<16)
}

// redial replaces a dead connection in place (drops the old socket,
// keeps addr and policy). Used by the retry path after transport
// faults, where buffered protocol state is untrustworthy.
func (c *Client) redial() error {
	c.nc.Close()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.attach(nc)
	return nil
}

// jitteredBackoff returns a uniformly jittered delay in [b/2, b],
// capped at max: exponential growth spreads contending clients apart,
// the jitter keeps them from re-synchronizing on the retry clock.
func jitteredBackoff(rng *xrand.Rng, b, max time.Duration) time.Duration {
	if b > max {
		b = max
	}
	half := int64(b / 2)
	return time.Duration(half + rng.Int63n(half+1))
}

// DialRetry dials with retries over the patience window — the handshake
// of scripts that start a server and a client together. The retry clock
// is jittered exponential backoff (5ms doubling, capped at 400ms and by
// the remaining patience), so a fleet of clients racing one booting
// server neither hammers it in lockstep nor sleeps past its arrival.
func DialRetry(addr string, patience time.Duration) (*Client, error) {
	deadline := time.Now().Add(patience)
	rng := xrand.New(uint64(time.Now().UnixNano()) | 1)
	backoff := 5 * time.Millisecond
	const maxBackoff = 400 * time.Millisecond
	for {
		c, err := Dial(addr)
		if err == nil {
			return c, nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, fmt.Errorf("server: dial %s: gave up after %v: %w", addr, patience, err)
		}
		sleep := jitteredBackoff(rng, backoff, maxBackoff)
		if sleep > remain {
			sleep = remain
		}
		time.Sleep(sleep)
		if backoff < maxBackoff {
			backoff *= 2
		}
	}
}

// Sever closes the underlying connection without the quit handshake —
// a simulated partition mid-session (the wire chaos cell's client-side
// conn.drop). The next operation observes a transport failure; under a
// retry policy it redials transparently.
func (c *Client) Sever() { c.nc.Close() }

// Redial tears the connection down and reconnects, discarding buffered
// protocol state. Public for callers that own their own write-reissue
// discipline: after a transport fault mid-write the stream is poisoned
// and must be replaced before the reissue.
func (c *Client) Redial() error { return c.redial() }

// Close sends quit (best-effort) and closes the connection.
func (c *Client) Close() error {
	c.bw.WriteString("quit\r\n")
	c.bw.Flush()
	return c.nc.Close()
}

// readLine returns the next response line without its CRLF.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return trimCRLF(line), nil
}

// errorLine converts a server error response into a Go error. The busy
// shed maps to the typed sentinel so retry logic (here and in callers)
// can distinguish "provably not executed" from everything else.
func errorLine(line []byte) error {
	if bytes.Equal(line, []byte("SERVER_ERROR busy")) {
		return ErrBusy
	}
	return fmt.Errorf("server: %s", line)
}

// arm applies the per-attempt operation deadline, if the policy set one.
func (c *Client) arm() {
	if c.Policy.OpDeadline > 0 {
		c.nc.SetDeadline(time.Now().Add(c.Policy.OpDeadline))
	}
}

// withRetry runs one idempotent operation under the client's policy:
// arm the deadline, attempt, and on failure back off (jittered
// exponential) and retry within the budget. A busy shed leaves the
// protocol stream clean — the same connection retries. Anything else is
// a transport fault: the connection is condemned and redialed before
// the next attempt, because half-read responses poison the stream.
func (c *Client) withRetry(do func() error) error {
	c.arm()
	err := do()
	if err == nil || c.Policy.Budget <= 0 {
		return err
	}
	p := c.Policy.withDefaults()
	backoff := p.BaseBackoff
	for attempt := 0; attempt < p.Budget; attempt++ {
		if !errors.Is(err, ErrBusy) {
			if rerr := c.redial(); rerr != nil {
				return fmt.Errorf("%w (redial failed: %v)", err, rerr)
			}
		}
		time.Sleep(jitteredBackoff(c.rng, backoff, p.MaxBackoff))
		if backoff < p.MaxBackoff {
			backoff *= 2
		}
		c.arm()
		c.Retries++
		if err = do(); err == nil {
			return nil
		}
	}
	return err
}

// isErrorLine reports whether line is one of the protocol error replies.
func isErrorLine(line []byte) bool {
	return bytes.Equal(line, []byte("ERROR")) ||
		bytes.HasPrefix(line, []byte("CLIENT_ERROR")) ||
		bytes.HasPrefix(line, []byte("SERVER_ERROR"))
}

// --- pipelined request writers -------------------------------------------

// PipeGet buffers one single-key get (pair with RecvGet).
func (c *Client) PipeGet(k core.Key) error {
	c.bw.WriteString("get ")
	writeInt(c.bw, int64(k))
	_, err := c.bw.WriteString("\r\n")
	return err
}

// PipeSet buffers one set (pair with RecvStored).
func (c *Client) PipeSet(k core.Key, v core.Value) error {
	var num [24]byte
	data := strconv.AppendInt(num[:0], int64(v), 10)
	c.bw.WriteString("set ")
	writeInt(c.bw, int64(k))
	c.bw.WriteString(" 0 0 ")
	writeInt(c.bw, int64(len(data)))
	c.bw.WriteString("\r\n")
	c.bw.Write(data)
	_, err := c.bw.WriteString("\r\n")
	return err
}

// PipeDelete buffers one delete (pair with RecvDeleted).
func (c *Client) PipeDelete(k core.Key) error {
	c.bw.WriteString("delete ")
	writeInt(c.bw, int64(k))
	_, err := c.bw.WriteString("\r\n")
	return err
}

// Flush sends everything buffered.
func (c *Client) Flush() error { return c.bw.Flush() }

// RecvStored reads one set response.
func (c *Client) RecvStored() (stored bool, err error) {
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, []byte("STORED")):
		return true, nil
	case bytes.Equal(line, []byte("NOT_STORED")):
		return false, nil
	}
	return false, errorLine(line)
}

// RecvDeleted reads one delete response.
func (c *Client) RecvDeleted() (deleted bool, err error) {
	line, err := c.readLine()
	if err != nil {
		return false, err
	}
	switch {
	case bytes.Equal(line, []byte("DELETED")):
		return true, nil
	case bytes.Equal(line, []byte("NOT_FOUND")):
		return false, nil
	}
	return false, errorLine(line)
}

// RecvGet reads one single-key get response block.
func (c *Client) RecvGet() (v core.Value, ok bool, err error) {
	found := false
	var val core.Value
	err = c.readValues(func(_ core.Key, v core.Value) {
		found, val = true, v
	})
	return val, found, err
}

// readValues consumes VALUE blocks up to END (or an error line),
// delivering each (key, value) to f. The optional CURSOR trailer line of
// range/page responses is delivered to the caller via lastCursor.
func (c *Client) readValues(f func(k core.Key, v core.Value)) error {
	_, _, err := c.readValuesCursor(f)
	return err
}

func (c *Client) readValuesCursor(f func(k core.Key, v core.Value)) (token string, done bool, err error) {
	for {
		line, err := c.readLine()
		if err != nil {
			return "", false, err
		}
		switch {
		case bytes.Equal(line, []byte("END")):
			return token, done, nil
		case bytes.HasPrefix(line, []byte("VALUE ")):
			var fb [4][]byte
			fields, _ := splitFields(line[len("VALUE "):], fb[:])
			if len(fields) < 3 {
				return "", false, fmt.Errorf("server: malformed VALUE line %q", line)
			}
			k, okK := parseInt(fields[0])
			n, okN := parseInt(fields[2])
			if !okK || !okN || n < 0 || n > maxDataLen {
				return "", false, fmt.Errorf("server: malformed VALUE line %q", line)
			}
			data := make([]byte, n+2)
			if _, err := readFull(c.br, data); err != nil {
				return "", false, err
			}
			v, okV := parseInt(trimCRLF(data))
			if !okV {
				return "", false, fmt.Errorf("server: non-numeric data block %q", data)
			}
			f(core.Key(k), core.Value(v))
		case bytes.HasPrefix(line, []byte("CURSOR ")):
			var fb [2][]byte
			fields, _ := splitFields(line[len("CURSOR "):], fb[:])
			if len(fields) != 2 {
				return "", false, fmt.Errorf("server: malformed CURSOR line %q", line)
			}
			token = string(fields[0])
			done = string(fields[1]) == "1"
		default:
			if isErrorLine(line) {
				return "", false, errorLine(line)
			}
			return "", false, fmt.Errorf("server: unexpected response line %q", line)
		}
	}
}

// --- one-shot requests ----------------------------------------------------

// Get looks up one key (retried under Policy: idempotent).
func (c *Client) Get(k core.Key) (core.Value, bool, error) {
	var v core.Value
	var ok bool
	err := c.withRetry(func() error {
		if err := c.PipeGet(k); err != nil {
			return err
		}
		if err := c.Flush(); err != nil {
			return err
		}
		var err error
		v, ok, err = c.RecvGet()
		return err
	})
	return v, ok, err
}

// Set stores k -> v if absent (the library's put semantics; NOT_STORED
// reports a present key). Writes are never auto-retried: a busy shed —
// provably not executed — comes back as *RetryableError for the caller
// to reissue; any other failure surfaces raw because the outcome on the
// server is unknown.
func (c *Client) Set(k core.Key, v core.Value) (stored bool, err error) {
	c.arm()
	if err := c.PipeSet(k, v); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	stored, err = c.RecvStored()
	if errors.Is(err, ErrBusy) {
		return false, &RetryableError{Err: err}
	}
	return stored, err
}

// Delete removes one key. Same write discipline as Set: busy sheds are
// *RetryableError, everything else surfaces raw.
func (c *Client) Delete(k core.Key) (deleted bool, err error) {
	c.arm()
	if err := c.PipeDelete(k); err != nil {
		return false, err
	}
	if err := c.Flush(); err != nil {
		return false, err
	}
	deleted, err = c.RecvDeleted()
	if errors.Is(err, ErrBusy) {
		return false, &RetryableError{Err: err}
	}
	return deleted, err
}

// MultiGet looks up keys in one mget request (one server-side batch).
// oks[i] reports whether keys[i] was present and vals[i] its value. The
// response omits misses, so hits are matched back to request indices by
// walking the response keys as an in-order subsequence of the request
// keys (duplicates resolve to the same value, like the Batcher
// contract).
func (c *Client) MultiGet(keys []core.Key, vals []core.Value, oks []bool) error {
	if len(keys) == 0 {
		return nil
	}
	if len(vals) != len(keys) || len(oks) != len(keys) {
		return fmt.Errorf("server: MultiGet result slices must match len(keys)")
	}
	return c.withRetry(func() error {
		for i := range oks {
			oks[i] = false
		}
		c.bw.WriteString("mget")
		for _, k := range keys {
			c.bw.WriteByte(' ')
			writeInt(c.bw, int64(k))
		}
		c.bw.WriteString("\r\n")
		if err := c.Flush(); err != nil {
			return err
		}
		i := 0
		return c.readValues(func(k core.Key, v core.Value) {
			for i < len(keys) && keys[i] != k {
				i++
			}
			if i < len(keys) {
				vals[i], oks[i] = v, true
				i++
			}
		})
	})
}

// Range requests the first page of the window [lo, hi): up to max
// mappings in ascending key order, the resume token, and whether the
// window is already exhausted.
func (c *Client) Range(lo, hi core.Key, max int, f func(k core.Key, v core.Value)) (token string, done bool, err error) {
	// The page buffers internally per attempt and replays to f only on
	// success, so a retried page never delivers duplicate mappings.
	var page []core.KV
	err = c.withRetry(func() error {
		page = page[:0]
		c.bw.WriteString("range ")
		writeInt(c.bw, int64(lo))
		c.bw.WriteByte(' ')
		writeInt(c.bw, int64(hi))
		c.bw.WriteByte(' ')
		writeInt(c.bw, int64(max))
		c.bw.WriteString("\r\n")
		if err := c.Flush(); err != nil {
			return err
		}
		var err error
		token, done, err = c.readValuesCursor(func(k core.Key, v core.Value) {
			page = append(page, core.KV{K: k, V: v})
		})
		return err
	})
	if err != nil {
		return "", false, err
	}
	for _, kv := range page {
		f(kv.K, kv.V)
	}
	return token, done, nil
}

// Page resumes a paginated iteration from a token returned by Range or
// a previous Page — against this server or any other serving an
// equivalent spec (tokens pin no server state).
func (c *Client) Page(token string, max int, f func(k core.Key, v core.Value)) (next string, done bool, err error) {
	// A page token is a pure position: re-requesting it is idempotent,
	// so transparent retry is safe. Same buffered replay as Range.
	var page []core.KV
	err = c.withRetry(func() error {
		page = page[:0]
		c.bw.WriteString("page ")
		c.bw.WriteString(token)
		c.bw.WriteByte(' ')
		writeInt(c.bw, int64(max))
		c.bw.WriteString("\r\n")
		if err := c.Flush(); err != nil {
			return err
		}
		var err error
		next, done, err = c.readValuesCursor(func(k core.Key, v core.Value) {
			page = append(page, core.KV{K: k, V: v})
		})
		return err
	})
	if err != nil {
		return "", false, err
	}
	for _, kv := range page {
		f(kv.K, kv.V)
	}
	return next, done, nil
}

// Stats fetches the server audit counters as a name -> value map
// (retried under Policy: a read of counters is idempotent).
func (c *Client) Stats() (map[string]uint64, error) {
	var m map[string]uint64
	err := c.withRetry(func() error {
		var err error
		m, err = c.statsOnce()
		return err
	})
	return m, err
}

func (c *Client) statsOnce() (map[string]uint64, error) {
	c.bw.WriteString("stats\r\n")
	if err := c.Flush(); err != nil {
		return nil, err
	}
	m := make(map[string]uint64)
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, err
		}
		if bytes.Equal(line, []byte("END")) {
			return m, nil
		}
		var fb [3][]byte
		fields, _ := splitFields(line, fb[:])
		if len(fields) != 3 || string(fields[0]) != "STAT" {
			if isErrorLine(line) {
				return nil, errorLine(line)
			}
			return nil, fmt.Errorf("server: unexpected stats line %q", line)
		}
		v, ok := parseInt(fields[2])
		if !ok {
			return nil, fmt.Errorf("server: unexpected stats line %q", line)
		}
		m[string(fields[1])] = uint64(v)
	}
}

// writeInt writes a decimal int64 without allocating.
func writeInt(bw *bufio.Writer, n int64) {
	var num [24]byte
	bw.Write(strconv.AppendInt(num[:0], n, 10))
}

// readFull is io.ReadFull over the client's buffered reader (local so
// the hot VALUE path avoids the io import dance).
func readFull(br *bufio.Reader, p []byte) (int, error) {
	n := 0
	for n < len(p) {
		m, err := br.Read(p[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
