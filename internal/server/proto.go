// Package server fronts any composite-spec structure of this module with
// the memcache text protocol over TCP — the system shape the paper uses
// to motivate CSDSs (Memcached's big concurrent hash table serving
// millions of connections). The package splits into three layers so each
// is testable without the one below:
//
//	proto.go    wire grammar: request parsing with hard frame limits —
//	            malformed, truncated or oversized input is a protocol
//	            error (or a fatal framing loss), never a panic;
//	handler.go  request execution against a core.Set: pipelined get
//	            bursts ride one core.Batcher MultiGet, range/page
//	            stream ordered pages and return the opaque resumable
//	            cursor token;
//	server.go   connection machinery: one session goroutine per
//	            connection that writes its own replies (the socket
//	            buffer is the backpressure), idle read/write deadlines,
//	            a global in-flight limit that sheds load with
//	            SERVER_ERROR busy, and graceful drain that finishes
//	            in-flight replies, unregisters every connection's EBR
//	            record and quiesces the domain.
//
// The dialect: keys and values are the module's 64-bit integers, written
// in decimal (the paper's workloads; larger payloads are "a pointer",
// which a wire protocol renders as the application's own indirection).
// set stores only absent keys — the paper's put semantics — answering
// NOT_STORED for a present key exactly like memcached's add; overwrite
// is delete + set. See README "Serving over the network" for the full
// protocol table.
package server

import (
	"bufio"
	"fmt"
	"io"

	"csds/internal/core"
)

// Frame limits. Input beyond them is rejected before any allocation is
// sized by attacker-controlled numbers.
const (
	// maxLineLen bounds one command line (also the bufio.Reader size, so
	// an overlong line surfaces as bufio.ErrBufferFull — fatal, since the
	// line tail would desynchronize the stream).
	maxLineLen = 4096
	// maxKeysPerReq bounds the key list of one get/gets/mget/delete.
	maxKeysPerReq = 256
	// maxDataLen bounds a set data block: a decimal int64 is at most 20
	// bytes including the sign.
	maxDataLen = 20
	// maxPageMax bounds the page budget of one range/page request.
	maxPageMax = 4096
	// maxTokenLen bounds the cursor-token operand (the real token is 48
	// bytes; anything longer is corrupt by construction).
	maxTokenLen = 128
)

// Op enumerates the request kinds of the dialect.
type Op uint8

const (
	// OpError is a request that failed to parse: Err holds the response
	// line and whether the framing is lost (connection must close).
	OpError Op = iota
	// OpGet is get/gets/mget: look up Keys (gets adds a cas column).
	OpGet
	// OpSet is set/add: insert SetKey -> SetVal if absent.
	OpSet
	// OpDelete removes Keys[0].
	OpDelete
	// OpRange opens a cursor over [Lo, Hi) and returns the first page of
	// at most Max mappings plus the resume token.
	OpRange
	// OpPage resumes a cursor from Token and returns the next page.
	OpPage
	// OpStats reports the server's audit counters.
	OpStats
	// OpVersion reports the server version line.
	OpVersion
	// OpQuit closes the connection.
	OpQuit
)

// Request is one parsed client request. The Keys slice is reused across
// ReadRequest calls on the same Request value.
type Request struct {
	Op      Op
	Keys    []core.Key // get/gets/mget/delete key list
	SetKey  core.Key   // set
	SetVal  core.Value // set
	Lo, Hi  core.Key   // range window
	Max     int        // range/page budget
	Token   string     // page resume token
	NoReply bool       // set/delete noreply: suppress the response
	WithCAS bool       // gets: include the cas column
	Err     *ProtoError
}

// ProtoError is a request-level protocol failure. Line is the complete
// response line (without CRLF) — "ERROR" for an unknown command,
// "CLIENT_ERROR ..." for a malformed one. Fatal marks framing loss: the
// response is still written, but the connection closes after it, because
// the byte stream can no longer be parsed safely.
type ProtoError struct {
	Line  string
	Fatal bool
}

func (e *ProtoError) Error() string { return e.Line }

// protoErrf builds a recoverable CLIENT_ERROR.
func protoErrf(format string, args ...any) *ProtoError {
	return &ProtoError{Line: "CLIENT_ERROR " + fmt.Sprintf(format, args...)}
}

// fatalErrf builds a framing-loss CLIENT_ERROR (connection closes).
func fatalErrf(format string, args ...any) *ProtoError {
	return &ProtoError{Line: "CLIENT_ERROR " + fmt.Sprintf(format, args...), Fatal: true}
}

// ReadRequest parses one request from br into req. The returned error is
// io-level only (io.EOF at a clean boundary, net errors, or a line
// overflowing br's buffer); every in-protocol problem — unknown command,
// malformed operand, oversized frame, bad data chunk — is reported as
// req.Op == OpError with req.Err set, so the caller answers it in
// request order like any other request. br must have been created with a
// buffer of at least maxLineLen bytes. A well-formed request parses
// without allocating, except a page request's token string.
func ReadRequest(br *bufio.Reader, req *Request) error {
	req.Op = OpError
	req.Keys = req.Keys[:0]
	req.NoReply = false
	req.WithCAS = false
	req.Err = nil

	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			// The rest of the oversized line is unread; no resync point.
			req.Err = fatalErrf("line exceeds %d bytes", maxLineLen)
			return nil
		}
		if err == io.EOF && len(line) > 0 {
			// A final fragment with no newline: not a full request.
			req.Err = fatalErrf("truncated command line")
			return nil
		}
		return err
	}
	line = trimCRLF(line)
	var fieldBuf [5][]byte // splitFields' storage: no allocation per request
	cmd, rest := nextField(line)
	if len(cmd) == 0 {
		req.Err = &ProtoError{Line: "ERROR"}
		return nil
	}

	switch string(cmd) {
	case "get", "gets", "mget":
		req.WithCAS = string(cmd) == "gets"
		for {
			f, r := nextField(rest)
			if len(f) == 0 {
				break
			}
			rest = r
			if len(req.Keys) >= maxKeysPerReq {
				req.Err = protoErrf("more than %d keys in one request", maxKeysPerReq)
				return nil
			}
			k, ok := parseKey(f)
			if !ok {
				req.Err = protoErrf("bad key %q", f)
				return nil
			}
			req.Keys = append(req.Keys, k)
		}
		if len(req.Keys) == 0 {
			req.Err = protoErrf("%s needs at least one key", cmd)
			return nil
		}
		req.Op = OpGet
		return nil

	case "set", "add":
		// set <key> <flags> <exptime> <bytes> [noreply]\r\n<data>\r\n
		fields, bad := splitFields(rest, fieldBuf[:5])
		if bad || len(fields) < 4 {
			req.Err = protoErrf("bad %s line: want <key> <flags> <exptime> <bytes> [noreply]", cmd)
			return nil
		}
		k, okK := parseKey(fields[0])
		n, okN := parseInt(fields[3])
		if len(fields) == 5 {
			if string(fields[4]) != "noreply" {
				req.Err = protoErrf("bad %s option %q", cmd, fields[4])
				return nil
			}
			req.NoReply = true
		}
		if !okN || n < 0 {
			req.Err = protoErrf("bad byte count %q", fields[3])
			return nil
		}
		if n > maxDataLen {
			// The declared block would have to be consumed to resync;
			// refuse to stream attacker-sized data and close instead.
			req.Err = fatalErrf("data block of %d bytes exceeds %d", n, maxDataLen)
			return nil
		}
		// Byte-wise through the concrete reader, so the block stays on the
		// stack (io.ReadFull's io.Reader parameter would move it to the
		// heap) and UnreadByte below can push back the last byte.
		var block [maxDataLen + 2]byte
		data := block[:n+2]
		for i := range data {
			b, err := br.ReadByte()
			if err == io.EOF {
				req.Err = fatalErrf("truncated data block")
				return nil
			}
			if err != nil {
				return err
			}
			data[i] = b
		}
		term := data[n:]
		if !(term[0] == '\r' && term[1] == '\n') && !(term[0] == '\n') {
			// A lone \n terminator means byte n+1 belongs to the next
			// command; only the strict CRLF keeps the framing exact, but
			// accepting \n\r? would mis-split. Treat precisely: CRLF ok;
			// "X\n" where X is the last data byte is only ok when the
			// declared count matched. Anything else lost the framing.
			req.Err = fatalErrf("bad data chunk terminator")
			return nil
		}
		if term[0] == '\n' {
			// Data was terminated by a bare \n after n bytes, meaning we
			// consumed one byte of the next line; push it back.
			if err := br.UnreadByte(); err != nil {
				req.Err = fatalErrf("bad data chunk terminator")
				return nil
			}
			data = data[:n+1]
		}
		v, okV := parseInt(trimCRLF(data))
		if !okK || !okV {
			if !okK {
				req.Err = protoErrf("bad key %q", fields[0])
			} else {
				req.Err = protoErrf("data block is not a decimal 64-bit value")
			}
			return nil
		}
		req.Op = OpSet
		req.SetKey = k
		req.SetVal = core.Value(v)
		return nil

	case "delete":
		fields, bad := splitFields(rest, fieldBuf[:2])
		if bad || len(fields) < 1 {
			req.Err = protoErrf("bad delete line: want <key> [noreply]")
			return nil
		}
		if len(fields) == 2 {
			if string(fields[1]) != "noreply" {
				req.Err = protoErrf("bad delete option %q", fields[1])
				return nil
			}
			req.NoReply = true
		}
		k, ok := parseKey(fields[0])
		if !ok {
			req.Err = protoErrf("bad key %q", fields[0])
			return nil
		}
		req.Op = OpDelete
		req.Keys = append(req.Keys, k)
		return nil

	case "range":
		// range <lo> <hi> <max>: first page of the window [lo, hi).
		fields, bad := splitFields(rest, fieldBuf[:3])
		if bad || len(fields) != 3 {
			req.Err = protoErrf("bad range line: want <lo> <hi> <max>")
			return nil
		}
		lo, okL := parseInt(fields[0])
		hi, okH := parseInt(fields[1])
		max, okM := parseInt(fields[2])
		if !okL || !okH {
			req.Err = protoErrf("bad range bound")
			return nil
		}
		if !okM || max < 1 || max > maxPageMax {
			req.Err = protoErrf("page budget must be in [1, %d]", maxPageMax)
			return nil
		}
		req.Op = OpRange
		req.Lo, req.Hi, req.Max = core.Key(lo), core.Key(hi), int(max)
		return nil

	case "page":
		// page <token> <max>: resume from an opaque cursor token.
		fields, bad := splitFields(rest, fieldBuf[:2])
		if bad || len(fields) != 2 {
			req.Err = protoErrf("bad page line: want <token> <max>")
			return nil
		}
		if len(fields[0]) > maxTokenLen {
			req.Err = protoErrf("cursor token longer than %d bytes", maxTokenLen)
			return nil
		}
		max, okM := parseInt(fields[1])
		if !okM || max < 1 || max > maxPageMax {
			req.Err = protoErrf("page budget must be in [1, %d]", maxPageMax)
			return nil
		}
		req.Op = OpPage
		req.Token = string(fields[0])
		req.Max = int(max)
		return nil

	case "stats":
		req.Op = OpStats
		return nil
	case "version":
		req.Op = OpVersion
		return nil
	case "quit":
		req.Op = OpQuit
		return nil
	}
	req.Err = &ProtoError{Line: "ERROR"}
	return nil
}

// trimCRLF strips one trailing \n and an optional \r before it.
func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// nextField returns the first space-separated field of b and the rest.
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && b[i] == ' ' {
		i++
	}
	j := i
	for j < len(b) && b[j] != ' ' {
		j++
	}
	return b[i:j], b[j:]
}

// splitFields splits b into at most len(dst) space-separated fields,
// stored in dst (caller-owned, so parsing allocates nothing) and
// returned as dst's filled prefix; bad reports leftover fields beyond
// len(dst) (a malformed line, not a truncation point).
func splitFields(b []byte, dst [][]byte) (fields [][]byte, bad bool) {
	for n := range dst {
		f, r := nextField(b)
		if len(f) == 0 {
			return dst[:n], false
		}
		dst[n] = f
		b = r
	}
	f, _ := nextField(b)
	return dst, len(f) != 0
}

// parseInt parses a decimal int64 without allocating. It rejects empty
// input, bare signs, overflow, and any non-digit byte.
func parseInt(b []byte) (int64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if b[0] == '-' || b[0] == '+' {
		neg = b[0] == '-'
		i++
		if i == len(b) {
			return 0, false
		}
	}
	const cutoff = (1 << 63) / 10 // magnitude parse in uint64 space
	var n uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			return 0, false
		}
		if n > cutoff {
			return 0, false
		}
		n = n*10 + uint64(d)
		if n > 1<<63 {
			return 0, false
		}
	}
	if neg {
		return -int64(n), true // 1<<63 wraps to MinInt64 exactly
	}
	if n == 1<<63 {
		return 0, false
	}
	return int64(n), true
}

// parseKey parses a decimal key and rejects the reserved sentinel values
// (the list structures' head/tail keys must never travel the wire).
func parseKey(b []byte) (core.Key, bool) {
	n, ok := parseInt(b)
	if !ok || n == int64(core.KeyMin) || n == int64(core.KeyMax) {
		return 0, false
	}
	return core.Key(n), true
}
