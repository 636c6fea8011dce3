package server

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"csds/internal/core"
)

func parseOne(t *testing.T, input string) *Request {
	t.Helper()
	var req Request
	br := bufio.NewReaderSize(strings.NewReader(input), maxLineLen)
	if err := ReadRequest(br, &req); err != nil {
		t.Fatalf("ReadRequest(%q): io error %v", input, err)
	}
	return &req
}

func TestParseGetVariants(t *testing.T) {
	req := parseOne(t, "get 7\r\n")
	if req.Op != OpGet || len(req.Keys) != 1 || req.Keys[0] != 7 || req.WithCAS {
		t.Fatalf("get: %+v", req)
	}
	req = parseOne(t, "gets 1 2 3\r\n")
	if req.Op != OpGet || !req.WithCAS || len(req.Keys) != 3 {
		t.Fatalf("gets: %+v", req)
	}
	req = parseOne(t, "mget 10 20 30 40\n") // bare \n is accepted
	if req.Op != OpGet || len(req.Keys) != 4 || req.Keys[3] != 40 {
		t.Fatalf("mget: %+v", req)
	}
}

func TestParseSet(t *testing.T) {
	req := parseOne(t, "set 42 0 0 2\r\n42\r\n")
	if req.Op != OpSet || req.SetKey != 42 || req.SetVal != 42 || req.NoReply {
		t.Fatalf("set: %+v", req)
	}
	req = parseOne(t, "set 9 0 0 3 noreply\r\n-55\r\n")
	if req.Op != OpSet || req.SetKey != 9 || req.SetVal != -55 || !req.NoReply {
		t.Fatalf("set noreply: %+v", req)
	}
}

// TestParseSetBareLFKeepsFraming: a data block terminated by a bare \n
// must not eat the first byte of the next command.
func TestParseSetBareLFKeepsFraming(t *testing.T) {
	br := bufio.NewReaderSize(strings.NewReader("set 5 0 0 1\n7\nget 5\r\n"), maxLineLen)
	var req Request
	if err := ReadRequest(br, &req); err != nil || req.Op != OpSet || req.SetVal != 7 {
		t.Fatalf("set: err %v, %+v", err, req)
	}
	if err := ReadRequest(br, &req); err != nil || req.Op != OpGet || req.Keys[0] != 5 {
		t.Fatalf("following get lost framing: err %v, %+v", err, req)
	}
}

func TestParseRangePageDeleteMisc(t *testing.T) {
	req := parseOne(t, "range 10 500 64\r\n")
	if req.Op != OpRange || req.Lo != 10 || req.Hi != 500 || req.Max != 64 {
		t.Fatalf("range: %+v", req)
	}
	req = parseOne(t, "page sometoken 32\r\n")
	if req.Op != OpPage || req.Token != "sometoken" || req.Max != 32 {
		t.Fatalf("page: %+v", req)
	}
	req = parseOne(t, "delete 12 noreply\r\n")
	if req.Op != OpDelete || req.Keys[0] != 12 || !req.NoReply {
		t.Fatalf("delete: %+v", req)
	}
	for input, want := range map[string]Op{
		"stats\r\n":   OpStats,
		"version\r\n": OpVersion,
		"quit\r\n":    OpQuit,
	} {
		if req := parseOne(t, input); req.Op != want {
			t.Fatalf("%q: op %v, want %v", input, req.Op, want)
		}
	}
}

// TestParseErrors pins the protocol-error taxonomy: each malformed input
// must parse to OpError with the right response class and fatality —
// never an io error, never a panic.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		input string
		want  string // response line prefix
		fatal bool
	}{
		{"bogus 1 2\r\n", "ERROR", false},
		{"\r\n", "ERROR", false},
		{"get\r\n", "CLIENT_ERROR", false},
		{"get abc\r\n", "CLIENT_ERROR", false},
		{"get " + strings.Repeat("1 ", maxKeysPerReq+1) + "\r\n", "CLIENT_ERROR", false},
		{"get 99999999999999999999\r\n", "CLIENT_ERROR", false}, // int64 overflow
		{"set 1 0 0\r\n", "CLIENT_ERROR", false},
		{"set 1 0 0 -3\r\nxx\r\n", "CLIENT_ERROR", false},
		{"set 1 0 0 2 yesreply\r\nhi\r\n", "CLIENT_ERROR", false},
		{"set 1 0 0 4096\r\n", "CLIENT_ERROR", true},      // oversized block: fatal
		{"set 1 0 0 2\r\nx", "CLIENT_ERROR", true},        // truncated block: fatal
		{"set 1 0 0 2\r\nabXY\r\n", "CLIENT_ERROR", true}, // bad terminator: fatal
		{"delete\r\n", "CLIENT_ERROR", false},
		{"range 1 2\r\n", "CLIENT_ERROR", false},
		{"range 1 2 0\r\n", "CLIENT_ERROR", false},
		{"range 1 2 1000000\r\n", "CLIENT_ERROR", false},
		{"page tok 0\r\n", "CLIENT_ERROR", false},
		{"page " + strings.Repeat("A", maxTokenLen+1) + " 5\r\n", "CLIENT_ERROR", false},
		{"get 1 2 extra..", "CLIENT_ERROR", true}, // no newline before EOF
	}
	for _, c := range cases {
		req := parseOne(t, c.input)
		if req.Op != OpError || req.Err == nil {
			t.Fatalf("%q: parsed to op %v, want OpError", c.input, req.Op)
		}
		if !strings.HasPrefix(req.Err.Line, c.want) {
			t.Fatalf("%q: response %q, want prefix %q", c.input, req.Err.Line, c.want)
		}
		if req.Err.Fatal != c.fatal {
			t.Fatalf("%q: fatal = %v, want %v", c.input, req.Err.Fatal, c.fatal)
		}
	}
}

// TestParseRejectsSentinelKeys: the structures' reserved head/tail keys
// must never travel the wire as user keys.
func TestParseRejectsSentinelKeys(t *testing.T) {
	for _, input := range []string{
		"get -9223372036854775808\r\n", // KeyMin
		"get 9223372036854775807\r\n",  // KeyMax
	} {
		req := parseOne(t, input)
		if req.Op != OpError {
			t.Fatalf("%q: sentinel key accepted", input)
		}
	}
}

// TestParseOversizedLineIsFatal: a command line longer than the reader
// buffer cannot be resynchronized; the parser must flag a fatal error.
func TestParseOversizedLineIsFatal(t *testing.T) {
	input := "get " + strings.Repeat("1", maxLineLen*2) + "\r\n"
	req := parseOne(t, input)
	if req.Op != OpError || req.Err == nil || !req.Err.Fatal {
		t.Fatalf("oversized line: %+v, err %+v", req, req.Err)
	}
}

func TestParseIntEdges(t *testing.T) {
	cases := []struct {
		in string
		n  int64
		ok bool
	}{
		{"0", 0, true},
		{"-1", -1, true},
		{"+7", 7, true},
		{"9223372036854775807", 1<<63 - 1, true},
		{"-9223372036854775808", -1 << 63, true},
		{"9223372036854775808", 0, false},
		{"-9223372036854775809", 0, false},
		{"", 0, false},
		{"-", 0, false},
		{"+", 0, false},
		{"12x", 0, false},
		{"184467440737095516150", 0, false}, // way past uint64 cutoff
	}
	for _, c := range cases {
		n, ok := parseInt([]byte(c.in))
		if n != c.n || ok != c.ok {
			t.Fatalf("parseInt(%q) = (%d, %v), want (%d, %v)", c.in, n, ok, c.n, c.ok)
		}
	}
}

// TestReadRequestReusesKeys: the Keys slice must be truncated, not
// carried over, between requests parsed into the same Request value.
func TestReadRequestReusesKeys(t *testing.T) {
	br := bufio.NewReaderSize(strings.NewReader("get 1 2 3\r\nget 4\r\n"), maxLineLen)
	var req Request
	if err := ReadRequest(br, &req); err != nil || len(req.Keys) != 3 {
		t.Fatalf("first: err %v, keys %v", err, req.Keys)
	}
	if err := ReadRequest(br, &req); err != nil || len(req.Keys) != 1 || req.Keys[0] != 4 {
		t.Fatalf("second: err %v, keys %v", err, req.Keys)
	}
	if err := ReadRequest(br, &req); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

// TestReadRequestAllocs pins the parser's allocation budget: every
// request class parses without allocating, except page, whose token
// operand becomes a string.
func TestReadRequestAllocs(t *testing.T) {
	const runs = 100
	tok := core.CursorToken{Lo: 1, Hi: 100, Pos: 10}.Encode()
	for _, c := range []struct {
		line string
		op   Op
		max  float64
	}{
		{"get 1 2 3\r\n", OpGet, 0},
		{"set 42 0 0 3\r\n420\r\n", OpSet, 0},
		{"set 42 0 0 3 noreply\r\n420\r\n", OpSet, 0},
		{"delete 42\r\n", OpDelete, 0},
		{"range 0 100 16\r\n", OpRange, 0},
		{"page " + tok + " 16\r\n", OpPage, 1},
	} {
		// One copy per run plus AllocsPerRun's warm-up call.
		br := bufio.NewReaderSize(strings.NewReader(strings.Repeat(c.line, runs+1)), maxLineLen)
		var req Request
		allocs := testing.AllocsPerRun(runs, func() {
			if err := ReadRequest(br, &req); err != nil || req.Op != c.op {
				t.Fatalf("ReadRequest(%q) = op %v, err %v, proto %v", c.line, req.Op, err, req.Err)
			}
		})
		if allocs > c.max {
			t.Errorf("ReadRequest(%q): %.1f allocs per request, want <= %.0f", c.line, allocs, c.max)
		}
	}
}

// TestParseKeyRoundTrip: every key the client writer emits parses back.
func TestParseKeyRoundTrip(t *testing.T) {
	var bw bytes.Buffer
	w := bufio.NewWriter(&bw)
	for _, k := range []core.Key{1, -5, 1 << 40, -(1 << 40)} {
		bw.Reset()
		writeInt(w, int64(k))
		w.Flush()
		got, ok := parseKey(bw.Bytes())
		if !ok || got != k {
			t.Fatalf("round trip %d -> %q -> (%d, %v)", k, bw.String(), got, ok)
		}
	}
}
