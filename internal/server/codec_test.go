package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"holistic/internal/engine"
)

// Differential tests of the wire codec against encoding/json, which is both
// the codec's slow path and its specification: whatever bytes arrive, the
// decoders return what json.Unmarshal returns, and whatever values leave,
// the encoders' bytes mean what json.Marshal's mean.

// refDecodeRequest is the request decoder this package shipped before the
// fast path existed.
func refDecodeRequest(line []byte) (Request, error) {
	var req Request
	err := json.Unmarshal(line, &req)
	return req, err
}

// checkRequestLine holds decodeRequest to the reference on one line.
func checkRequestLine(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := decodeRequest(line)
	want, wantErr := refDecodeRequest(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decodeRequest(%q) err = %v, encoding/json err = %v", clip(line), gotErr, wantErr)
	}
	if gotErr == nil && got != want {
		t.Fatalf("decodeRequest(%q) = %+v, encoding/json = %+v", clip(line), got, want)
	}
}

func clip(b []byte) []byte {
	if len(b) > 200 {
		return append(append([]byte{}, b[:200]...), "..."...)
	}
	return b
}

// segments splits what a session reads the way the session does: lines, each
// trimmed, blanks dropped.
func segments(input []byte) [][]byte {
	var segs [][]byte
	for _, seg := range bytes.Split(input, []byte{'\n'}) {
		if seg = bytes.TrimSpace(seg); len(seg) > 0 {
			segs = append(segs, seg)
		}
	}
	return segs
}

// wireSeeds are request lines that sit on the border between the fast path
// and the fallback, or that encoding/json treats in a way easy to get wrong.
var wireSeeds = []string{
	`{"id":1,"stmt":"select a from r where a >= 3 and a < 9"}`,
	`{"id":1,"stmt":"select a from r where a \u003e= 3 and a \u003c 9"}`, // json.Marshal's spelling
	`{"stmt":"\\ping"}`, `{"id":7,"stmt":"\\stats"}`, `{}`, `{"id":5}`, ` { "id" : 5 , "stmt" : "x" } `,
	`{"id":1,"id":2,"stmt":"a","stmt":"b"}`, `{"ID":3,"Stmt":"select"}`, `{"id":3,"STMT":"x","stmt":"y"}`,
	`{"id":null,"stmt":null}`, `{"id":1e3,"stmt":"x"}`, `{"id":1.0}`, `{"id":-0,"stmt":"x"}`, `{"id":-1}`,
	`{"id":-9223372036854775808,"stmt":"min"}`, `{"id":9223372036854775807,"stmt":"max"}`,
	`{"id":9223372036854775808}`, `{"id":-9223372036854775809}`, `{"id":99999999999999999999}`,
	`{"id":007}`, `{"id":-}`, `{"id":"7"}`, `{"stmt":7}`, `{"id":true}`,
	`{"id":1,"stmt":"x"} trailing`, `{"id":1,"stmt":"x"}{"id":2}`, `{"id":1,"stmt":"x"},`, `{"id":1,}`, `{,}`,
	`{"id":1 "stmt":"x"}`, `{"id":1,"stmt":"x"`, `{"id":1,"stmt":"x`, `{"stmt":"tab	inside"}`, "{\"stmt\":\"nul\x00\"}",
	`{"stmt":"caf` + "\xc3\xa9" + `"}`, "{\"stmt\":\"bad\xff utf8\"}", `{"stmt":"quote \" inside"}`, `{"stmt":"😀"}`,
	`{"unknown":1,"stmt":"x"}`, `{"stmt":"x","extra":{"nested":[1,2]}}`, `{"":1}`, `[1,2]`, `"stmt"`, `null`, `{`,
	"select a from r where a >= 1 and a < 5", `\ping`, `\pieces r a`, "insert into r values (5)", "delete from r where a = 5",
	"{\"id\":1,\"stmt\":\"\\\\ping\"}\n\n  \n{\"id\":2,\"stmt\":\"select a from r\"}\r\nselect count(*) from r where a > 2",
	`{"id":4,"stmt":"` + strings.Repeat("x", MaxLineBytes-64) + `"}`, // a line just under the limit
	strings.Repeat("y", MaxLineBytes+16),                             // and one over it
}

// FuzzServerLine feeds arbitrary bytes to a session. Every line of them must
// decode exactly as encoding/json decodes it, and the session must answer
// each with exactly one well-formed response line — never panic, never go
// quiet, never emit something a client cannot decode.
func FuzzServerLine(f *testing.F) {
	for _, s := range wireSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		segs := segments(input)
		tooLong := false
		for _, seg := range bytes.Split(input, []byte{'\n'}) {
			tooLong = tooLong || len(seg) >= MaxLineBytes-1
		}
		for _, seg := range segs {
			if seg[0] == '{' {
				checkRequestLine(t, seg)
			}
		}

		eng := engine.New(engine.Config{Strategy: engine.StrategyHolistic, Shards: 2, TargetPieceSize: 4})
		defer eng.Close()
		tab, err := eng.CreateTable("r")
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.AddColumnFromSlice("a", []int64{5, 3, 8, 1, 9, 2, 7, 7, 4, 6}); err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Engine: eng})
		near, far := net.Pipe()
		defer near.Close()
		srv.wg.Add(1)
		go srv.session(far)
		const sentinel = math.MinInt64 + 77
		go func() { // a session that hangs up early fails these writes; the reader notices
			near.Write(input)
			near.Write([]byte("\n{\"id\":-9223372036854775731,\"stmt\":\"\\\\ping\"}\n"))
		}()

		near.SetReadDeadline(time.Now().Add(30 * time.Second))
		br := bufio.NewReaderSize(near, 1<<16)
		var last Response
		for i := 0; i <= len(segs); i++ {
			line, err := br.ReadBytes('\n')
			if err != nil {
				if tooLong && strings.Contains(last.Error, "exceeds") {
					return // the session said why and hung up
				}
				t.Fatalf("response %d of %d: %v", i+1, len(segs)+1, err)
			}
			var want Response
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("response %d is not a JSON Response: %q: %v", i+1, clip(line), err)
			}
			last, err = decodeResponse(line)
			if err != nil || !sameResponse(last, want) {
				t.Fatalf("decodeResponse(%q) = %+v, %v; encoding/json = %+v", clip(line), last, err, want)
			}
		}
		if last.ID != sentinel || last.Kind != "pong" {
			t.Fatalf("response %d should be the sentinel's pong, got %+v", len(segs)+1, last)
		}
	})
}

// sameResponse is == on Responses whose Stats payloads are compared by
// value.
func sameResponse(a, b Response) bool {
	if (a.Stats == nil) != (b.Stats == nil) {
		return false
	}
	if a.Stats != nil {
		ja, _ := json.Marshal(a.Stats)
		jb, _ := json.Marshal(b.Stats)
		if !bytes.Equal(ja, jb) {
			return false
		}
	}
	a.Stats, b.Stats = nil, nil
	return a == b
}

// FuzzWireResponse drives both directions of both shapes with arbitrary
// field values: the append encoders' output must decode (by encoding/json)
// to what json.Marshal's output decodes to — the value itself whenever its
// strings are valid UTF-8 — and the fast decoders must read json.Marshal's
// spelling, escapes and all, to the same value.
func FuzzWireResponse(f *testing.F) {
	f.Add(int64(1), true, "select", int64(16), int64(123456), uint32(0), false, int64(3), "", "", int64(0), 0.0, "select a from r where a >= 1 and a < 17")
	f.Add(int64(0), false, "", int64(0), int64(0), uint32(0), false, int64(0), `sqlmini: expected "from" at position 9, got "frm"`, "", int64(0), 0.0, `\ping`)
	f.Add(int64(math.MinInt64), true, "insert", int64(math.MaxInt64), int64(math.MinInt64), uint32(math.MaxUint32), true, int64(math.MaxInt64), "", CodeReadOnly, int64(math.MinInt64), 0.0, "")
	f.Add(int64(-1), true, "pieces", int64(0), int64(0), uint32(0), false, int64(0), "", "", int64(4096), 255.9375, "a < b && c > d")
	f.Add(int64(9), false, "k\"ind", int64(-5), int64(-0), uint32(1), true, int64(-1), "café   \xff <&>", "c\\ode", int64(1), math.Copysign(0, -1), "tab\there \x00 \x7f")
	f.Add(int64(2), true, "stats", int64(0), int64(0), uint32(0), false, int64(0), "", "", int64(0), math.NaN(), "é")
	f.Fuzz(func(t *testing.T, id int64, ok bool, kind string, count, sum int64, row uint32, matched bool,
		elapsed int64, errText, code string, pieces int64, avg float64, stmt string) {
		r := Response{ID: id, OK: ok, Kind: kind, Count: int(count), Sum: sum, Row: row, Matched: matched,
			ElapsedUS: elapsed, Error: errText, Code: code, Pieces: int(pieces), AvgPiece: avg}
		ref, refErr := json.Marshal(r)
		enc, encErr := appendResponse(nil, &r)
		if (refErr == nil) != (encErr == nil) {
			t.Fatalf("appendResponse(%+v) err = %v, json.Marshal err = %v", r, encErr, refErr)
		}
		if refErr == nil {
			var viaEnc, viaRef Response
			if err := json.Unmarshal(enc, &viaEnc); err != nil {
				t.Fatalf("appendResponse(%+v) wrote %q: %v", r, enc, err)
			}
			if err := json.Unmarshal(ref, &viaRef); err != nil {
				t.Fatal(err)
			}
			if viaEnc != viaRef {
				t.Fatalf("appendResponse(%+v) wrote %q = %+v; json.Marshal wrote %q = %+v", r, enc, viaEnc, ref, viaRef)
			}
			if utf8.ValidString(kind) && utf8.ValidString(errText) && utf8.ValidString(code) && viaEnc != r {
				t.Fatalf("appendResponse(%+v) wrote %q, which reads back %+v", r, enc, viaEnc)
			}
			for _, line := range [][]byte{enc, ref} {
				if got, err := decodeResponse(line); err != nil || got != viaRef {
					t.Fatalf("decodeResponse(%q) = %+v, %v; want %+v", line, got, err, viaRef)
				}
			}
		}

		q := Request{ID: id, Stmt: stmt}
		ref, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		enc, err = appendRequest(nil, q)
		if err != nil {
			t.Fatalf("appendRequest(%+v): %v", q, err)
		}
		want, err := refDecodeRequest(ref)
		if err != nil {
			t.Fatal(err)
		}
		if utf8.ValidString(stmt) && want != q {
			t.Fatalf("json round trip of %+v = %+v", q, want)
		}
		for _, line := range [][]byte{enc, ref} {
			if got, err := refDecodeRequest(line); err != nil || got != want {
				t.Fatalf("encoding/json reads %q as %+v, %v; want %+v", line, got, err, want)
			}
			if got, err := decodeRequest(line); err != nil || got != want {
				t.Fatalf("decodeRequest(%q) = %+v, %v; want %+v", line, got, err, want)
			}
		}
	})
}

// TestFastPathTaken guards the point of the codec: the lines the server and
// client actually exchange for a select stay off encoding/json in all four
// directions, including the '<' and '>' every range select contains.
func TestFastPathTaken(t *testing.T) {
	q := Request{ID: 42, Stmt: "select a from r where a >= 1048577 and a < 1048593"}
	line, err := appendRequest(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":42,"stmt":"select a from r where a >= 1048577 and a < 1048593"}`; string(line) != want {
		t.Fatalf("request line %q, want %q", line, want)
	}
	var gotQ Request
	if !fastDecodeRequest(line, &gotQ) || gotQ != q {
		t.Fatalf("fastDecodeRequest(%q) declined or misread: %+v", line, gotQ)
	}
	r := Response{ID: 42, OK: true, Kind: "select", Count: 16, Sum: 16777352, ElapsedUS: 3}
	line, err = appendResponse(nil, &r)
	if err != nil {
		t.Fatal(err)
	}
	if ref, _ := json.Marshal(r); !bytes.Equal(line, ref) {
		t.Fatalf("response line %q, json.Marshal writes %q", line, ref)
	}
	var gotR Response
	if !fastDecodeResponse(line, &gotR) || gotR != r {
		t.Fatalf("fastDecodeResponse(%q) declined or misread: %+v", line, gotR)
	}
	fail := errResponse(7, ErrOverloaded)
	if line, _ = appendResponse(nil, &fail); !fastDecodeResponse(line, &gotR) {
		t.Fatalf("fastDecodeResponse(%q) declined", line)
	}
}

// TestResponseEncodeAllocs: a select's response is written into the
// connection's buffer with no allocation.
func TestResponseEncodeAllocs(t *testing.T) {
	r := Response{ID: 42, OK: true, Kind: "select", Count: 16, Sum: 16777352, ElapsedUS: 3}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = appendResponse(buf[:0], &r)
	}); n != 0 {
		t.Fatalf("appendResponse allocates %v times per response, want 0", n)
	}
}

// TestRequestDecodeAllocs: a request line costs its Stmt string and nothing
// else.
func TestRequestDecodeAllocs(t *testing.T) {
	line := []byte(`{"id":42,"stmt":"select a from r where a >= 1048577 and a < 1048593"}`)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := parseRequest(line); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("parseRequest allocates %v times per line, want <= 1", n)
	}
}

// TestClientRecvLongLines pipelines requests at a peer whose responses
// alternate between a few bytes and more than 64 KiB — an error text that
// quotes a long token is one such line. Recv must return each whole, in
// order, however they straddle its read buffer.
func TestClientRecvLongLines(t *testing.T) {
	const n = 12
	sizeOf := func(id int64) int { return int(id%3) * 40_000 } // 0, 40 000, 80 000 bytes of payload
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() { // the peer: answers request id with an error text of sizeOf(id) bytes
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			req, err := decodeRequest(sc.Bytes())
			if err != nil {
				return
			}
			text := strings.Repeat("e", sizeOf(req.ID))
			if req.ID%2 == 0 {
				text += ` "quoted"` // half of them by way of encoding/json
			}
			out, _ := appendResponse(nil, &Response{ID: req.ID, Error: text})
			conn.Write(append(out, '\n'))
		}
	}()
	c, err := Dial(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < n; i++ {
		if _, err := c.Send("select a from r"); err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(1); id <= n; id++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", id, err)
		}
		text := strings.TrimSuffix(resp.Error, ` "quoted"`)
		if resp.ID != id || resp.OK || len(text) != sizeOf(id) || strings.Trim(text, "e") != "" {
			t.Fatalf("response %d: id %d, ok %v, %d bytes of error text; want %d", id, resp.ID, resp.OK, len(text), sizeOf(id))
		}
	}
}
