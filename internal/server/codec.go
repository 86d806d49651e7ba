package server

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
)

// The wire codec. Request and Response are fixed, flat shapes, so the common
// case needs no reflection: the append functions write a line straight into
// the caller's reusable buffer and the decode functions read one in a single
// strict pass. The fast paths cover the canonical spelling only — one flat
// object of known keys, ASCII strings with no escapes, canonical integers,
// true/false. Anything else (escapes, unknown or case-folded keys, null,
// non-ASCII, floats, a stats payload) goes to encoding/json untouched, so
// every input means what encoding/json says it means; FuzzServerLine and
// FuzzWireResponse hold the two paths to that.
//
// The encoders write '<', '>' and '&' as themselves. encoding/json escapes
// them (\u003c) for HTML's sake, and an escaped string would push the peer
// onto its slow path — every range select carries a ">=" and a "<".

// plain reports whether s can travel between quotes verbatim.
func plain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendRequest appends r's wire line, without the newline. Every member is
// written with a comma in front; the first comma then becomes the brace.
func appendRequest(dst []byte, r Request) ([]byte, error) {
	if !plain(r.Stmt) {
		b, err := json.Marshal(r)
		return append(dst, b...), err
	}
	start := len(dst)
	if r.ID != 0 {
		dst = strconv.AppendInt(append(dst, `,"id":`...), r.ID, 10)
	}
	dst = append(append(append(dst, `,"stmt":"`...), r.Stmt...), '"', '}')
	dst[start] = '{'
	return dst, nil
}

// appendResponse appends r's wire line, without the newline. Fields appear
// in struct order and zero values are omitted, as encoding/json does it.
func appendResponse(dst []byte, r *Response) ([]byte, error) {
	if r.Stats != nil || math.Float64bits(r.AvgPiece) != 0 || !plain(r.Kind) || !plain(r.Error) || !plain(r.Code) {
		b, err := json.Marshal(*r) // boxing a copy keeps the caller's r off the heap
		return append(dst, b...), err
	}
	start := len(dst)
	str := func(key, v string) {
		if v != "" {
			dst = append(append(append(dst, key...), v...), '"')
		}
	}
	num := func(key string, v int64) {
		if v != 0 {
			dst = strconv.AppendInt(append(dst, key...), v, 10)
		}
	}
	num(`,"id":`, r.ID)
	dst = strconv.AppendBool(append(dst, `,"ok":`...), r.OK)
	str(`,"kind":"`, r.Kind)
	num(`,"count":`, int64(r.Count))
	num(`,"sum":`, r.Sum)
	num(`,"row":`, int64(r.Row))
	if r.Matched {
		dst = append(dst, `,"matched":true`...)
	}
	num(`,"elapsed_us":`, r.ElapsedUS)
	str(`,"error":"`, r.Error)
	str(`,"code":"`, r.Code)
	num(`,"pieces":`, int64(r.Pieces))
	dst[start] = '{'
	return append(dst, '}'), nil
}

// decodeRequest decodes one JSON request line.
func decodeRequest(line []byte) (req Request, err error) {
	if !fastDecodeRequest(line, &req) {
		var slow Request // a variable of its own: only this one escapes to the heap
		err = json.Unmarshal(line, &slow)
		req = slow
	}
	return req, err
}

// decodeResponse decodes one JSON response line.
func decodeResponse(line []byte) (resp Response, err error) {
	if !fastDecodeResponse(line, &resp) {
		var slow Response
		err = json.Unmarshal(line, &slow)
		resp = slow
	}
	return resp, err
}

// fastDecodeRequest fills req from line if line is canonical; on false req
// may be partly filled. A repeated key overwrites, as in encoding/json.
func fastDecodeRequest(line []byte, req *Request) bool {
	s := wireScanner{b: line}
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return scanInt(&s, &req.ID)
		case "stmt":
			return s.str(&req.Stmt)
		}
		return false
	})
}

// fastDecodeResponse is fastDecodeRequest for a Response.
func fastDecodeResponse(line []byte, r *Response) bool {
	s := wireScanner{b: line}
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "id":
			return scanInt(&s, &r.ID)
		case "ok":
			return s.boolean(&r.OK)
		case "kind":
			return s.str(&r.Kind)
		case "count":
			return scanInt(&s, &r.Count)
		case "sum":
			return scanInt(&s, &r.Sum)
		case "row":
			return scanInt(&s, &r.Row)
		case "matched":
			return s.boolean(&r.Matched)
		case "elapsed_us":
			return scanInt(&s, &r.ElapsedUS)
		case "error":
			return s.str(&r.Error)
		case "code":
			return s.str(&r.Code)
		case "pieces":
			return scanInt(&s, &r.Pieces)
		}
		return false // stats, avg_piece, or a key the envelope does not define
	})
}

// wireScanner reads the canonical subset of JSON described above. A method
// reports false on anything else, malformed input included; encoding/json
// then gives the verdict.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) space() {
	for s.i < len(s.b) && (s.b[s.i] == ' ' || s.b[s.i] == '\t' || s.b[s.i] == '\r' || s.b[s.i] == '\n') {
		s.i++
	}
}

// eat consumes c, and the white space around it, if it is next.
func (s *wireScanner) eat(c byte) bool {
	s.space()
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	s.space()
	return true
}

// object walks `{"key":value,...}` to the end of the input, calling field
// with each key and the scanner positioned on the value.
func (s *wireScanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return s.i == len(s.b)
	}
	for {
		key, ok := s.quoted()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return s.i == len(s.b)
		}
		if !s.eat(',') {
			return false
		}
	}
}

// quoted reads a string of ASCII with no escapes and returns its contents,
// aliasing the input.
func (s *wireScanner) quoted() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	v := s.b[s.i+1:]
	n := bytes.IndexByte(v, '"')
	if n < 0 || !plain(v[:n]) { // a backslash before the quote is not plain either
		return nil, false
	}
	s.i += n + 2
	return v[:n], true
}

func (s *wireScanner) str(dst *string) bool {
	v, ok := s.quoted()
	*dst = string(v)
	return ok
}

// scanInt reads -?(0|[1-9][0-9]*) into dst if dst can hold it. "-0", a
// fraction or an exponent is left to encoding/json.
func scanInt[T int | int64 | uint32](s *wireScanner, dst *T) bool {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	if s.i == digits || s.b[digits] == '0' && s.i-start > 1 {
		return false
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
	*dst = T(n)
	return err == nil && int64(*dst) == n
}

func (s *wireScanner) boolean(dst *bool) bool {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		*dst, s.i = true, s.i+4
	case bytes.HasPrefix(rest, []byte("false")):
		*dst, s.i = false, s.i+5
	default:
		return false
	}
	return true
}
