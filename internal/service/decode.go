package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
)

// Request decoding, shared by the replica and the router. Both read a
// body whole under the same cap before they look at it, so an
// oversized body gets one answer from either tier. A diagnosis body
// then goes to a scanner that takes only the plain shape clients send
// and decodes it in one pass; a body the scanner declines goes to
// encoding/json, which owns every error text and every odd but valid
// spelling.

// readBody reads r's whole body under a limit-byte cap. On failure it
// answers 400 and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return nil, false
	}
	return body, true
}

// readAll reads r to EOF and returns what io.ReadAll would. A body
// whose length n is known (its Content-Length; -1 when unknown) and
// within limit gets one buffer of n bytes plus one spare, so the read
// that meets EOF needs no growth; any other body grows from
// io.ReadAll's 512 bytes.
func readAll(r io.Reader, n, limit int64) ([]byte, error) {
	if n < 0 || n > limit {
		return io.ReadAll(r)
	}
	b := make([]byte, 0, n+1)
	for {
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// strictJSON decodes the first JSON value of body into v, rejecting
// unknown fields; anything after that value is ignored.
func strictJSON(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// decodeJSON decodes body into v with strictJSON. On failure it
// answers 400 and reports false.
func decodeJSON(w http.ResponseWriter, body []byte, v any) bool {
	if err := strictJSON(body, v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// decodeStrict reads r's body under a limit-byte cap and decodes it
// with decodeJSON. On failure it answers 400 and reports false.
func decodeStrict(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, ok := readBody(w, r, limit)
	return ok && decodeJSON(w, body, v)
}

// decodeDiagnose reads and decodes a /v1/diagnose body into req. On
// failure it answers 400 and reports false.
func decodeDiagnose(w http.ResponseWriter, r *http.Request, req *DiagnoseRequest) bool {
	body, ok := readBody(w, r, maxRequestBytes)
	if !ok {
		return false
	}
	s := scanner{b: body, src: string(body)}
	if s.object(req, true) && s.end() {
		return true
	}
	*req = DiagnoseRequest{}
	return decodeJSON(w, body, req)
}

// decodeBatch reads and decodes a /v1/diagnose/batch body into breq.
// On failure it answers 400 and reports false.
func decodeBatch(w http.ResponseWriter, r *http.Request, breq *BatchRequest) bool {
	body, ok := readBody(w, r, maxRequestBytes)
	if !ok {
		return false
	}
	s := scanner{b: body, src: string(body)}
	if reqs, _, ok := s.batch(true); ok {
		breq.Requests = reqs
		return true
	}
	return decodeJSON(w, body, breq)
}

// keyOf peeks the routing key (dictionary id) out of a diagnose body
// or one batch item. Errors are deliberately ignored: a malformed body
// routes to the empty key's owner, and the replica owns rejection.
func keyOf(item []byte) string {
	var peek DiagnoseRequest
	s := scanner{b: item}
	if s.object(&peek, false) && s.end() {
		return peek.Dict
	}
	var tolerant struct {
		Dict string `json:"dict"`
	}
	_ = json.Unmarshal(item, &tolerant)
	return tolerant.Dict
}

// splitBatch returns the items of a batch body, as raw bytes, and
// their routing keys. It reports false for a body a replica's strict
// decode rejects, items included: split, each owner would judge only
// its own items, and the answer would name the bad item of whichever
// owner sorts first rather than the body's first error.
func splitBatch(body []byte) (items []json.RawMessage, keys []string, ok bool) {
	s := scanner{b: body}
	if reqs, spans, ok := s.batch(false); ok {
		items = make([]json.RawMessage, len(reqs))
		keys = make([]string, len(reqs))
		for i, sp := range spans {
			items[i] = body[sp.lo:sp.hi]
			keys[i] = reqs[i].Dict
		}
		return items, keys, true
	}
	var breq BatchRequest
	if strictJSON(body, &breq) != nil {
		return nil, nil, false
	}
	var raw struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if strictJSON(body, &raw) != nil {
		return nil, nil, false
	}
	keys = make([]string, len(breq.Requests))
	for i, req := range breq.Requests {
		keys[i] = req.Dict
	}
	return raw.Requests, keys, true
}

// scanner decodes the subset of diagnosis bodies for which it can
// produce exactly the value decodeJSON would, and declines the rest:
//
//   - the value is one object, and only whitespace follows it;
//   - every key is one of the request's JSON tags, spelled exactly,
//     and appears at most once (encoding/json also matches other
//     cases and lets a repeat win);
//   - every string is printable ASCII with no escapes, so its bytes
//     are its value;
//   - k and max_k are integers of at most 18 digits with no fraction or
//     exponent, so they fit an int; auto_k is true or false;
//   - no value is null.
type scanner struct {
	b []byte
	// src is string(b) when the decoded strings are kept: each one is
	// a substring of it, so a request costs one string copy.
	src string
	i   int
}

// span is the byte range [lo, hi) of one batch item.
type span struct{ lo, hi int }

// Field bits of one request object, for the at-most-once rule.
const (
	fieldDict = 1 << iota
	fieldMethod
	fieldBehavior
	fieldK
	fieldAutoK
	fieldMaxK
)

// skipSpace moves past JSON whitespace.
func (s *scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace and reports whether it was
// there.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// str scans a string of printable ASCII without escapes and returns the
// byte range of its contents.
func (s *scanner) str() (lo, hi int, ok bool) {
	if !s.next('"') {
		return 0, 0, false
	}
	lo = s.i
	n := bytes.IndexByte(s.b[lo:], '"')
	if n < 0 {
		return 0, 0, false
	}
	hi = lo + n
	for _, c := range s.b[lo:hi] {
		if c-' ' > '~'-' ' || c == '\\' {
			return 0, 0, false
		}
	}
	s.i = hi + 1
	return lo, hi, true
}

// text returns the string the bytes [lo, hi) hold.
func (s *scanner) text(lo, hi int) string {
	if s.src != "" {
		return s.src[lo:hi]
	}
	return string(s.b[lo:hi])
}

// stringValue scans a string value, storing it in *dst when keep is set.
func (s *scanner) stringValue(dst *string, keep bool) bool {
	lo, hi, ok := s.str()
	if ok && keep {
		*dst = s.text(lo, hi)
	}
	return ok
}

// intValue scans an integer of at most 18 digits, which fits an int64, into
// *dst. A fraction or exponent after it fails the object scan at its
// next delimiter.
func (s *scanner) intValue(dst *int) bool {
	s.skipSpace()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start, n := s.i, 0
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		n = n*10 + int(s.b[s.i]-'0')
	}
	if d := s.i - start; d == 0 || d > 18 || d > 1 && s.b[start] == '0' {
		return false
	}
	if neg {
		n = -n
	}
	*dst = n
	return true
}

// boolValue scans true or false into *dst.
func (s *scanner) boolValue(dst *bool) bool {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += 4
		*dst = true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += 5
		*dst = false
	default:
		return false
	}
	return true
}

// once marks field seen and reports whether it was not yet.
func once(seen *int, field int) bool {
	if *seen&field != 0 {
		return false
	}
	*seen |= field
	return true
}

// object scans one request object into req. With keep false it
// copies out no string but req.Dict, the routing key: the method and
// the behavior rows are checked and dropped.
//
//ddd:hot
func (s *scanner) object(req *DiagnoseRequest, keep bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	seen := 0
	for {
		lo, hi, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		switch string(s.b[lo:hi]) {
		case "dict":
			ok = once(&seen, fieldDict) && s.stringValue(&req.Dict, true)
		case "method":
			ok = once(&seen, fieldMethod) && s.stringValue(&req.Method, keep)
		case "behavior":
			ok = once(&seen, fieldBehavior) && s.rows(req, keep)
		case "k":
			ok = once(&seen, fieldK) && s.intValue(&req.K)
		case "auto_k":
			ok = once(&seen, fieldAutoK) && s.boolValue(&req.AutoK)
		case "max_k":
			ok = once(&seen, fieldMaxK) && s.intValue(&req.MaxK)
		default:
			ok = false
		}
		if !ok {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// rows scans the behavior array, storing its rows in req when keep is
// set.
//
//ddd:hot
func (s *scanner) rows(req *DiagnoseRequest, keep bool) bool {
	if !s.next('[') {
		return false
	}
	// Collect the rows on the stack first, so the kept slice is
	// allocated once at its final length.
	var buf [64]string
	rows := buf[:0]
	if !s.next(']') {
		for {
			lo, hi, ok := s.str()
			if !ok {
				return false
			}
			if keep {
				rows = append(rows, s.text(lo, hi))
			}
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return false
			}
		}
	}
	if keep {
		req.Behavior = make([]string, len(rows))
		copy(req.Behavior, rows)
	}
	return true
}

// batch scans a whole batch body, {"requests":[...]}, and returns its
// requests as object fills them and each one's bytes.
func (s *scanner) batch(keep bool) (reqs []DiagnoseRequest, spans []span, ok bool) {
	if !s.next('{') {
		return nil, nil, false
	}
	if !s.next('}') {
		lo, hi, ok := s.str()
		if !ok || string(s.b[lo:hi]) != "requests" || !s.next(':') || !s.next('[') {
			return nil, nil, false
		}
		reqs = []DiagnoseRequest{}
		if !s.next(']') {
			for {
				s.skipSpace()
				start := s.i
				reqs = append(reqs, DiagnoseRequest{})
				if !s.object(&reqs[len(reqs)-1], keep) {
					return nil, nil, false
				}
				spans = append(spans, span{start, s.i})
				if s.next(']') {
					break
				}
				if !s.next(',') {
					return nil, nil, false
				}
			}
		}
		if !s.next('}') {
			return nil, nil, false
		}
	}
	if !s.end() {
		return nil, nil, false
	}
	return reqs, spans, true
}
