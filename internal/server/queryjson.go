package server

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"sitm/internal/indoor"
	"sitm/internal/store"
)

// JSON encoding of the query AST (store/query.go). Every node is a
// single-key object naming its operator; operands are the key's value:
//
//	{"cell": "hall003"}
//	{"region": {"layer": "floor", "id": "F1"}}
//	{"time_overlap": {"from": "2019-05-01T10:00:00Z", "to": "2019-05-01T11:00:00Z"}}
//	{"by_mo": "visitor-17"}
//	{"has_annotation": {"key": "activity", "value": "guided-tour"}}
//	{"through": ["hall003", "corridor-2", "room-9"]}
//	{"through_regions": [{"layer": "floor", "id": "F1"}, {"layer": "wing", "id": "W2"}]}
//	{"cell_during": {"cell": "hall003", "from": "...", "to": "..."}}
//	{"and": [<node>, ...]}   {"or": [<node>, ...]}
//
// A POST /v1/query body is {"query": <node>, "mos_only": <bool>}.
//
// The decoder is one hand-written pass over the body that builds the AST
// and its fingerprint together. It accepts exactly what encoding/json
// decoding of the body into {Query json.RawMessage; MOsOnly bool} and of
// each node into map[string]json.RawMessage and typed operands accepts:
//   - the body's first JSON value must be well-formed (encoding/json's
//     syntax, nesting at most 10 000 deep); bytes after it are ignored;
//   - operator keys match exactly; envelope and operand keys match
//     case-insensitively (Unicode simple folding, as struct fields do);
//     unknown operand and envelope keys are ignored;
//   - a repeated key keeps its last value; a node with two distinct keys
//     is rejected;
//   - a null operand decodes as its zero value (an empty name, no cells,
//     no children) and a null mos_only leaves it false; a null node is
//     rejected;
//   - strings decode escapes and coerce invalid UTF-8 to U+FFFD;
//   - nodes nest at most maxQueryDepth deep.
//
// The fingerprint is a canonical string over the decoded operands (times
// as exact unix seconds.nanoseconds — defined in every year, unlike
// UnixNano — strings quoted), so two JSON spellings of the same plan
// ("10:00:00Z" vs "10:00:00+00:00", reordered object keys) share one
// plan-cache entry. Operand order is preserved: and/or are not sorted,
// matching the compiler's semantics.

// maxQueryDepth bounds AST nesting so a hostile body cannot blow the
// stack during decode or compile.
const maxQueryDepth = 32

// maxJSONDepth is encoding/json's nesting limit: a body nested deeper is
// malformed even where the deep part is an ignored field.
const maxJSONDepth = 10000

// maxQueryBody bounds the bytes of a query body that are read.
const maxQueryBody = 1 << 20

// planRequest is a decoded POST /v1/query body; writeQueryReply
// (encode.go) writes its reply.
type planRequest struct {
	query   store.Query
	fp      string
	mosOnly bool
}

// bodyError fails a whole body: malformed JSON, or an envelope field of
// the wrong type. Any other decode error rejects only the "query" value it
// was found in, which a later "query" key may still replace.
type bodyError struct{ msg string }

func (e *bodyError) Error() string { return e.msg }

var errMissingQuery = errors.New(`missing "query"`)

// planDecoder is the state of one pass: the source, the read offset and
// the fingerprint being built. Decoded strings without escapes or invalid
// UTF-8 are substrings of src, so an AST shares one copy of its body.
type planDecoder struct {
	src string
	pos int
	fp  []byte
}

// scratchBufs recycles the byte buffers a query body is read into and
// its fingerprint is built in; both end as string copies, so a buffer is
// free again once its decode is done.
var scratchBufs = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// putScratch returns b, the buffer p held, to the pool unless it grew
// large.
func putScratch(p *[]byte, b []byte) {
	if cap(b) <= 64<<10 {
		*p = b[:0]
		scratchBufs.Put(p)
	}
}

// readQueryBody reads a query body, up to maxQueryBody bytes.
func readQueryBody(r io.Reader) (string, error) {
	p := scratchBufs.Get().(*[]byte)
	b := *p
	var err error
	for len(b) < maxQueryBody && err == nil {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(cap(b), maxQueryBody-len(b)))
		}
		var n int
		n, err = r.Read(b[len(b):min(cap(b), maxQueryBody)])
		b = b[:len(b)+n]
	}
	if err == io.EOF {
		err = nil
	}
	body := string(b)
	putScratch(p, b)
	return body, err
}

// decodeRequest decodes a POST /v1/query body.
func decodeRequest(body string) (planRequest, error) {
	p := scratchBufs.Get().(*[]byte)
	d := planDecoder{src: body, fp: *p}
	defer func() { putScratch(p, d.fp) }()
	var req planRequest
	d.space()
	if d.peek() != '{' {
		if d.pos == len(d.src) {
			return req, &bodyError{"body: empty"}
		}
		return req, &bodyError{"body: not a JSON object"}
	}
	qerr := errMissingQuery
	err := d.object(0, func(key string) error {
		switch {
		case strings.EqualFold(key, "query"):
			start := d.pos
			d.fp = d.fp[:0]
			q, err := d.node(0, 1)
			if qerr, err = d.settle(start, 1, err); err != nil {
				return err
			}
			req.query = q
		case strings.EqualFold(key, "mos_only"):
			switch {
			case d.literal("true"):
				req.mosOnly = true
			case d.literal("false"):
				req.mosOnly = false
			case d.literal("null"):
			default:
				return &bodyError{"body: mos_only must be a boolean"}
			}
		default:
			return d.skip(1)
		}
		return nil
	})
	if err != nil {
		return planRequest{}, err
	}
	if qerr != nil {
		return planRequest{}, qerr
	}
	req.fp = string(d.fp)
	return req, nil
}

// settle finishes a value that began at start, inside depth containers,
// whose decode returned err. A body error is returned as fatal. Any other
// is kept as the value's verdict, and the value is skipped from its start
// so the syntax of its remainder is still checked.
func (d *planDecoder) settle(start, depth int, err error) (verdict, fatal error) {
	if _, fatal := err.(*bodyError); err == nil || fatal {
		return nil, err
	}
	d.pos = start
	return err, d.skip(depth)
}

// node decodes the AST node at d.pos, nd levels below the root and inside
// depth JSON containers, appending its fingerprint.
func (d *planDecoder) node(nd, depth int) (store.Query, error) {
	if nd > maxQueryDepth {
		return nil, fmt.Errorf("query nested deeper than %d", maxQueryDepth)
	}
	if d.space(); d.peek() != '{' {
		return nil, errors.New("query node must be an object with one operator key")
	}
	mark := len(d.fp)
	var op string
	keys := 0 // distinct operator keys, counted up to 2
	var q store.Query
	var opErr error
	err := d.object(depth, func(key string) error {
		switch {
		case keys == 0:
			op, keys = key, 1
		case key != op:
			keys = 2
		}
		if keys > 1 {
			return d.skip(depth + 1)
		}
		// A repeated operator key replaces the earlier operand.
		d.fp = d.fp[:mark]
		start := d.pos
		var err error
		q, err = d.operand(op, nd, depth+1)
		opErr, err = d.settle(start, depth+1, err)
		return err
	})
	switch {
	case err != nil:
		return nil, err
	case keys != 1:
		return nil, errors.New("query node must have exactly one operator key")
	case opErr != nil:
		return nil, opErr
	}
	return q, nil
}

// Operand field names, matched case-insensitively.
var (
	regionFields     = [...]string{"layer", "id"}
	annotationFields = [...]string{"key", "value"}
	cellSpanFields   = [...]string{"cell", "from", "to"}
)

// operand decodes the operand of op at d.pos and appends the node's
// fingerprint.
func (d *planDecoder) operand(op string, nd, depth int) (store.Query, error) {
	switch op {
	case "cell", "by_mo":
		name, err := d.stringOrNull(op)
		if err != nil {
			return nil, err
		}
		if op == "cell" {
			d.appendCall("cell(", name)
			return store.Cell(name), nil
		}
		d.appendCall("mo(", name)
		return store.ByMO(name), nil
	case "region", "has_annotation":
		names := regionFields[:]
		if op == "has_annotation" {
			names = annotationFields[:]
		}
		var f [2]string
		if err := d.fields(op, depth, names, f[:]); err != nil {
			return nil, err
		}
		if op == "region" {
			d.appendCall("region(", f[:]...)
			return store.Region(f[0], f[1]), nil
		}
		d.appendCall("ann(", f[:]...)
		return store.HasAnnotation(f[0], f[1]), nil
	case "time_overlap", "cell_during":
		var f [3]string // cell, from, to
		names := cellSpanFields[:]
		if op == "time_overlap" {
			names = cellSpanFields[1:]
		}
		if err := d.fields(op, depth, names, f[3-len(names):]); err != nil {
			return nil, err
		}
		from, to, err := parseSpan(f[1], f[2])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", op, err)
		}
		if op == "time_overlap" {
			d.fp = append(d.fp, "time("...)
		} else {
			d.fp = append(strconv.AppendQuote(append(d.fp, "cellduring("...), f[0]), ',')
		}
		d.fp = append(appendInstant(append(appendInstant(d.fp, from), ','), to), ')')
		if op == "time_overlap" {
			return store.TimeOverlap(from, to), nil
		}
		return store.CellDuring(f[0], from, to), nil
	case "through":
		cells, err := list(d, op, depth, func() (string, error) { return d.stringOrNull(op) })
		if err != nil {
			return nil, err
		}
		d.appendCall("through(", cells...)
		return store.Through(cells...), nil
	case "through_regions":
		refs, err := list(d, op, depth, func() (indoor.RegionRef, error) {
			var f [2]string
			err := d.fields(op, depth+1, regionFields[:], f[:])
			return indoor.RegionRef{Layer: f[0], ID: f[1]}, err
		})
		if err != nil {
			return nil, err
		}
		d.fp = append(d.fp, "thregions("...)
		for i, ref := range refs {
			if i > 0 {
				d.fp = append(d.fp, ',')
			}
			d.fp = strconv.AppendQuote(append(strconv.AppendQuote(d.fp, ref.Layer), ':'), ref.ID)
		}
		d.fp = append(d.fp, ')')
		if refs == nil {
			refs = []indoor.RegionRef{} // null, like [], is no regions
		}
		return store.ThroughRegions(refs...), nil
	case "and", "or":
		d.fp = append(append(d.fp, op...), '(')
		n := 0
		kids, err := list(d, op, depth, func() (store.Query, error) {
			if n++; n > 1 {
				d.fp = append(d.fp, ',')
			}
			return d.node(nd+1, depth+1)
		})
		if err != nil {
			return nil, err
		}
		d.fp = append(d.fp, ')')
		if kids == nil {
			kids = []store.Query{} // null, like [], is no children
		}
		if op == "and" {
			return store.And(kids...), nil
		}
		return store.Or(kids...), nil
	}
	return nil, fmt.Errorf("unknown query operator %q", op)
}

// appendCall appends prefix, the quoted args joined by commas, and ")".
func (d *planDecoder) appendCall(prefix string, args ...string) {
	d.fp = append(d.fp, prefix...)
	for i, a := range args {
		if i > 0 {
			d.fp = append(d.fp, ',')
		}
		d.fp = strconv.AppendQuote(d.fp, a)
	}
	d.fp = append(d.fp, ')')
}

// appendInstant appends t as unix seconds, a dot and nine digits of
// nanoseconds: exact in every year, unlike UnixNano.
func appendInstant(b []byte, t time.Time) []byte {
	b = append(strconv.AppendInt(b, t.Unix(), 10), '.')
	var ns [9]byte
	for i, n := len(ns)-1, t.Nanosecond(); i >= 0; i, n = i-1, n/10 {
		ns[i] = byte('0' + n%10)
	}
	return append(b, ns[:]...)
}

// parseSpan parses a from/to pair of RFC3339 timestamps.
func parseSpan(fromStr, toStr string) (from, to time.Time, err error) {
	if from, err = time.Parse(time.RFC3339Nano, fromStr); err != nil {
		return
	}
	to, err = time.Parse(time.RFC3339Nano, toStr)
	return
}

// stringOrNull decodes a string operand of op; null is the empty string.
func (d *planDecoder) stringOrNull(op string) (string, error) {
	switch d.space(); d.peek() {
	case '"':
		return d.str()
	case 'n':
		if d.literal("null") {
			return "", nil
		}
	}
	return "", fmt.Errorf("%s: want a string", op)
}

// fields decodes an object operand of op into out, matching its keys
// against names case-insensitively. null leaves out as it is, as does a
// null field; other keys are skipped.
func (d *planDecoder) fields(op string, depth int, names, out []string) error {
	switch d.space(); d.peek() {
	case 'n':
		if d.literal("null") {
			return nil
		}
	case '{':
		return d.object(depth, func(key string) error {
			for i, name := range names {
				if !strings.EqualFold(key, name) {
					continue
				}
				if d.literal("null") {
					return nil
				}
				if d.peek() != '"' {
					return fmt.Errorf("%s: %s must be a string", op, name)
				}
				s, err := d.str()
				out[i] = s
				return err
			}
			return d.skip(depth + 1)
		})
	}
	return fmt.Errorf("%s: want an object", op)
}

// list decodes an array operand of op, each element by elem, into a fresh
// slice; null gives nil.
func list[T any](d *planDecoder, op string, depth int, elem func() (T, error)) ([]T, error) {
	switch d.space(); d.peek() {
	case 'n':
		if d.literal("null") {
			return nil, nil
		}
	case '[':
		var buf [8]T
		l := buf[:0]
		err := d.array(depth, func() error {
			v, err := elem()
			l = append(l, v)
			return err
		})
		if err != nil {
			return nil, err
		}
		out := make([]T, len(l))
		copy(out, l)
		return out, nil
	}
	return nil, fmt.Errorf("%s: want an array", op)
}

// ---- JSON syntax ---------------------------------------------------------

// syntax returns a body error for malformed JSON at the read offset.
func (d *planDecoder) syntax(what string) error {
	return &bodyError{fmt.Sprintf("body: %s at offset %d", what, d.pos)}
}

// peek returns the byte at the read offset, or 0 at the end.
func (d *planDecoder) peek() byte {
	if d.pos < len(d.src) {
		return d.src[d.pos]
	}
	return 0
}

// space skips JSON whitespace.
func (d *planDecoder) space() {
	for d.pos < len(d.src) {
		switch d.src[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// literal consumes word (true, false or null) if it is next.
func (d *planDecoder) literal(word string) bool {
	if d.space(); strings.HasPrefix(d.src[d.pos:], word) {
		d.pos += len(word)
		return true
	}
	return false
}

// object reads the object at d.pos, which lies inside depth containers,
// calling member once per member with the read offset at its value;
// member must consume the value. Errors from member are returned as they
// are.
func (d *planDecoder) object(depth int, member func(key string) error) error {
	if depth+1 > maxJSONDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++ // '{'
	if d.space(); d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("want , or } after an object member")
		}
	}
}

// array reads the array at d.pos, which lies inside depth containers,
// calling elem once per element with the read offset at it; elem must
// consume the element.
func (d *planDecoder) array(depth int, elem func() error) error {
	if depth+1 > maxJSONDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++ // '['
	if d.space(); d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.space(); d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("want , or ] after an array element")
		}
	}
}

// key reads an object key and its colon.
func (d *planDecoder) key() (string, error) {
	if d.space(); d.peek() != '"' {
		return "", d.syntax("want an object key")
	}
	k, err := d.str()
	if err != nil {
		return "", err
	}
	if d.space(); d.peek() != ':' {
		return "", d.syntax("want : after an object key")
	}
	d.pos++
	return k, nil
}

// skip consumes one value of any type, inside depth containers, checking
// only its syntax.
func (d *planDecoder) skip(depth int) error {
	switch d.space(); d.peek() {
	case '{':
		return d.object(depth, func(string) error { return d.skip(depth + 1) })
	case '[':
		return d.array(depth, func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.str()
		return err
	case 't', 'f', 'n':
		if d.literal("true") || d.literal("false") || d.literal("null") {
			return nil
		}
		return d.syntax("invalid literal")
	}
	return d.number()
}

// number consumes a JSON number.
func (d *planDecoder) number() error {
	s, i := d.src, d.pos
	digits := func() bool {
		n := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return d.syntax("invalid value")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return d.syntax("invalid number")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return d.syntax("invalid number")
		}
	}
	d.pos = i
	return nil
}

// str reads the string at d.pos. A string without escapes or invalid
// UTF-8 is returned as a substring of the source.
func (d *planDecoder) str() (string, error) {
	start := d.pos + 1
	for i := start; i < len(d.src); {
		c := d.src[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return d.src[start:i], nil
		case c == '\\' || c < ' ':
			return d.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRuneInString(d.src[i:])
			if r == utf8.RuneError && size == 1 {
				return d.unquote(start, i)
			}
			i += size
		}
	}
	d.pos = len(d.src)
	return "", d.syntax("unterminated string")
}

// unquote decodes the string that began at start, whose bytes before i
// need no decoding, as encoding/json does: escapes are decoded, an
// unpaired surrogate escape and each byte of invalid UTF-8 become U+FFFD,
// and a control character or malformed escape is a syntax error.
func (d *planDecoder) unquote(start, i int) (string, error) {
	s := d.src
	b := make([]byte, 0, i-start+16)
	b = append(b, s[start:i]...)
	for i < len(s) {
		c := s[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return string(b), nil
		case c < ' ':
			d.pos = i
			return "", d.syntax("control character in string")
		case c == '\\':
			if i+1 == len(s) {
				d.pos = len(s)
				return "", d.syntax("unterminated string")
			}
			switch e := s[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, ok := hex4(s, i+2)
				if !ok {
					d.pos = i
					return "", d.syntax("invalid \\u escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is consumed whole; otherwise the next
					// escape, if any, is decoded on its own.
					r2 := rune(-1)
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						if v, ok := hex4(s, i+2); ok {
							r2 = v
						}
					}
					if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
						r = pair
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.pos = i
				return "", d.syntax("invalid escape")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.pos = len(s)
	return "", d.syntax("unterminated string")
}

// hex4 parses the four hex digits at s[i:].
func hex4(s string, i int) (rune, bool) {
	if i+4 > len(s) {
		return 0, false
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
