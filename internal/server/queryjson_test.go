package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"sitm/internal/indoor"
	"sitm/internal/store"
)

// decodeQuery decodes one AST node that fills raw, returning the query
// and its fingerprint, as the request decoder does for a "query" value.
func decodeQuery(raw []byte) (store.Query, string, error) {
	d := planDecoder{src: string(raw)}
	q, err := d.node(0, 0)
	if err == nil {
		if d.space(); d.pos != len(d.src) {
			err = d.syntax("bytes after the query")
		}
	}
	if err != nil {
		return nil, "", err
	}
	return q, string(d.fp), nil
}

// The plan decoder's oracle: encoding/json reads the body's first value
// (its syntax and nesting limit), the value is re-read into an ordered
// tree of tokens, and a walk of that tree applies the query language. The
// tree keeps object members in order, so repeated and case-folded keys
// resolve as struct and map decoding resolve them: the last one wins.

type refMember struct {
	key string
	val any
}

// refObject is a JSON object with its members in order.
type refObject []refMember

// refValue reads one value: a refObject, a []any, a string, a bool, a
// json.Number or nil.
func refValue(dec *json.Decoder) (any, error) {
	tok, err := dec.Token()
	if err != nil {
		return nil, err
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return tok, nil
	}
	var obj refObject
	arr := []any{}
	for dec.More() {
		var key string
		if delim == '{' {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			key = k.(string)
		}
		v, err := refValue(dec)
		if err != nil {
			return nil, err
		}
		if delim == '{' {
			obj = append(obj, refMember{key, v})
		} else {
			arr = append(arr, v)
		}
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	if delim == '{' {
		return append(refObject{}, obj...), nil
	}
	return arr, nil
}

var errRef = errors.New("rejected")

// refDecodeRequest decodes a query body the reference way.
func refDecodeRequest(body []byte) (q store.Query, fp string, mosOnly bool, err error) {
	if len(body) > maxQueryBody {
		body = body[:maxQueryBody]
	}
	var raw json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
		return nil, "", false, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	v, err := refValue(dec)
	if err != nil {
		return nil, "", false, err
	}
	env, ok := v.(refObject)
	if !ok {
		return nil, "", false, errRef
	}
	var query any
	found := false
	for _, m := range env {
		switch {
		case strings.EqualFold(m.key, "query"):
			query, found = m.val, true
		case strings.EqualFold(m.key, "mos_only"):
			switch b := m.val.(type) {
			case bool:
				mosOnly = b
			case nil:
			default:
				return nil, "", false, errRef
			}
		}
	}
	if !found {
		return nil, "", false, errRef
	}
	var w refWalker
	if q, err = w.node(query, 0); err != nil {
		return nil, "", false, err
	}
	return q, w.fp.String(), mosOnly, nil
}

type refWalker struct{ fp strings.Builder }

func refString(v any) (string, error) {
	switch s := v.(type) {
	case string:
		return s, nil
	case nil:
		return "", nil
	}
	return "", errRef
}

func refFields(v any, names ...string) ([]string, error) {
	out := make([]string, len(names))
	if v == nil {
		return out, nil
	}
	obj, ok := v.(refObject)
	if !ok {
		return nil, errRef
	}
	for _, m := range obj {
		for i, name := range names {
			if !strings.EqualFold(m.key, name) {
				continue
			}
			switch s := m.val.(type) {
			case string:
				out[i] = s
			case nil:
			default:
				return nil, errRef
			}
		}
	}
	return out, nil
}

func refSpan(from, to string) (time.Time, time.Time, string, error) {
	f, err := time.Parse(time.RFC3339Nano, from)
	if err != nil {
		return f, f, "", err
	}
	t, err := time.Parse(time.RFC3339Nano, to)
	return f, t, fmt.Sprintf("%d.%09d,%d.%09d)", f.Unix(), f.Nanosecond(), t.Unix(), t.Nanosecond()), err
}

func (w *refWalker) node(v any, depth int) (store.Query, error) {
	obj, ok := v.(refObject)
	if depth > maxQueryDepth || !ok {
		return nil, errRef
	}
	keys := map[string]bool{}
	var op string
	var arg any
	for _, m := range obj {
		keys[m.key] = true
		op, arg = m.key, m.val
	}
	if len(keys) != 1 {
		return nil, errRef
	}
	q := strconv.Quote
	switch op {
	case "cell", "by_mo":
		s, err := refString(arg)
		if err != nil {
			return nil, err
		}
		if op == "cell" {
			w.fp.WriteString("cell(" + q(s) + ")")
			return store.Cell(s), nil
		}
		w.fp.WriteString("mo(" + q(s) + ")")
		return store.ByMO(s), nil
	case "region", "has_annotation":
		names := []string{"layer", "id"}
		if op == "has_annotation" {
			names = []string{"key", "value"}
		}
		f, err := refFields(arg, names...)
		if err != nil {
			return nil, err
		}
		if op == "region" {
			w.fp.WriteString("region(" + q(f[0]) + "," + q(f[1]) + ")")
			return store.Region(f[0], f[1]), nil
		}
		w.fp.WriteString("ann(" + q(f[0]) + "," + q(f[1]) + ")")
		return store.HasAnnotation(f[0], f[1]), nil
	case "time_overlap":
		f, err := refFields(arg, "from", "to")
		if err != nil {
			return nil, err
		}
		from, to, span, err := refSpan(f[0], f[1])
		if err != nil {
			return nil, err
		}
		w.fp.WriteString("time(" + span)
		return store.TimeOverlap(from, to), nil
	case "cell_during":
		f, err := refFields(arg, "cell", "from", "to")
		if err != nil {
			return nil, err
		}
		from, to, span, err := refSpan(f[1], f[2])
		if err != nil {
			return nil, err
		}
		w.fp.WriteString("cellduring(" + q(f[0]) + "," + span)
		return store.CellDuring(f[0], from, to), nil
	case "through":
		var cells []string
		switch elems := arg.(type) {
		case nil:
		case []any:
			cells = []string{}
			for _, e := range elems {
				s, err := refString(e)
				if err != nil {
					return nil, err
				}
				cells = append(cells, s)
			}
		default:
			return nil, errRef
		}
		quoted := make([]string, len(cells))
		for i, c := range cells {
			quoted[i] = q(c)
		}
		w.fp.WriteString("through(" + strings.Join(quoted, ",") + ")")
		return store.Through(cells...), nil
	case "through_regions":
		elems, ok := arg.([]any)
		if !ok && arg != nil {
			return nil, errRef
		}
		refs := []indoor.RegionRef{}
		var quoted []string
		for _, e := range elems {
			f, err := refFields(e, "layer", "id")
			if err != nil {
				return nil, err
			}
			refs = append(refs, indoor.RegionRef{Layer: f[0], ID: f[1]})
			quoted = append(quoted, q(f[0])+":"+q(f[1]))
		}
		w.fp.WriteString("thregions(" + strings.Join(quoted, ",") + ")")
		return store.ThroughRegions(refs...), nil
	case "and", "or":
		elems, ok := arg.([]any)
		if !ok && arg != nil {
			return nil, errRef
		}
		kids := []store.Query{}
		w.fp.WriteString(op + "(")
		for i, e := range elems {
			if i > 0 {
				w.fp.WriteByte(',')
			}
			kid, err := w.node(e, depth+1)
			if err != nil {
				return nil, err
			}
			kids = append(kids, kid)
		}
		w.fp.WriteByte(')')
		if op == "and" {
			return store.And(kids...), nil
		}
		return store.Or(kids...), nil
	}
	return nil, errRef
}

// checkDecodeAgainstReference decodes body both ways and fails t unless
// the verdicts agree, an accepted body gives the same AST, fingerprint
// and mos_only, and a rejected one is a 400 bad_request from the handler.
func checkDecodeAgainstReference(t *testing.T, srv *Server, body []byte) {
	t.Helper()
	src, err := readQueryBody(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeRequest(src)
	wantQ, wantFP, wantMOs, refErr := refDecodeRequest(body)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("body %q: decoder error %v, reference error %v", body, err, refErr)
	}
	if err != nil {
		aerr := srv.handleQuery(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		if aerr == nil || aerr.status != 400 || aerr.code != codeBadRequest {
			t.Fatalf("body %q: handler answered %v, want 400 %s", body, aerr, codeBadRequest)
		}
		return
	}
	if !reflect.DeepEqual(req.query, wantQ) {
		t.Fatalf("body %q: AST\n%#v\nwant\n%#v", body, req.query, wantQ)
	}
	if req.fp != wantFP || req.mosOnly != wantMOs {
		t.Fatalf("body %q: fingerprint %q mos_only %v, want %q %v", body, req.fp, req.mosOnly, wantFP, wantMOs)
	}
}

// FuzzDecodeQuery checks the one-pass plan decoder against the
// encoding/json reference: the same accept/reject verdict (a rejection is
// always a 400 bad_request), and for accepted bodies the same AST,
// fingerprint and mos_only. The checked-in corpus covers the perfbench
// shapes, every operator, case-folded keys, repeated keys, null operands,
// escapes, invalid UTF-8, the depth limit and trailing bytes.
func FuzzDecodeQuery(f *testing.F) {
	srv := New(store.NewSharded(1), Config{})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgainstReference(t, srv, body)
	})
}

// nestedAnd wraps a cell node in n "and" nodes.
func nestedAnd(n int) string {
	q := `{"cell":"a"}`
	for i := 0; i < n; i++ {
		q = `{"and":[` + q + `]}`
	}
	return q
}

// TestDecodeQueryLimits covers what the corpus cannot hold compactly:
// nesting around the query depth limit and encoding/json's 10 000-level
// limit in an ignored field, and bodies around the 1 MiB read limit.
func TestDecodeQueryLimits(t *testing.T) {
	srv := New(store.NewSharded(1), Config{})
	// The envelope, the node and the region operand are three levels.
	deepIgnored := func(n int) string {
		return `{"query":{"region":{"layer":"a","x":` + strings.Repeat("[", n-3) + strings.Repeat("]", n-3) + `}}}`
	}
	pad := strings.Repeat(" ", maxQueryBody)
	const prefix = `{"query":{"cell":"a"}` // a body is prefix, padding, "}"
	for _, c := range []struct {
		name   string
		body   string
		accept bool
	}{
		{"depth 32", `{"query":` + nestedAnd(maxQueryDepth) + `}`, true},
		{"depth 33", `{"query":` + nestedAnd(maxQueryDepth+1) + `}`, false},
		{"later query replaces depth 33", `{"query":` + nestedAnd(maxQueryDepth+1) + `,"query":{"cell":"b"}}`, true},
		{"json depth at limit", deepIgnored(maxJSONDepth), true},
		{"json depth over limit", deepIgnored(maxJSONDepth + 1), false},
		{"trailing bytes past the limit", prefix + "}" + pad, true},
		{"value past the limit", pad + prefix + "}", false},
		{"value ends at the limit", prefix + pad[:maxQueryBody-len(prefix)-1] + "}", true},
		{"value ends past the limit", prefix + pad[:maxQueryBody-len(prefix)] + "}", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkDecodeAgainstReference(t, srv, []byte(c.body))
			src, _ := readQueryBody(strings.NewReader(c.body))
			if _, err := decodeRequest(src); (err == nil) != c.accept {
				t.Fatalf("decode error %v, want accepted %v", err, c.accept)
			}
		})
	}
}

// TestDecodeQueryEscapedStringsAllocateLinearly: a body of many short
// escaped strings allocates in proportion to its size. Sizing each
// decoded string's buffer by the rest of the body instead allocates
// quadratically (gigabytes for this body).
func TestDecodeQueryEscapedStringsAllocateLinearly(t *testing.T) {
	body := `{"note":[` + strings.Repeat(`"\n",`, 40000) + `"\n"],"query":{"cell":"a"}}`
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := decodeRequest(body); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 20*uint64(len(body)) {
		t.Fatalf("decoding a %d-byte body allocated %d bytes", len(body), n)
	}
}

// selectShapes are request bodies of perfbench's four query_select plan
// shapes, as it renders them.
var selectShapes = map[string]string{
	"cell_during":      `{"mos_only":true,"query":{"cell_during":{"cell":"Denon-room-711","from":"2019-05-02T12:00:00.0005Z","to":"2019-05-02T13:00:00.0005Z"}}}`,
	"region_floor_day": `{"mos_only":true,"query":{"and":[{"region":{"id":"Denon-1","layer":"floor"}},{"time_overlap":{"from":"2019-05-02T00:00:00.0005Z","to":"2019-05-03T00:00:00.0005Z"}}]}}`,
	"by_mo":            `{"mos_only":false,"query":{"by_mo":"visitor-1742-x3"}}`,
	"through3_day":     `{"mos_only":true,"query":{"and":[{"through":["Denon-room-711","Denon-room-712","Sully-room-3"]},{"time_overlap":{"from":"2019-05-02T00:00:00.0005Z","to":"2019-05-03T00:00:00.0005Z"}}]}}`,
}

// maxDecodeAllocs bounds the heap allocations of reading and decoding one
// selective plan body: the body's string copy, the AST's nodes and
// slices, and the fingerprint (3–7 measured). Under -race, sync.Pool
// drops a quarter of what is put back, which adds about one on average.
const maxDecodeAllocs = 8

func TestDecodeQueryAllocs(t *testing.T) {
	for shape, body := range selectShapes {
		if _, err := decodeRequest(body); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		rd := strings.NewReader(body)
		allocs := testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			src, err := readQueryBody(rd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := decodeRequest(src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > maxDecodeAllocs {
			t.Errorf("%s: reading and decoding the body allocates %.0f times, want at most %d", shape, allocs, maxDecodeAllocs)
		}
		t.Logf("%s: %.0f allocations", shape, allocs)
	}
}

// BenchmarkDecodeQuery reads and decodes the query_select request bodies.
func BenchmarkDecodeQuery(b *testing.B) {
	for _, shape := range []string{"cell_during", "region_floor_day", "by_mo", "through3_day"} {
		body := selectShapes[shape]
		b.Run(shape, func(b *testing.B) {
			b.ReportAllocs()
			rd := strings.NewReader(body)
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				src, err := readQueryBody(rd)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodeRequest(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
