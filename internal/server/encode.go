package server

import (
	"io"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"sitm/internal/core"
	"sitm/internal/store"
)

// Reply encoding of POST /v1/query (DESIGN.md §3.11). The wire format is
// frozen to what encoding/json produced for the reply struct this encoder
// replaced, byte for byte:
//
//	{"count":2,"cached":false,"mos":["mo-1","mo-2"]}
//	{"count":1,"cached":true,"trajectories":[{"MO":"mo-1","Trace":[{"Transition":"",
//	  "Cell":"hall","Start":"2019-05-01T10:00:00Z","End":"2019-05-01T10:05:00Z",
//	  "Ann":null,"TransitionAnn":null}],"Ann":{"k":["v"]}}]}
//
// "mos" / "trajectories" are omitted when empty, nil maps and slices are
// null, annotation keys are sorted, strings are escaped HTML-safe (<, >, &,
// U+2028, U+2029 as \u escapes, invalid UTF-8 as \ufffd), times are
// Time.AppendText (what Time.MarshalJSON quotes, with the same range
// errors), and the reply ends in a newline. TestQueryReplyMatchesEncodingJSON
// and FuzzQueryReplyEncoding hold it to encoding/json.
//
// Trajectory rows come from two sources and share this one format. A live
// row is a core.Trajectory (appendTrajectory). A block-backed row is read
// straight from its block's decoded columns (appendBlockRow): names from
// frozen dictionary snapshots, times from unix nanos (appendTimeNanos,
// byte-equal to AppendText of the UTC time the row would materialize to),
// annotation keys already sorted. No core.Trajectory is built for it.
//
// Rows are appended into a pooled buffer that is handed to the writer each
// time it holds replyChunk bytes, so a reply of any size costs the server
// one chunk plus one row of memory, never the whole reply.

const (
	// replyChunk is the buffered size at which a reply is flushed.
	replyChunk = 32 << 10
	// replyPoolCap is the largest buffer returned to the pool; one grown
	// past it by a huge row is left to the GC rather than kept.
	replyPoolCap = 256 << 10
)

// replyEncoder is the pooled state of one reply being written.
type replyEncoder struct {
	w       io.Writer
	buf     []byte
	keys    []string // scratch: one annotation map's keys, sorted
	flushed bool     // some bytes were handed to w
}

var replyPool = sync.Pool{New: func() any {
	return &replyEncoder{buf: make([]byte, 0, 2*replyChunk)}
}}

// writeQueryReply writes the reply to one query — count, cached and the
// non-empty one of mos / rows — to w. On error, flushed reports whether
// part of the reply already reached w: if not, w is untouched and the
// caller can still answer with an error; if so, the reply is truncated.
func writeQueryReply(w io.Writer, cached bool, mos []string, rows *store.Rows) (flushed bool, err error) {
	e := replyPool.Get().(*replyEncoder)
	flushed, err = e.write(w, cached, mos, rows)
	if cap(e.buf) <= replyPoolCap {
		replyPool.Put(e)
	}
	return flushed, err
}

func (e *replyEncoder) write(w io.Writer, cached bool, mos []string, rows *store.Rows) (bool, error) {
	e.w, e.flushed = w, false
	b, err := e.appendReply(e.buf[:0], cached, mos, rows)
	if err == nil {
		e.flushed = true
		_, err = w.Write(b)
	}
	e.w, e.buf = nil, b[:0]
	return e.flushed, err
}

func (e *replyEncoder) appendReply(b []byte, cached bool, mos []string, rows *store.Rows) ([]byte, error) {
	var err error
	n := rows.Len()
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(mos)+n), 10)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if len(mos) > 0 {
		b = append(b, `,"mos":[`...)
		for i, mo := range mos {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, mo)
			if b, err = e.endRow(b); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if n > 0 {
		b = append(b, `,"trajectories":[`...)
		for i := range n {
			if i > 0 {
				b = append(b, ',')
			}
			if t := rows.Live(i); t != nil {
				if b, err = e.appendTrajectory(b, t); err != nil {
					return b, err
				}
			} else {
				b = appendBlockRow(b, rows.Block(i))
			}
			if b, err = e.endRow(b); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n'), nil
}

// endRow hands b to the writer once it holds a chunk, keeping its
// capacity for the rows that follow.
func (e *replyEncoder) endRow(b []byte) ([]byte, error) {
	if len(b) < replyChunk {
		return b, nil
	}
	e.flushed = true
	_, err := e.w.Write(b)
	return b[:0], err
}

// appendTrajectory appends t as encoding/json renders a core.Trajectory.
//
//sitm:hotpath
func (e *replyEncoder) appendTrajectory(b []byte, t *core.Trajectory) ([]byte, error) {
	var err error
	b = append(b, `{"MO":`...)
	b = appendString(b, t.MO)
	b = append(b, `,"Trace":`...)
	if t.Trace == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range t.Trace {
			p := &t.Trace[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Transition":`...)
			b = appendString(b, p.Transition)
			b = append(b, `,"Cell":`...)
			b = appendString(b, p.Cell)
			b = append(b, `,"Start":`...)
			if b, err = appendTime(b, p.Start); err != nil {
				return b, err
			}
			b = append(b, `,"End":`...)
			if b, err = appendTime(b, p.End); err != nil {
				return b, err
			}
			b = append(b, `,"Ann":`...)
			b = e.appendAnnotations(b, p.Ann)
			b = append(b, `,"TransitionAnn":`...)
			b = e.appendAnnotations(b, p.TransitionAnn)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Ann":`...)
	b = e.appendAnnotations(b, t.Ann)
	return append(b, '}'), nil
}

// appendBlockRow appends a block-backed row exactly as appendTrajectory
// appends the trajectory it materializes to. A block's times are inside
// the int64 nanosecond range, so it cannot fail.
//
//sitm:hotpath
func appendBlockRow(b []byte, r store.BlockRow) []byte {
	b = append(b, `{"MO":`...)
	b = appendString(b, r.MO())
	b = append(b, `,"Trace":`...)
	if n := r.Intervals(); n == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for j := range n {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"Transition":`...)
			b = appendString(b, r.Transition(j))
			b = append(b, `,"Cell":`...)
			b = appendString(b, r.Cell(j))
			st, en := r.Span(j)
			b = append(b, `,"Start":`...)
			b = appendTimeNanos(b, st)
			b = append(b, `,"End":`...)
			b = appendTimeNanos(b, en)
			b = append(b, `,"Ann":`...)
			b = appendAnnView(b, r.IntervalAnn(j))
			b = append(b, `,"TransitionAnn":`...)
			b = appendAnnView(b, r.TransitionAnn(j))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, `,"Ann":`...)
	b = appendAnnView(b, r.Ann())
	return append(b, '}')
}

// appendAnnView appends a block row's annotation map; its keys are
// already sorted and distinct.
//
//sitm:hotpath
func appendAnnView(b []byte, a store.AnnView) []byte {
	if a.Nil() {
		return append(b, "null"...)
	}
	b = append(b, '{')
	for k := range a.Len() {
		if k > 0 {
			b = append(b, ',')
		}
		b = appendString(b, a.Key(k))
		b = append(b, ':')
		n := a.Values(k)
		if n == 0 {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for v := range n {
			if v > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a.Value(k, v))
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendAnnotations appends a as a JSON object with sorted keys.
func (e *replyEncoder) appendAnnotations(b []byte, a core.Annotations) []byte {
	if a == nil {
		return append(b, "null"...)
	}
	keys := e.keys[:0]
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		vs := a[k]
		if vs == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, v := range vs {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendString(b, v)
		}
		b = append(b, ']')
	}
	clear(keys) // the pooled scratch must not pin the store's strings
	e.keys = keys[:0]
	return append(b, '}')
}

// appendTime appends t quoted, or fails as Time.MarshalJSON does.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	b = append(b, '"')
	out, err := t.AppendText(b)
	if err != nil {
		return b, err
	}
	return append(out, '"'), nil
}

// appendTimeNanos appends time.Unix(0, n).UTC() quoted, byte for byte as
// appendTime renders it: RFC 3339 with the fraction's trailing zeros
// trimmed and a Z zone. Every int64 lies in years 1677–2262, so the
// output has a four-digit year and cannot fail.
//
//sitm:hotpath
func appendTimeNanos(b []byte, n int64) []byte {
	ns := n % 1e9
	sec := n / 1e9
	if ns < 0 {
		sec, ns = sec-1, ns+1e9
	}
	// Seconds since 0000-03-01, positive for every int64 n, so the civil
	// date below (Hinnant's days_from_civil inverse over 400-year eras)
	// needs only unsigned arithmetic.
	u := uint64(sec + 719468*86400)
	z, sod := u/86400, u%86400
	era := z / 146097
	doe := z - era*146097
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365
	doy := doe - (365*yoe + yoe/4 - yoe/100)
	mp := (5*doy + 2) / 153
	day := doy - (153*mp+2)/5 + 1
	month := mp + 3
	year := yoe + era*400
	if mp >= 10 {
		month, year = mp-9, year+1
	}
	var t [31]byte // "YYYY-MM-DDThh:mm:ss.nnnnnnnnnZ"
	put2(t[0:], year/100)
	put2(t[2:], year%100)
	t[4] = '-'
	put2(t[5:], month)
	t[7] = '-'
	put2(t[8:], day)
	t[10] = 'T'
	put2(t[11:], sod/3600)
	t[13] = ':'
	put2(t[14:], sod/60%60)
	t[16] = ':'
	put2(t[17:], sod%60)
	w := 19
	if ns != 0 {
		f := uint64(ns)
		t[19] = '.'
		put2(t[20:], f/1e7)
		put2(t[22:], f/1e5%100)
		put2(t[24:], f/1e3%100)
		put2(t[26:], f/10%100)
		t[28] = byte('0' + f%10)
		w = 29
		for t[w-1] == '0' {
			w--
		}
	}
	b = append(b, '"')
	b = append(b, t[:w]...)
	return append(b, 'Z', '"')
}

// digitPairs holds "00" through "99".
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"4041424344454647484950515253545556575859606162636465666768697071727374757677787980818283848586878889" +
	"90919293949596979899"

// put2 writes v < 100 as two decimal digits.
//
//sitm:hotpath
func put2(dst []byte, v uint64) {
	dst[0], dst[1] = digitPairs[2*v], digitPairs[2*v+1]
}

// htmlSafe marks the ASCII bytes a string carries unescaped: printable,
// minus the JSON delimiters and the HTML-significant <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a quoted JSON string, escaped exactly as
// encoding/json escapes with HTML escaping on.
//
//sitm:hotpath
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default: // other control bytes, <, >, &
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
