package server

import (
	"io"
	"slices"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"sitm/internal/core"
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
// non-empty one of mos / trajs — to w. On error, flushed reports whether
// part of the reply already reached w: if not, w is untouched and the
// caller can still answer with an error; if so, the reply is truncated.
func writeQueryReply(w io.Writer, cached bool, mos []string, trajs []core.Trajectory) (flushed bool, err error) {
	e := replyPool.Get().(*replyEncoder)
	flushed, err = e.write(w, cached, mos, trajs)
	if cap(e.buf) <= replyPoolCap {
		replyPool.Put(e)
	}
	return flushed, err
}

func (e *replyEncoder) write(w io.Writer, cached bool, mos []string, trajs []core.Trajectory) (bool, error) {
	e.w, e.flushed = w, false
	b, err := e.appendReply(e.buf[:0], cached, mos, trajs)
	if err == nil {
		e.flushed = true
		_, err = w.Write(b)
	}
	e.w, e.buf = nil, b[:0]
	return e.flushed, err
}

func (e *replyEncoder) appendReply(b []byte, cached bool, mos []string, trajs []core.Trajectory) ([]byte, error) {
	var err error
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(len(mos)+len(trajs)), 10)
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
	if len(trajs) > 0 {
		b = append(b, `,"trajectories":[`...)
		for i := range trajs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = e.appendTrajectory(b, &trajs[i]); err != nil {
				return b, err
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
