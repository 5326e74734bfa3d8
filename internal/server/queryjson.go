package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sitm/internal/indoor"
	"sitm/internal/store"
)

// JSON encoding of the PR 5 query AST. Every node is a single-key object
// naming its operator; operands are the key's value:
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
// decodeQuery also computes the query's fingerprint — a canonical string
// over the decoded operands (times as exact unix seconds.nanoseconds —
// defined in every year, unlike UnixNano — strings quoted), so two
// JSON spellings of the same plan ("10:00:00Z" vs "10:00:00+00:00",
// reordered object keys) share one plan-cache entry. Operand order is
// preserved: and/or are not sorted, matching the compiler's semantics.

// decodeQuery parses one AST node, returning the query and its
// fingerprint.
func decodeQuery(raw json.RawMessage) (store.Query, string, error) {
	var fp strings.Builder
	q, err := decodeNode(raw, &fp, 0)
	if err != nil {
		return nil, "", err
	}
	return q, fp.String(), nil
}

// maxQueryDepth bounds AST nesting so a hostile body cannot blow the
// stack during decode or compile.
const maxQueryDepth = 32

type regionRefJSON struct {
	Layer string `json:"layer"`
	ID    string `json:"id"`
}

func decodeNode(raw json.RawMessage, fp *strings.Builder, depth int) (store.Query, error) {
	if depth > maxQueryDepth {
		return nil, fmt.Errorf("query nested deeper than %d", maxQueryDepth)
	}
	var node map[string]json.RawMessage
	if err := json.Unmarshal(raw, &node); err != nil {
		return nil, fmt.Errorf("query node: %w", err)
	}
	if len(node) != 1 {
		return nil, fmt.Errorf("query node must have exactly one operator key, has %d", len(node))
	}
	var op string
	var body json.RawMessage
	for k, v := range node {
		op, body = k, v
	}
	switch op {
	case "cell":
		name, err := decodeString(body, "cell")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(fp, "cell(%s)", strconv.Quote(name))
		return store.Cell(name), nil
	case "by_mo":
		mo, err := decodeString(body, "by_mo")
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(fp, "mo(%s)", strconv.Quote(mo))
		return store.ByMO(mo), nil
	case "region":
		var ref regionRefJSON
		if err := json.Unmarshal(body, &ref); err != nil {
			return nil, fmt.Errorf("region: %w", err)
		}
		fmt.Fprintf(fp, "region(%s,%s)", strconv.Quote(ref.Layer), strconv.Quote(ref.ID))
		return store.Region(ref.Layer, ref.ID), nil
	case "time_overlap":
		var span struct{ From, To string }
		if err := json.Unmarshal(body, &span); err != nil {
			return nil, fmt.Errorf("time_overlap: %w", err)
		}
		from, to, err := parseSpan(span.From, span.To)
		if err != nil {
			return nil, fmt.Errorf("time_overlap: %w", err)
		}
		fmt.Fprintf(fp, "time(%d.%09d,%d.%09d)", from.Unix(), from.Nanosecond(), to.Unix(), to.Nanosecond())
		return store.TimeOverlap(from, to), nil
	case "has_annotation":
		var kv struct{ Key, Value string }
		if err := json.Unmarshal(body, &kv); err != nil {
			return nil, fmt.Errorf("has_annotation: %w", err)
		}
		fmt.Fprintf(fp, "ann(%s,%s)", strconv.Quote(kv.Key), strconv.Quote(kv.Value))
		return store.HasAnnotation(kv.Key, kv.Value), nil
	case "through":
		var cells []string
		if err := json.Unmarshal(body, &cells); err != nil {
			return nil, fmt.Errorf("through: %w", err)
		}
		fp.WriteString("through(")
		for i, c := range cells {
			if i > 0 {
				fp.WriteByte(',')
			}
			fp.WriteString(strconv.Quote(c))
		}
		fp.WriteByte(')')
		return store.Through(cells...), nil
	case "through_regions":
		var refs []regionRefJSON
		if err := json.Unmarshal(body, &refs); err != nil {
			return nil, fmt.Errorf("through_regions: %w", err)
		}
		rr := make([]indoor.RegionRef, len(refs))
		fp.WriteString("thregions(")
		for i, ref := range refs {
			rr[i] = indoor.RegionRef{Layer: ref.Layer, ID: ref.ID}
			if i > 0 {
				fp.WriteByte(',')
			}
			fmt.Fprintf(fp, "%s:%s", strconv.Quote(ref.Layer), strconv.Quote(ref.ID))
		}
		fp.WriteByte(')')
		return store.ThroughRegions(rr...), nil
	case "cell_during":
		var cd struct{ Cell, From, To string }
		if err := json.Unmarshal(body, &cd); err != nil {
			return nil, fmt.Errorf("cell_during: %w", err)
		}
		from, to, err := parseSpan(cd.From, cd.To)
		if err != nil {
			return nil, fmt.Errorf("cell_during: %w", err)
		}
		fmt.Fprintf(fp, "cellduring(%s,%d.%09d,%d.%09d)", strconv.Quote(cd.Cell), from.Unix(), from.Nanosecond(), to.Unix(), to.Nanosecond())
		return store.CellDuring(cd.Cell, from, to), nil
	case "and", "or":
		var kids []json.RawMessage
		if err := json.Unmarshal(body, &kids); err != nil {
			return nil, fmt.Errorf("%s: %w", op, err)
		}
		fp.WriteString(op)
		fp.WriteByte('(')
		qs := make([]store.Query, len(kids))
		for i, kid := range kids {
			if i > 0 {
				fp.WriteByte(',')
			}
			q, err := decodeNode(kid, fp, depth+1)
			if err != nil {
				return nil, err
			}
			qs[i] = q
		}
		fp.WriteByte(')')
		if op == "and" {
			return store.And(qs...), nil
		}
		return store.Or(qs...), nil
	default:
		return nil, fmt.Errorf("unknown query operator %q", op)
	}
}

func decodeString(raw json.RawMessage, op string) (string, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return "", fmt.Errorf("%s: %w", op, err)
	}
	return s, nil
}

// parseSpan parses a from/to pair of RFC3339 timestamps.
func parseSpan(fromStr, toStr string) (from, to time.Time, err error) {
	if from, err = time.Parse(time.RFC3339Nano, fromStr); err != nil {
		return
	}
	to, err = time.Parse(time.RFC3339Nano, toStr)
	return
}
