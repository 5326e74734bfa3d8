package store

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sitm/internal/core"
)

var day = time.Date(2017, 2, 14, 0, 0, 0, 0, time.UTC)

func at(min int) time.Time { return day.Add(time.Duration(min) * time.Minute) }

func traj(t *testing.T, mo string, startMin int, cells ...string) core.Trajectory {
	t.Helper()
	var tr core.Trace
	for i, c := range cells {
		tr = append(tr, core.PresenceInterval{
			Cell:  c,
			Start: at(startMin + i*10),
			End:   at(startMin + i*10 + 10),
			Ann:   core.NewAnnotations("seq", c),
		})
	}
	out, err := core.NewTrajectory(mo, tr, core.NewAnnotations("activity", "visit"))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func fill(t *testing.T) *Store {
	t.Helper()
	s := newTestStore() // honors the -shards sweep (see property_test.go)
	s.PutBatch([]core.Trajectory{
		traj(t, "alice", 0, "E", "P", "S"),
		traj(t, "bob", 5, "E", "S"),
		traj(t, "alice", 300, "P", "S", "C"),
	})
	return s
}

func TestPutAndLookup(t *testing.T) {
	s := fill(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.ByMO("alice"); len(got) != 2 {
		t.Errorf("alice trajectories = %d", len(got))
	}
	if got := s.ByMO("ghost"); len(got) != 0 {
		t.Errorf("ghost = %v", got)
	}
	if got := s.MOs(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Errorf("MOs = %v", got)
	}
	if got := s.All(); len(got) != 3 {
		t.Errorf("All = %d", len(got))
	}
}

func TestThroughCell(t *testing.T) {
	s := fill(t)
	if got := s.ThroughCell("E"); len(got) != 2 {
		t.Errorf("through E = %d", len(got))
	}
	if got := s.ThroughCell("C"); len(got) != 1 || got[0].MO != "alice" {
		t.Errorf("through C = %v", got)
	}
	if got := s.ThroughCell("nowhere"); len(got) != 0 {
		t.Errorf("through nowhere = %v", got)
	}
}

func TestInCellDuring(t *testing.T) {
	s := fill(t)
	// alice is in P during minutes 10–20 of her first visit.
	got := s.InCellDuring("P", at(12), at(15))
	if len(got) != 1 || got[0] != "alice" {
		t.Errorf("in P = %v", got)
	}
	// Nobody in C that early.
	if got := s.InCellDuring("C", at(0), at(60)); len(got) != 0 {
		t.Errorf("in C early = %v", got)
	}
	// Window intersection is inclusive.
	if got := s.InCellDuring("E", at(10), at(20)); len(got) != 2 {
		t.Errorf("in E = %v", got)
	}
}

func TestOverlapping(t *testing.T) {
	s := fill(t)
	if got := s.Overlapping(at(0), at(40)); len(got) != 2 {
		t.Errorf("early window = %d", len(got))
	}
	if got := s.Overlapping(at(290), at(400)); len(got) != 1 {
		t.Errorf("late window = %d", len(got))
	}
	if got := s.Overlapping(at(1000), at(2000)); len(got) != 0 {
		t.Errorf("empty window = %d", len(got))
	}
}

func TestThroughSequence(t *testing.T) {
	s := fill(t)
	if got := s.ThroughSequence("E", "P", "S"); len(got) != 1 || got[0].MO != "alice" {
		t.Errorf("E,P,S = %v", got)
	}
	// bob jumped E→S directly.
	if got := s.ThroughSequence("E", "S"); len(got) != 1 || got[0].MO != "bob" {
		t.Errorf("E,S = %v", got)
	}
	if got := s.ThroughSequence(); got != nil {
		t.Errorf("empty query = %v", got)
	}
	if got := s.ThroughSequence("S", "E"); len(got) != 0 {
		t.Errorf("reversed run = %v", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := fill(t)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("round trip lost trajectories: %d vs %d", s2.Len(), s.Len())
	}
	a, b := s.All(), s2.All()
	for i := range a {
		if a[i].MO != b[i].MO || len(a[i].Trace) != len(b[i].Trace) {
			t.Fatalf("trajectory %d differs", i)
		}
		for j := range a[i].Trace {
			pa, pb := a[i].Trace[j], b[i].Trace[j]
			if pa.Cell != pb.Cell || !pa.Start.Equal(pb.Start) || !pa.End.Equal(pb.End) {
				t.Fatalf("interval %d/%d differs: %+v vs %+v", i, j, pa, pb)
			}
			if !pa.Ann.Equal(pb.Ann) {
				t.Fatalf("annotations differ: %v vs %v", pa.Ann, pb.Ann)
			}
		}
	}
	if err := New().ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON must error")
	}
}

// TestJSONRoundTripEmpty: an empty store writes a valid document (Go
// encodes the nil slice as null) that loads back to an empty store.
func TestJSONRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.ReadJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("empty round trip produced %d trajectories", s.Len())
	}
	// An explicit null is the same empty store.
	s = New()
	if err := s.ReadJSON(strings.NewReader("null")); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("null loaded %d trajectories", s.Len())
	}
}

// TestReadJSONTrailingData: ReadJSON must consume exactly one JSON value.
// Decode stops at the end of the first value, so without the explicit
// trailing-token check a torn write or a concatenated pair of store files
// would load the first document and silently drop the rest.
func TestReadJSONTrailingData(t *testing.T) {
	one := `[{"mo":"a","ann":{"k":["v"]},"trace":[{"cell":"E","start":"2024-01-01T00:00:00Z","end":"2024-01-01T00:05:00Z"}]}]`
	for _, tc := range []struct {
		name, in string
		ok       bool
		want     int
	}{
		{"clean", one, true, 1},
		{"trailing whitespace", one + " \n\t\n", true, 1},
		{"trailing garbage", one + "garbage", false, 0},
		{"concatenated documents", one + one, false, 0},
		{"second null document", one + "null", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			err := s.ReadJSON(strings.NewReader(tc.in))
			if tc.ok && err != nil {
				t.Fatalf("ReadJSON: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("ReadJSON accepted trailing data")
			}
			if s.Len() != tc.want {
				t.Fatalf("loaded %d trajectories, want %d", s.Len(), tc.want)
			}
		})
	}
}

// TestReadJSONAllOrNothing: an invalid trajectory in the middle of the
// document must leave the store untouched — no partial load.
func TestReadJSONAllOrNothing(t *testing.T) {
	doc := `[
		{"mo":"a","ann":{"k":["v"]},"trace":[{"cell":"E","start":"2024-01-01T00:00:00Z","end":"2024-01-01T00:05:00Z"}]},
		{"mo":"","ann":{"k":["v"]},"trace":[{"cell":"S","start":"2024-01-01T00:00:00Z","end":"2024-01-01T00:05:00Z"}]},
		{"mo":"c","ann":{"k":["v"]},"trace":[{"cell":"P","start":"2024-01-01T00:00:00Z","end":"2024-01-01T00:05:00Z"}]}
	]`
	s := New()
	if err := s.ReadJSON(strings.NewReader(doc)); err == nil {
		t.Fatal("ReadJSON accepted an invalid trajectory")
	}
	if s.Len() != 0 {
		t.Fatalf("partial load: %d trajectories inserted before the error", s.Len())
	}
	got, err := s.SelectMOs(Cell("E"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("partial load visible to queries: %v", got)
	}
}

func TestDetectionsCSVRoundTrip(t *testing.T) {
	dets := []core.Detection{
		{MO: "a", Cell: "E", Start: at(0), End: at(5)},
		{MO: "b", Cell: "S", Start: at(10), End: at(10)},
	}
	var buf bytes.Buffer
	if err := WriteDetectionsCSV(&buf, dets); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDetectionsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	for i := range dets {
		if got[i].MO != dets[i].MO || got[i].Cell != dets[i].Cell ||
			!got[i].Start.Equal(dets[i].Start) || !got[i].End.Equal(dets[i].End) {
			t.Errorf("row %d = %+v, want %+v", i, got[i], dets[i])
		}
	}
	// Errors.
	if _, err := ReadDetectionsCSV(strings.NewReader("mo,cell\nx,y")); err == nil {
		t.Error("short row must error")
	}
	if _, err := ReadDetectionsCSV(strings.NewReader("mo,cell,start,end\na,b,notatime,2017-01-01T00:00:00Z")); err == nil {
		t.Error("bad time must error")
	}
	empty, err := ReadDetectionsCSV(strings.NewReader(""))
	if err != nil || empty != nil {
		t.Errorf("empty csv: %v %v", empty, err)
	}
}

func TestSummary(t *testing.T) {
	s := fill(t)
	sum := s.Summarize()
	if sum.Trajectories != 3 || sum.MOs != 2 || sum.Intervals != 8 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.Cells != 4 { // E, P, S, C
		t.Errorf("cells = %d", sum.Cells)
	}
	if !strings.Contains(sum.String(), "trajectories=3") {
		t.Errorf("String = %q", sum.String())
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := fill(t)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 50; j++ {
				if i%2 == 0 {
					s.Put(traj(t, "worker", j*1000, "E"))
				} else {
					s.ThroughCell("E")
					s.MOs()
					s.Summarize()
				}
			}
			done <- true
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if s.Len() != 3+4*50 {
		t.Errorf("Len = %d after concurrent writes", s.Len())
	}
}

func TestQuickInCellDuringMatchesScan(t *testing.T) {
	// Property: the indexed query equals a naive scan.
	f := func(seed int64) bool {
		s := New()
		rng := seed
		next := func(n int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int(rng % int64(n))
			if v < 0 {
				v += n
			}
			return v
		}
		cells := []string{"A", "B", "C"}
		type stay struct {
			mo   string
			cell string
			s, e time.Time
		}
		var stays []stay
		for i := 0; i < 12; i++ {
			mo := string(rune('a' + next(4)))
			cell := cells[next(3)]
			start := at(next(200))
			end := start.Add(time.Duration(next(30)+1) * time.Minute)
			tr := core.Trace{{Cell: cell, Start: start, End: end}}
			traj, err := core.NewTrajectory(mo, tr, core.NewAnnotations("k", "v"))
			if err != nil {
				return false
			}
			s.Put(traj)
			stays = append(stays, stay{mo, cell, start, end})
		}
		from := at(next(200))
		to := from.Add(time.Duration(next(60)) * time.Minute)
		cell := cells[next(3)]
		got := s.InCellDuring(cell, from, to)
		want := map[string]bool{}
		for _, st := range stays {
			if st.cell == cell && !st.s.After(to) && !st.e.Before(from) {
				want[st.mo] = true
			}
		}
		if len(got) != len(want) {
			return false
		}
		for _, mo := range got {
			if !want[mo] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
