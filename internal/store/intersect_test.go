package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Tests of intersectSorted, the one posting-list intersection of the plan
// executor: it equals a naive set intersection, its result never aliases
// an input, and its merge visits no entry of the longer list outside the
// shorter one's range.

// naiveIntersect is the set-definition oracle.
func naiveIntersect(a, b []int32) []int32 {
	in := make(map[int32]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	var out []int32
	for _, v := range a {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// checkIntersect runs intersectSorted on (a, b) and (b, a) and compares
// both with the oracle, then overwrites the result to prove it is a fresh
// slice. It returns the entries the first call visited.
func checkIntersect(t *testing.T, name string, a, b []int32) int {
	t.Helper()
	want := naiveIntersect(a, b)
	ca, cb := slices.Clone(a), slices.Clone(b)
	work := 0
	for i, args := range [][2][]int32{{a, b}, {b, a}} {
		w := 0
		got := intersectSorted(args[0], args[1], &w)
		if !slices.Equal(got, want) {
			t.Fatalf("%s (swapped=%v): got %v, want %v", name, i == 1, got, want)
		}
		if i == 0 {
			work = w
		}
		for k := range got {
			got[k] = -1
		}
		if !slices.Equal(a, ca) || !slices.Equal(b, cb) {
			t.Fatalf("%s: the result aliases an input list", name)
		}
	}
	return work
}

// spread returns n ascending distinct values from lo stepping by step.
func spread(lo, step int32, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = lo + int32(i)*step
	}
	return out
}

// sampleSorted returns an ascending distinct random sample of n values
// in [lo, hi].
func sampleSorted(rng *rand.Rand, n int, lo, hi int64) []int32 {
	set := make(map[int32]bool, n)
	for len(set) < n {
		set[int32(lo+rng.Int63n(hi-lo+1))] = true
	}
	out := make([]int32, 0, n)
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

func TestIntersectSortedMatchesNaive(t *testing.T) {
	const top = math.MaxInt32
	fixed := []struct {
		name string
		a, b []int32
	}{
		{"both empty", nil, nil},
		{"one empty", nil, spread(0, 1, 50)},
		{"disjoint ranges", spread(0, 1, 20), spread(100, 1, 20)},
		{"disjoint interleaved", spread(0, 2, 40), spread(1, 2, 40)},
		{"identical", spread(5, 3, 64), spread(5, 3, 64)},
		{"nested", spread(40, 1, 10), spread(0, 1, 200)},
		{"nested skewed", spread(900, 1, 3), spread(0, 1, 5000)},
		{"zero and max", []int32{0, top}, []int32{0, 7, top - 1, top}},
		{"max only", []int32{top}, spread(top-999, 1, 1000)},
		{"zero only", []int32{0}, spread(0, 1, 1000)},
		{"edges skewed", []int32{0, 1 << 20, top}, append(spread(0, 1, 2000), top)},
		{"single miss past max of long", []int32{top}, spread(0, 1, 100)},
	}
	for _, c := range fixed {
		checkIntersect(t, c.name, c.a, c.b)
	}

	// Size ratios from equal to very skewed, over a wide range that
	// includes both ends of int32's non-negative half.
	rng := rand.New(rand.NewSource(61))
	for _, m := range []int{1, 2, 7, 31} {
		for _, ratio := range []int{1, 2, 15, 16, 17, 64, 500} {
			n := m * ratio
			for rep := 0; rep < 4; rep++ {
				lo, hi := int64(0), int64(math.MaxInt32)
				if rep%2 == 1 { // a dense universe: many hits
					lo, hi = int64(math.MaxInt32)-int64(2*n), int64(math.MaxInt32)
				}
				long := sampleSorted(rng, n, lo, hi)
				var short []int32
				if rep >= 2 { // short drawn from long: every entry hits
					short = slices.Clone(long)
					rng.Shuffle(len(short), func(i, j int) { short[i], short[j] = short[j], short[i] })
					short = short[:m]
					slices.Sort(short)
				} else {
					short = sampleSorted(rng, m, lo, hi)
				}
				name := fmt.Sprintf("m=%d ratio=%d rep=%d", m, ratio, rep)
				work := checkIntersect(t, name, short, long)
				// The trim keeps only long's entries inside short's range.
				first, _ := slices.BinarySearch(long, short[0])
				last, found := slices.BinarySearch(long, short[len(short)-1])
				if found {
					last++
				}
				if trimmed := last - first; work > m+trimmed {
					t.Fatalf("%s: merge visited %d entries, more than %d+%d", name, work, m, trimmed)
				}
			}
		}
	}
}

// fuzzLists decodes fuzz bytes into two ascending duplicate-free lists:
// each 5-byte record is a selector (bit 0 puts the value in a, bit 1 in b)
// and a big-endian value with its sign bit cleared, so 0 and MaxInt32 are
// both reachable.
func fuzzLists(data []byte) (a, b []int32) {
	for ; len(data) >= 5; data = data[5:] {
		v := int32(binary.BigEndian.Uint32(data[1:5]) & math.MaxInt32)
		if data[0]&1 != 0 {
			a = append(a, v)
		}
		if data[0]&2 != 0 {
			b = append(b, v)
		}
	}
	slices.Sort(a)
	slices.Sort(b)
	return slices.Compact(a), slices.Compact(b)
}

// FuzzIntersectSorted: for any two lists, intersectSorted equals the naive
// intersection in both argument orders and returns a fresh slice. Every
// 32nd entry of a against all of b also tests skewed sizes on inputs
// whose own sizes are comparable.
func FuzzIntersectSorted(f *testing.F) {
	rec := func(sel byte, v uint32) []byte {
		return binary.BigEndian.AppendUint32([]byte{sel}, v)
	}
	f.Add([]byte{})
	f.Add(slices.Concat(rec(3, 0), rec(3, math.MaxInt32), rec(2, 5)))
	f.Add(slices.Concat(rec(1, 1), rec(2, 2), rec(1, 3), rec(2, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzLists(data)
		checkIntersect(t, "fuzz", a, b)
		var sparse []int32
		for i := 0; i < len(a); i += 32 {
			sparse = append(sparse, a[i])
		}
		checkIntersect(t, "fuzz sparse", sparse, b)
	})
}
