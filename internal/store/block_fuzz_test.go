package store

// FuzzDecodeBlock drives arbitrary bytes through the full v2 segment
// decode — header, zone maps, per-block CRCs, eager columns, residual
// validation — and then materializes every block that survives. The
// invariant under fuzz is the one the engine relies on at runtime: decode
// may reject, but it must never panic, and a segment that validates must
// materialize (materialize panics on a decode error, so a validation gap
// shows up as a fuzz crash). The checked-in corpus under
// testdata/fuzz/FuzzDecodeBlock seeds the interesting shapes: a fully
// valid multi-block segment, a torn final block, a flipped payload byte
// under an intact CRC, and dictionary ids beyond the decode-time limits.

import (
	"fmt"
	"testing"
)

// fuzzDecodeLimits are the dictionary sizes FuzzDecodeBlock decodes
// against; corpus entries referencing larger ids exercise the stale-id
// rejection path.
const fuzzDecodeLimits = 8

func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagicV2))
	f.Fuzz(func(t *testing.T, data []byte) {
		sym := func(id int32) string { return fmt.Sprintf("s%d", id) }
		var sh shard
		sh.init()
		_, err := sh.decodeSegments([]segFile{{"fuzz", data}}, fuzzDecodeLimits, fuzzDecodeLimits, fuzzDecodeLimits, sym, sym, nil)
		if err != nil {
			return
		}
		if sh.blk != nil {
			if got := len(sh.blk.allTrajs()); got != sh.blk.rowCount || got != len(sh.seqs) {
				t.Fatalf("materialized %d rows of %d (%d decoded)", got, sh.blk.rowCount, len(sh.seqs))
			}
		}
	})
}
