package store

// FuzzDecodeBlock drives arbitrary bytes through the full v2 segment
// decode — header, zone maps, per-block CRCs, eager columns, residual
// validation — and then decodes every block that survives into columns
// (decodeBlockCols) and materializes each row (blockCols.traj). The
// invariant under fuzz is the one the engine relies on at runtime: decode
// may reject, but it must never panic, and a segment that validates must
// decode (shardBlocks.cols panics on a decode error, so a validation gap
// shows up as a fuzz crash). The blocks read their bytes back from the
// fuzz input through an in-memory io.ReaderAt (memSegFile), so a miss
// costs no file I/O. The checked-in corpus under
// testdata/fuzz/FuzzDecodeBlock seeds the interesting shapes: a fully
// valid multi-block segment, a torn final block, a flipped payload byte
// under an intact CRC, and dictionary ids beyond the decode-time limits.

import (
	"bytes"
	"fmt"
	"testing"

	"sitm/internal/symtab"
)

// fuzzDecodeLimits are the dictionary sizes FuzzDecodeBlock decodes
// against; corpus entries referencing larger ids exercise the stale-id
// rejection path.
const fuzzDecodeLimits = 8

func FuzzDecodeBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagicV2))
	dict := symtab.NewDict()
	for i := range fuzzDecodeLimits {
		dict.Intern(fmt.Sprintf("s%d", i))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sh shard
		sh.init()
		_, err := sh.decodeSegments([]segFile{memSegFile("fuzz", data)}, fuzzDecodeLimits, fuzzDecodeLimits, fuzzDecodeLimits, newBlockCache(-1))
		if err != nil || sh.blk == nil {
			return
		}
		rows := 0
		for b, info := range sh.blk.blocks {
			bc, err := sh.blk.cols(b)
			if err != nil {
				t.Fatalf("block %d: %v", b, err)
			}
			for r := range int(info.zone.rows) {
				if tr := bc.traj(r, dict, dict); len(tr.Trace) != len(sh.encs[int(info.base)+r]) {
					t.Fatalf("block %d row %d: %d intervals, %d cells", b, r, len(tr.Trace), len(sh.encs[int(info.base)+r]))
				}
				rows++
			}
		}
		if rows != sh.blk.rowCount || rows != len(sh.seqs) {
			t.Fatalf("materialized %d rows of %d (%d decoded)", rows, sh.blk.rowCount, len(sh.seqs))
		}
	})
}

// memSegFile is a segment image as decodeSegments takes it, its blocks
// reading their bytes back from data in memory.
func memSegFile(path string, data []byte) segFile {
	return segFile{path: path, data: data, r: &segReader{path: path, r: bytes.NewReader(data)}}
}
