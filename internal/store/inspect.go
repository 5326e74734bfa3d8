package store

import (
	"fmt"
	"io"
	"time"

	"sitm/internal/faultfs"
)

// InspectDir renders a human-readable report of a durable store
// directory: the committed MANIFEST, then per committed generation its
// dictionary delta and, per shard, the segment's format version, on-disk
// size, rows, block count and zone-map extents, and finally the
// compression ratio of the block format against a v1 re-encode of the
// same rows. The report backs the `sitm inspect` subcommand and is
// read-only: the directory is opened exactly as a read replica would.
func InspectDir(dir string, w io.Writer) error {
	man, err := readManifest(faultfs.OS, dir)
	if err != nil {
		return err
	}
	gens := man.generations()
	fmt.Fprintf(w, "MANIFEST: version %d, %d shards, generations %v, next seq %d\n",
		man.Version, man.Shards, gens, man.NextSeq)
	if len(gens) == 0 {
		fmt.Fprintln(w, "no committed segments (WAL only)")
		return nil
	}

	var diskBytes int64
	for _, gen := range gens {
		path := segDictPath(dir, gen)
		data, err := faultfs.OS.ReadFile(path)
		if err != nil {
			return err
		}
		dd, err := decodeDictFile(data, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "dictionary %08d: %d bytes, +%d cells, +%d MOs, +%d pairs\n",
			gen, len(data), len(dd.syms[0]), len(dd.syms[1]), len(dd.syms[2]))
		for i := 0; i < man.Shards; i++ {
			path := segPath(dir, gen, i)
			data, err := faultfs.OS.ReadFile(path)
			if err != nil {
				return err
			}
			diskBytes += int64(len(data))
			fmt.Fprintf(w, "segment %08d-%04d: %d bytes, ", gen, i, len(data))
			if len(data) >= len(segMagicV2) && string(data[:len(segMagicV2)]) == segMagicV2 {
				if err := inspectV2Segment(data, path, w); err != nil {
					return err
				}
			} else {
				fmt.Fprintf(w, "format v1 (monolithic)\n")
			}
		}
	}

	// The store itself is the v1 re-encode baseline: a read-only open
	// materializes exactly the manifest's committed rows plus any WAL
	// tail, and encodeSegmentV1 over each shard's columns is what the
	// legacy format would have written for them.
	s, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		return err
	}
	defer s.Close()
	var v1Bytes int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		cols := segmentColumns{
			seqs: sh.seqs, moIDs: sh.moIDs, encs: sh.encs, anns: sh.anns,
			starts: sh.starts, ends: sh.ends, trajs: sh.allTrajs(),
		}
		v1Bytes += int64(len(encodeSegmentV1(&cols)))
		sh.mu.RUnlock()
	}
	if v1Bytes > 0 {
		fmt.Fprintf(w, "segments: %d bytes on disk, %d bytes as v1 re-encode (ratio %.2f)\n",
			diskBytes, v1Bytes, float64(diskBytes)/float64(v1Bytes))
	}
	return nil
}

// inspectV2Segment prints one block-structured segment's header summary:
// row and block counts, then per block its rows, payload size, time span
// and distinct-cell/MO counts, straight from the zone maps.
func inspectV2Segment(data []byte, path string, w io.Writer) error {
	h, err := parseSegHeader(data, path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "format v2 (blocks): %d rows in %d blocks\n", h.rows, len(h.zones))
	for b := range h.zones {
		z := &h.zones[b]
		fmt.Fprintf(w, "  block %3d: %4d rows, %6d bytes, span %s .. %s, %d cells, %d MOs\n",
			b, z.rows, h.plens[b],
			time.Unix(0, z.minStart).UTC().Format(time.RFC3339),
			time.Unix(0, z.maxEnd).UTC().Format(time.RFC3339),
			z.distinctCells, z.distinctMOs)
	}
	return nil
}
