package store

import (
	"fmt"
	"io"
	"time"

	"sitm/internal/faultfs"
)

// InspectDir renders a human-readable report of a durable store
// directory: the committed MANIFEST, then per committed generation its
// dictionary delta and, per shard, the segment's on-disk size, rows,
// block count and zone-map extents, and finally the segments' total
// bytes on disk. Everything comes from file headers; no row is decoded
// and the directory is not modified. The report backs the `sitm inspect`
// subcommand.
func InspectDir(dir string, w io.Writer) error {
	man, err := readStoreManifest(faultfs.OS, dir)
	if err != nil {
		return err
	}
	gens := man.Gens
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
			h, err := parseSegHeader(data, path)
			if err != nil {
				return err
			}
			diskBytes += int64(len(data))
			fmt.Fprintf(w, "segment %08d-%04d: %d bytes, format v2 (blocks): %d rows in %d blocks\n",
				gen, i, len(data), h.rows, len(h.zones))
			for b := range h.zones {
				z := &h.zones[b]
				fmt.Fprintf(w, "  block %3d: %4d rows, %6d bytes, span %s .. %s, %d cells, %d MOs\n",
					b, z.rows, h.plens[b],
					time.Unix(0, z.minStart).UTC().Format(time.RFC3339),
					time.Unix(0, z.maxEnd).UTC().Format(time.RFC3339),
					z.distinctCells, z.distinctMOs)
			}
		}
	}
	fmt.Fprintf(w, "segments: %d bytes on disk\n", diskBytes)
	return nil
}
