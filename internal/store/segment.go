package store

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"sitm/internal/core"
	"sitm/internal/faultfs"
	"sitm/internal/symtab"
)

// On-disk layout of a durable store directory (DESIGN.md §3.10):
//
//	dir/MANIFEST.json        commit point: {version, shards, gen, next_seq, gens}
//	dir/seg/<gen>.dict       dictionary delta: the symbols gen added
//	dir/seg/<gen>-<shard>.seg one immutable columnar segment per shard: the
//	                         rows the shard gained since the previous gen
//	dir/wal/<gen>.wal        the write-ahead log: dictionary deltas and
//	                         every shard's rows, in append order
//
// Each checkpoint adds one generation and the manifest lists every
// committed generation in order; a store is the concatenation of its
// generations, then the WAL tail. Segments and the dict file are written
// to a temp name and renamed; the MANIFEST rename is the checkpoint's
// commit point. Every non-WAL file is framed magic + payload + trailing
// CRC32C, so a half-written file (crash before rename can't leave one
// visible, but a torn rename target on a non-atomic filesystem could) is
// detected, not half-loaded.

const (
	manifestName    = "MANIFEST.json"
	walDirName      = "wal"
	segDirName      = "seg"
	manifestVersion = 2

	dictDeltaMagic = "SITMDCT2" // per dictionary: first new id + page

	// WAL record types.
	recDict byte = 1 // dict delta: kind, startID, symbol page
	recRow  byte = 2 // one encoded trajectory row
)

// manifest is the durable store's commit record.
type manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Gen     uint64 `json:"gen"`      // newest segment generation (0 = none)
	NextSeq uint64 `json:"next_seq"` // rows with seq < NextSeq live in segments
	// Gens lists the committed generations, oldest first.
	Gens []uint64 `json:"gens,omitempty"`
}

func segDictPath(dir string, gen uint64) string {
	return filepath.Join(dir, segDirName, fmt.Sprintf("%08d.dict", gen))
}

func segPath(dir string, gen uint64, shard int) string {
	return filepath.Join(dir, segDirName, fmt.Sprintf("%08d-%04d.seg", gen, shard))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, walDirName, fmt.Sprintf("%08d.wal", gen))
}

func readManifest(fsys faultfs.FS, dir string) (*manifest, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		// An earlier build rewrites a version-1 manifest only at a
		// checkpoint that commits something: a checkpoint with no new row
		// or symbol writes no file.
		return nil, fmt.Errorf("store: %s is version %d; this build reads only version %d. An earlier build upgrades it at its first checkpoint with rows to commit (ingest into the directory with that build, then run `sitm compact -store %s`); or re-ingest the rows into a new directory",
			filepath.Join(dir, manifestName), m.Version, manifestVersion, dir)
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("store: manifest shards %d", m.Shards)
	}
	for i, g := range m.Gens {
		if g == 0 || i > 0 && g <= m.Gens[i-1] {
			return nil, fmt.Errorf("store: manifest generations %v not strictly ascending", m.Gens)
		}
	}
	if n := len(m.Gens); n > 0 && m.Gens[n-1] != m.Gen || n == 0 && m.Gen != 0 {
		return nil, fmt.Errorf("store: manifest gen %d is not its newest generation %v", m.Gen, m.Gens)
	}
	return &m, nil
}

// readStoreManifest is readManifest for a directory that must already be
// a store: a missing MANIFEST is an error, not a fresh store.
func readStoreManifest(fsys faultfs.FS, dir string) (*manifest, error) {
	man, err := readManifest(fsys, dir)
	if err == nil && man == nil {
		err = fmt.Errorf("store: %s: no %s (not a durable store directory)", dir, manifestName)
	}
	return man, err
}

// writeManifest commits a manifest atomically: temp file, fsync, rename,
// fsync of the directory. After the rename is durable, recovery observes
// the new generation and checkpoint watermark together or not at all.
func writeManifest(fsys faultfs.FS, dir string, m *manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return commitFile(fsys, filepath.Join(dir, manifestName), append(data, '\n'))
}

// commitFile atomically replaces path with data (temp + fsync + rename +
// dir fsync). All I/O goes through fsys so fault-injection tests can fail
// any step — a failed rename leaves the old file authoritative and the
// temp file behind (ignored by recovery), which is exactly why checkpoint
// commit failures are retryable.
func commitFile(fsys faultfs.FS, path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		fsys.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		fsys.Remove(tmpName)
		return err
	}
	return syncDir(fsys, dir)
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// frame wraps payload as magic + payload + CRC32C.
func frame(magic string, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+len(payload)+4)
	out = append(out, magic...)
	out = append(out, payload...)
	sum := crc32.Checksum(payload, castagnoliTable)
	return binary.LittleEndian.AppendUint32(out, sum)
}

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// unframe validates magic and trailing CRC and returns the payload.
func unframe(magic string, data []byte, path string) ([]byte, error) {
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: %s: bad or missing %s header", path, magic)
	}
	payload := data[len(magic) : len(data)-4]
	sum := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.Checksum(payload, castagnoliTable) != sum {
		return nil, fmt.Errorf("store: %s: checksum mismatch", path)
	}
	return payload, nil
}

// dictDelta is the symbols one generation added to the three store
// dictionaries (cells, mos, pairs — the dictKinds order): dictionary k
// gained syms[k] at ids [from[k], from[k]+len(syms[k])).
type dictDelta struct {
	from [3]int
	syms [3][]string
}

func (dd *dictDelta) empty() bool {
	return len(dd.syms[0])+len(dd.syms[1])+len(dd.syms[2]) == 0
}

// encodeDictDelta serializes a generation's dictionary file: per
// dictionary the first new id and a symbol page — a WAL delta
// record per dictionary, framed and checksummed.
func encodeDictDelta(dd *dictDelta) []byte {
	var payload []byte
	for k := range dd.syms {
		payload = binary.AppendUvarint(payload, uint64(dd.from[k]))
		payload = symtab.AppendPage(payload, dd.syms[k])
	}
	return frame(dictDeltaMagic, payload)
}

// decodeDictFile decodes a generation's dictionary delta file (SITMDCT2).
func decodeDictFile(data []byte, path string) (*dictDelta, error) {
	payload, err := unframe(dictDeltaMagic, data, path)
	if err != nil {
		return nil, err
	}
	dd := &dictDelta{}
	for k, name := range [3]string{"cells", "mos", "pairs"} {
		from, w := binary.Uvarint(payload)
		if w <= 0 || from > math.MaxInt32 {
			return nil, fmt.Errorf("store: %s %s: bad start id", path, name)
		}
		dd.from[k] = int(from)
		payload = payload[w:]
		if dd.syms[k], payload, err = symtab.DecodePage(payload); err != nil {
			return nil, fmt.Errorf("store: %s %s: %w", path, name, err)
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("store: %s: %d trailing bytes", path, len(payload))
	}
	return dd, nil
}

// segmentColumns is one shard's capture for segment writing: slice headers
// over the shard's append-only columns, taken under the checkpoint gate.
type segmentColumns struct {
	seqs   []uint64
	moIDs  []int32
	encs   [][]int32
	anns   [][]int32
	starts []int64 // span start per row, unix nanos
	ends   []int64
	trajs  []core.Trajectory // residual source (encoded outside the gate)
}

// sweepDir deletes from dir what the manifest does not reference:
// commitFile temp files, and the dictionary and segment files of every
// generation not in listed — the output of a checkpoint that crashed or
// failed before its commit, or of a generation a committed checkpoint
// dropped. Other names are left alone. Best effort: a file that survives
// is swept by the next commit or writable open.
func sweepDir(fsys faultfs.FS, dir string, listed []uint64) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		gen, ok := segFileGen(name)
		if ok && !slices.Contains(listed, gen) || strings.HasPrefix(name, ".tmp-") {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// segFileGen parses the generation out of a dictionary (<gen>.dict) or
// segment (<gen>-<shard>.seg) file name.
func segFileGen(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, ".dict")
	if !ok {
		if base, ok = strings.CutSuffix(name, ".seg"); !ok {
			return 0, false
		}
		if base, _, ok = strings.Cut(base, "-"); !ok {
			return 0, false
		}
	}
	gen, err := strconv.ParseUint(base, 10, 64)
	return gen, err == nil
}

// walFile is one discovered WAL file: its generation, path and size.
type walFile struct {
	gen  uint64
	path string
	size int64
}

// listWALFiles scans dir/wal and returns the logs in ascending generation
// order, and the empty files of the earlier per-shard layout
// (<gen>.dict.wal, <gen>-<shard>.row.wal) — what that layout leaves after
// a drain or a checkpoint. A non-empty file of that layout holds rows or
// symbols no log has, so it fails the listing with the way to upgrade.
func listWALFiles(fsys faultfs.FS, dir string) (logs, drained []walFile, err error) {
	entries, err := fsys.ReadDir(filepath.Join(dir, walDirName))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		gen, old, ok := parseWALName(name)
		if !ok {
			return nil, nil, fmt.Errorf("store: unrecognized wal file %s", name)
		}
		info, err := e.Info()
		if err != nil {
			return nil, nil, err
		}
		wf := walFile{gen, filepath.Join(dir, walDirName, name), info.Size()}
		if !old {
			logs = append(logs, wf)
			continue
		}
		if wf.size != 0 {
			return nil, nil, fmt.Errorf("store: %s is a non-empty log of the earlier per-shard WAL layout, which this build no longer reads: open the directory with an earlier build and run `sitm compact -store %s` first", wf.path, dir)
		}
		drained = append(drained, wf)
	}
	slices.SortFunc(logs, func(a, b walFile) int { return cmp.Compare(a.gen, b.gen) })
	return logs, drained, nil
}

// parseWALName parses a WAL file name: <gen>.wal, or (old) a file of the
// earlier per-shard layout.
func parseWALName(name string) (gen uint64, old, ok bool) {
	base, old := strings.CutSuffix(name, ".dict.wal")
	if !old {
		if base, old = strings.CutSuffix(name, ".row.wal"); old {
			var shard string
			if base, shard, ok = strings.Cut(base, "-"); !ok {
				return 0, false, false
			}
			if _, err := strconv.ParseUint(shard, 10, 32); err != nil {
				return 0, false, false
			}
		} else if base, ok = strings.CutSuffix(name, ".wal"); !ok {
			return 0, false, false
		}
	}
	gen, err := strconv.ParseUint(base, 10, 64)
	return gen, old, err == nil
}
