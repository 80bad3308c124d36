// Package ckpt is the durability layer under the training/serving
// stack: a directory of checkpoint files, each one core.Snapshot (in
// the versioned binary codec) plus caller metadata, written with the
// classic database recipe — write to a temp file, fsync, rename into
// place, fsync the directory — so a crash at any point leaves either
// the old generation or the new one, never a torn file.
//
// Every Save of an id creates a new generation; Load returns the
// newest generation whose container and snapshot CRCs verify, falling
// back to older generations when the newest is corrupt (a torn disk,
// not a torn write). Stale generations beyond the retention count are
// garbage-collected on each Save, and temp files left by crashed
// writers are swept on Open.
package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dimmwitted/internal/core"
)

// container format: magic, version, id, metadata, snapshot, CRC. The
// snapshot bytes carry their own magic and CRC (core's codec); the
// container CRC additionally covers the id and metadata.
const (
	fileMagic   = "dwckpt"
	fileVersion = 1
	fileExt     = ".ckpt"
	tmpPrefix   = "tmp-"
	// genDigits is the fixed width of the hex generation segment in
	// file names, so lexical order is generation order.
	genDigits = 16
	// maxFieldLen caps decoded id/meta/snapshot lengths.
	maxFieldLen = 1 << 28
)

// Store is a file-backed checkpoint directory. All methods are safe
// for concurrent use. A Store takes itself to be the directory's only
// writer: it lists the directory once, in Open, and from then on keeps
// its index of generations as it saves and removes files.
type Store struct {
	dir  string
	keep int
	mu   sync.Mutex
	// gens maps every stored id to its generations in ascending order.
	// Open builds it from one directory listing; Save, its garbage
	// collection and Delete keep it, so none of them lists the
	// directory, whose length grows by one file per job.
	gens map[string][]uint64
}

// Options configures a Store.
type Options struct {
	// Keep is how many generations are retained per id; older ones are
	// garbage-collected on Save. 0 means 2 (the newest plus one fallback
	// for corruption recovery); negative disables collection.
	Keep int
}

// Open creates the directory if needed, sweeps temp files left by
// crashed writers, and returns a store over it.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("ckpt: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if opts.Keep == 0 {
		opts.Keep = 2
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Store{dir: dir, keep: opts.Keep, gens: map[string][]uint64{}}
	for _, de := range names {
		if strings.HasPrefix(de.Name(), tmpPrefix) {
			_ = os.Remove(filepath.Join(dir, de.Name()))
			continue
		}
		if id, gen, ok := parseFileName(de.Name()); ok {
			s.gens[id] = append(s.gens[id], gen)
		}
	}
	for _, gens := range s.gens {
		slices.Sort(gens)
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Entry describes one stored checkpoint for listings.
type Entry struct {
	// ID is the checkpoint's identifier.
	ID string
	// Generation is the newest stored generation.
	Generation uint64
	// Size is that generation's file size in bytes.
	Size int64
	// Modified is that generation's file modification time.
	Modified time.Time
}

// Save writes a new generation of id containing the snapshot and the
// caller's opaque metadata (nil is fine), returning the generation
// number and the bytes written. The write is atomic: concurrent readers
// see either the previous generation or the new one.
func (s *Store) Save(id string, snap core.Snapshot, meta []byte) (uint64, int, error) {
	if id == "" {
		return 0, 0, fmt.Errorf("ckpt: empty checkpoint id")
	}
	body := encodeContainer(id, meta, core.EncodeSnapshot(snap))

	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.gens[id]
	gen := uint64(1)
	if len(gens) > 0 {
		gen = gens[len(gens)-1] + 1
	}

	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		return 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { _ = os.Remove(tmpName) }
	if _, err := tmp.Write(body); err != nil {
		_ = tmp.Close()
		cleanup()
		return 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		cleanup()
		return 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	if err := tmp.Close(); err != nil {
		cleanup()
		return 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, fileName(id, gen))); err != nil {
		cleanup()
		return 0, 0, fmt.Errorf("ckpt: %w", err)
	}
	s.syncDir()
	s.gens[id] = append(gens, gen)
	s.gcLocked(id)
	return gen, len(body), nil
}

// syncDir fsyncs the store directory so a just-renamed file survives a
// crash; best-effort on filesystems that reject directory fsync.
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// gcLocked removes id's generations beyond the retention count, oldest
// first. A generation whose file could not be removed stays indexed,
// so a later Save tries again. Callers hold s.mu.
func (s *Store) gcLocked(id string) {
	gens := s.gens[id]
	if s.keep < 0 || len(gens) <= s.keep {
		return
	}
	var kept []uint64
	for _, g := range gens[:len(gens)-s.keep] {
		if err := os.Remove(filepath.Join(s.dir, fileName(id, g))); err != nil && !os.IsNotExist(err) {
			kept = append(kept, g)
		}
	}
	s.gens[id] = append(kept, gens[len(gens)-s.keep:]...)
}

// Load returns the newest verifiable generation of id, the metadata
// saved with it, and its generation number. Corrupt generations are
// skipped in favor of older ones; os.ErrNotExist is wrapped when no
// generation exists at all.
func (s *Store) Load(id string) (core.Snapshot, []byte, uint64, error) {
	s.mu.Lock()
	gens := slices.Clone(s.gens[id])
	s.mu.Unlock()
	if len(gens) == 0 {
		return core.Snapshot{}, nil, 0, fmt.Errorf("ckpt: no checkpoint for %q: %w", id, os.ErrNotExist)
	}
	var newestErr error
	for i := len(gens) - 1; i >= 0; i-- {
		snap, meta, err := s.loadGeneration(id, gens[i])
		if err == nil {
			return snap, meta, gens[i], nil
		}
		if newestErr == nil {
			newestErr = err
		}
	}
	return core.Snapshot{}, nil, 0, fmt.Errorf("ckpt: every generation of %q is unreadable, newest error: %w", id, newestErr)
}

// loadGeneration reads and verifies one generation file.
func (s *Store) loadGeneration(id string, gen uint64) (core.Snapshot, []byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, fileName(id, gen)))
	if err != nil {
		return core.Snapshot{}, nil, err
	}
	gotID, meta, snapBytes, err := decodeContainer(data)
	if err != nil {
		return core.Snapshot{}, nil, err
	}
	if gotID != id {
		return core.Snapshot{}, nil, fmt.Errorf("ckpt: file for %q contains checkpoint of %q", id, gotID)
	}
	snap, err := core.DecodeSnapshot(snapBytes)
	if err != nil {
		return core.Snapshot{}, nil, err
	}
	return snap, meta, nil
}

// Delete removes every generation of id. Deleting an absent id is a
// no-op.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	gens := s.gens[id]
	for k, g := range gens {
		if err := os.Remove(filepath.Join(s.dir, fileName(id, g))); err != nil && !os.IsNotExist(err) {
			s.gens[id] = gens[k:]
			return fmt.Errorf("ckpt: %w", err)
		}
	}
	delete(s.gens, id)
	return nil
}

// IDs returns every stored id in lexical order.
func (s *Store) IDs() ([]string, error) {
	entries, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out, nil
}

// List returns the newest generation of every stored id, in lexical id
// order. Unparseable file names are ignored (they are not ours).
func (s *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	newest := map[string]Entry{}
	for _, de := range des {
		id, gen, ok := parseFileName(de.Name())
		if !ok {
			continue
		}
		if prev, exists := newest[id]; exists && prev.Generation >= gen {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		newest[id] = Entry{ID: id, Generation: gen, Size: info.Size(), Modified: info.ModTime()}
	}
	out := make([]Entry, 0, len(newest))
	for _, e := range newest {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// fileName builds "<escaped-id>.<gen:016x>.ckpt".
func fileName(id string, gen uint64) string {
	return fmt.Sprintf("%s.%0*x%s", escapeID(id), genDigits, gen, fileExt)
}

// parseFileName inverts fileName. The generation segment has fixed
// width, so ids containing dots parse unambiguously from the right.
func parseFileName(name string) (id string, gen uint64, ok bool) {
	if !strings.HasSuffix(name, fileExt) || strings.HasPrefix(name, tmpPrefix) {
		return "", 0, false
	}
	base := strings.TrimSuffix(name, fileExt)
	if len(base) < genDigits+2 || base[len(base)-genDigits-1] != '.' {
		return "", 0, false
	}
	gen, err := strconv.ParseUint(base[len(base)-genDigits:], 16, 64)
	if err != nil {
		return "", 0, false
	}
	id, err = unescapeID(base[:len(base)-genDigits-1])
	if err != nil {
		return "", 0, false
	}
	return id, gen, true
}

// plainIDByte reports whether b passes into file names unescaped.
func plainIDByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '-' || b == '_' || b == '.':
		return true
	}
	return false
}

// escapeID makes an arbitrary id filesystem-safe, reversibly: bytes
// outside [A-Za-z0-9._-] (and '%' itself) become %XX.
func escapeID(id string) string {
	var sb strings.Builder
	for i := 0; i < len(id); i++ {
		b := id[i]
		if plainIDByte(b) && b != '%' {
			sb.WriteByte(b)
		} else {
			fmt.Fprintf(&sb, "%%%02X", b)
		}
	}
	return sb.String()
}

// unescapeID inverts escapeID.
func unescapeID(s string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			sb.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) {
			return "", fmt.Errorf("ckpt: truncated escape in %q", s)
		}
		v, err := strconv.ParseUint(s[i+1:i+3], 16, 8)
		if err != nil {
			return "", fmt.Errorf("ckpt: bad escape in %q", s)
		}
		sb.WriteByte(byte(v))
		i += 2
	}
	return sb.String(), nil
}

// encodeContainer frames id, metadata and snapshot bytes with the
// container magic, version and CRC.
func encodeContainer(id string, meta, snapBytes []byte) []byte {
	buf := make([]byte, 0, len(fileMagic)+2+12+len(id)+len(meta)+len(snapBytes)+4)
	buf = append(buf, fileMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, fileVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(id)))
	buf = append(buf, id...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	buf = append(buf, meta...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(snapBytes)))
	buf = append(buf, snapBytes...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// decodeContainer verifies and unframes a container.
func decodeContainer(data []byte) (id string, meta, snapBytes []byte, err error) {
	hdr := len(fileMagic) + 2
	if len(data) < hdr+12+4 {
		return "", nil, nil, fmt.Errorf("ckpt: file truncated (%d bytes)", len(data))
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return "", nil, nil, fmt.Errorf("ckpt: bad magic %q", data[:len(fileMagic)])
	}
	if v := binary.LittleEndian.Uint16(data[len(fileMagic):]); v != fileVersion {
		return "", nil, nil, fmt.Errorf("ckpt: container version %d, this build reads version %d", v, fileVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return "", nil, nil, fmt.Errorf("ckpt: CRC mismatch (stored %08x, computed %08x)", got, want)
	}
	off := hdr
	next := func(what string) ([]byte, error) {
		if off+4 > len(body) {
			return nil, fmt.Errorf("ckpt: %s length truncated", what)
		}
		n := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if n > maxFieldLen || n > len(body)-off {
			return nil, fmt.Errorf("ckpt: %s length %d exceeds file", what, n)
		}
		out := body[off : off+n]
		off += n
		return out, nil
	}
	idb, err := next("id")
	if err != nil {
		return "", nil, nil, err
	}
	meta, err = next("metadata")
	if err != nil {
		return "", nil, nil, err
	}
	snapBytes, err = next("snapshot")
	if err != nil {
		return "", nil, nil, err
	}
	if off != len(body) {
		return "", nil, nil, fmt.Errorf("ckpt: %d trailing bytes", len(body)-off)
	}
	if len(meta) == 0 {
		meta = nil
	}
	return string(idb), meta, snapBytes, nil
}
