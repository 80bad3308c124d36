package ckpt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dimmwitted/internal/core"
)

func testSnap(epoch int) core.Snapshot {
	return core.Snapshot{
		Workload:  core.WorkloadGLM,
		Spec:      "svm",
		Dataset:   "reuters",
		Epoch:     epoch,
		Loss:      float64(epoch) * 0.25,
		X:         []float64{1, 2, 3, float64(epoch)},
		EngineRNG: core.RNGState{Seed: 1, Draws: uint64(epoch)},
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	gen, n, err := s.Save("job-1", testSnap(5), []byte(`{"max_epochs":50}`))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || n == 0 {
		t.Fatalf("gen=%d bytes=%d", gen, n)
	}
	snap, meta, gotGen, err := s.Load("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if gotGen != 1 || snap.Epoch != 5 || string(meta) != `{"max_epochs":50}` {
		t.Fatalf("load: gen=%d epoch=%d meta=%q", gotGen, snap.Epoch, meta)
	}
	for i, x := range snap.X {
		if math.Float64bits(x) != math.Float64bits(testSnap(5).X[i]) {
			t.Fatalf("X[%d] changed", i)
		}
	}
}

func TestLoadMissing(t *testing.T) {
	s := mustOpen(t, Options{})
	if _, _, _, err := s.Load("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
}

func TestGenerationsAdvanceAndGC(t *testing.T) {
	s := mustOpen(t, Options{Keep: 2})
	for ep := 1; ep <= 5; ep++ {
		if _, _, err := s.Save("job-1", testSnap(ep), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, _, gen, err := s.Load("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 5 || snap.Epoch != 5 {
		t.Fatalf("latest gen=%d epoch=%d, want 5/5", gen, snap.Epoch)
	}
	files, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Fatalf("GC kept %d generations, want 2", len(files))
	}
}

func TestCorruptNewestFallsBackToOlder(t *testing.T) {
	s := mustOpen(t, Options{Keep: 3})
	if _, _, err := s.Save("job-1", testSnap(1), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Save("job-1", testSnap(2), nil); err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the newest generation.
	path := filepath.Join(s.Dir(), fileName("job-1", 2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, _, gen, err := s.Load("job-1")
	if err != nil {
		t.Fatalf("load with corrupt newest: %v", err)
	}
	if gen != 1 || snap.Epoch != 1 {
		t.Fatalf("fallback loaded gen=%d epoch=%d, want 1/1", gen, snap.Epoch)
	}

	// With every generation corrupt, Load must fail with the CRC story.
	path1 := filepath.Join(s.Dir(), fileName("job-1", 1))
	data1, _ := os.ReadFile(path1)
	data1[len(data1)/2] ^= 0x40
	_ = os.WriteFile(path1, data1, 0o644)
	if _, _, _, err := s.Load("job-1"); err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("want unreadable error, got %v", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	s := mustOpen(t, Options{})
	if _, _, err := s.Save("job-1", testSnap(1), nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Dir(), fileName("job-1", 1))
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Load("job-1"); err == nil {
		t.Fatal("load accepted truncated file")
	}
}

func TestDeleteRemovesAllGenerations(t *testing.T) {
	s := mustOpen(t, Options{Keep: 5})
	for ep := 1; ep <= 3; ep++ {
		if _, _, err := s.Save("job-1", testSnap(ep), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Save("job-2", testSnap(9), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Load("job-1"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted id still loads: %v", err)
	}
	if _, _, _, err := s.Load("job-2"); err != nil {
		t.Fatalf("unrelated id lost: %v", err)
	}
	if err := s.Delete("never-existed"); err != nil {
		t.Fatalf("deleting absent id: %v", err)
	}
}

func TestListAndIDs(t *testing.T) {
	s := mustOpen(t, Options{})
	for _, id := range []string{"b", "a", "c"} {
		if _, _, err := s.Save(id, testSnap(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Save("b", testSnap(2), nil); err != nil {
		t.Fatal(err)
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3", len(entries))
	}
	wantIDs := []string{"a", "b", "c"}
	for i, e := range entries {
		if e.ID != wantIDs[i] {
			t.Fatalf("entry %d is %q, want %q", i, e.ID, wantIDs[i])
		}
	}
	if entries[1].Generation != 2 {
		t.Fatalf("b's newest generation = %d, want 2", entries[1].Generation)
	}
}

func TestAwkwardIDsRoundTrip(t *testing.T) {
	s := mustOpen(t, Options{})
	ids := []string{"job-1", "with space", "slash/../escape", "dots...everywhere", "per%cent", "ünïcode"}
	for _, id := range ids {
		if _, _, err := s.Save(id, testSnap(3), nil); err != nil {
			t.Fatalf("save %q: %v", id, err)
		}
	}
	for _, id := range ids {
		if _, _, _, err := s.Load(id); err != nil {
			t.Fatalf("load %q: %v", id, err)
		}
	}
	got, err := s.IDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("%d ids, want %d: %q", len(got), len(ids), got)
	}
	// Escaped names must stay inside the store directory.
	des, _ := os.ReadDir(s.Dir())
	for _, de := range des {
		if strings.Contains(de.Name(), "/") {
			t.Fatalf("file name %q escaped the directory", de.Name())
		}
	}
}

func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"12345"), []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"12345")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale temp file survived Open")
	}
	entries, err := s.List()
	if err != nil || len(entries) != 0 {
		t.Fatalf("entries=%v err=%v", entries, err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Save("job-1", testSnap(4), []byte("m")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, meta, _, err := s2.Load("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 4 || string(meta) != "m" {
		t.Fatalf("reopened store returned epoch=%d meta=%q", snap.Epoch, meta)
	}
}

// onDisk lists the directory's generations per id, as the index should
// hold them.
func onDisk(t *testing.T, dir string) map[string][]uint64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]uint64{}
	for _, de := range des {
		if id, gen, ok := parseFileName(de.Name()); ok {
			out[id] = append(out[id], gen)
		}
	}
	return out
}

// TestGenerationIndexConsistent: the in-memory generation index agrees
// with the directory across Save, garbage collection, Delete and a
// reopen, and generation numbers continue from it.
func TestGenerationIndexConsistent(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(s *Store, when string) {
		t.Helper()
		if want := onDisk(t, dir); !reflect.DeepEqual(s.gens, want) {
			t.Fatalf("%s: index %v, directory %v", when, s.gens, want)
		}
	}
	save := func(s *Store, id string, wantGen uint64) {
		t.Helper()
		gen, _, err := s.Save(id, testSnap(int(wantGen)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if gen != wantGen {
			t.Fatalf("Save(%q) = generation %d, want %d", id, gen, wantGen)
		}
		check(s, fmt.Sprintf("after Save(%q) gen %d", id, gen))
	}
	for g := uint64(1); g <= 5; g++ {
		save(s, "a", g)
	}
	for g := uint64(1); g <= 3; g++ {
		save(s, "b.c/d", g)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	check(s, "after Delete")
	if _, _, _, err := s.Load("a"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load after Delete: %v, want ErrNotExist", err)
	}
	if err := s.Delete("never-saved"); err != nil {
		t.Fatal(err)
	}
	save(s, "a", 1)

	// A crashed writer's temp file is swept, not indexed.
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"1"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	check(r, "after reopen")
	save(r, "b.c/d", 4)
	save(r, "a", 2)
	snap, _, gen, err := r.Load("b.c/d")
	if err != nil || gen != 4 || snap.Epoch != 4 {
		t.Fatalf("Load after reopen: gen %d epoch %d err %v, want 4/4", gen, snap.Epoch, err)
	}
}
