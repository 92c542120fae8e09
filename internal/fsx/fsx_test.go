package fsx

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// assertOnlyFile fails unless name is the only entry in dir: no temp
// file was left behind.
func assertOnlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")

	if err := WriteFileAtomic(path, []byte("one"), nil); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "one" {
		t.Fatalf("read back %q, %v; want %q", got, err, "one")
	}
	assertOnlyFile(t, dir, "out.json")

	// Overwrite is atomic: the new content fully replaces the old.
	if err := WriteFileAtomic(path, []byte("two — longer content"), nil); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "two — longer content" {
		t.Fatalf("after overwrite read %q", got)
	}
}

func TestWriteFileAtomicWithDirHandle(t *testing.T) {
	dir := t.TempDir()
	d, err := os.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	path := filepath.Join(dir, "ck.json")
	if err := WriteFileAtomic(path, []byte("snap"), d); err != nil {
		t.Fatalf("WriteFileAtomic with dir handle: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "snap" {
		t.Fatalf("read back %q", got)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	err := WriteFileAtomic(filepath.Join(t.TempDir(), "no", "such", "dir", "f"), []byte("x"), nil)
	if err == nil {
		t.Fatal("want error writing into a missing directory")
	}
}

// TestWriteFileAtomicConcurrentWriters has several writers replace one
// path at once, as a worker that has gone silent and the survivor that
// restored its shard both do with a checkpoint in a shared directory.
// Every write must succeed, the file must always hold one writer's
// complete content, and no temp file may be left behind.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0.ckpt")
	const writers, rounds = 4, 50
	content := func(w int) string { return fmt.Sprintf("writer %d: %s", w, strings.Repeat("x", 512*(w+1))) }
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := WriteFileAtomic(path, []byte(content(w)), nil); err != nil {
					errs <- err
				}
				got, err := os.ReadFile(path)
				if err != nil {
					errs <- err
					continue
				}
				var ok bool
				for v := 0; v < writers; v++ {
					ok = ok || string(got) == content(v)
				}
				if !ok {
					errs <- fmt.Errorf("read a torn file of %d bytes", len(got))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	assertOnlyFile(t, dir, "shard-0.ckpt")
}
