package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// FileBackend is a JSON-on-disk Backend: every (bucket, key) pair lives at
// <root>/<bucket>/<key>.json. The layout is deliberately transparent —
// records can be inspected, backed up or seeded with ordinary shell tools —
// and writes are atomic (temp file + rename in the same directory), so a
// crash mid-write leaves either the old record or the new one, never a
// truncated file. This is what `beerd -store <dir>` uses to keep jobs and
// the recovered-code registry across restarts.
type FileBackend struct {
	root string
	// mu serializes writers per backend. It is not needed for reader
	// consistency — Get/Keys are safe against concurrent Puts because
	// writes land under dot-prefixed temp names (which Keys skips) and
	// become visible only through an atomic rename — it just keeps two
	// writers from racing on bucket creation and temp-file churn.
	mu sync.Mutex
}

// fileExt is appended to every key on disk; Keys strips it. Values written
// by the Store layer are JSON documents, and the extension keeps them
// double-clickable and grep-friendly.
const fileExt = ".json"

// NewFileBackend opens (creating if needed) a file-backed store rooted at
// dir.
func NewFileBackend(dir string) (*FileBackend, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty file-backend directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	return &FileBackend{root: dir}, nil
}

func (f *FileBackend) path(bucket, key string) string {
	return filepath.Join(f.root, bucket, key+fileExt)
}

// Put implements Backend with an atomic write: the value lands in a
// temporary file in the bucket directory and is renamed over the final name.
func (f *FileBackend) Put(bucket, key string, value []byte) error {
	if err := checkNames(bucket, key); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	dir := filepath.Join(f.root, bucket)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: create bucket: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(value); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: write: %w", err)
	}
	// Flush the data before the rename: without it a crash can journal the
	// rename ahead of the contents and leave a truncated record — exactly
	// what the atomic-write claim rules out.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: close: %w", err)
	}
	if err := os.Rename(tmpName, f.path(bucket, key)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store: rename: %w", err)
	}
	// Persist the directory entry too (best-effort: some platforms cannot
	// sync directories, and the data itself is already durable).
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Get implements Backend.
func (f *FileBackend) Get(bucket, key string) ([]byte, bool, error) {
	if err := checkNames(bucket, key); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(f.path(bucket, key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s/%s: %w", bucket, key, err)
	}
	return data, true, nil
}

// Delete implements Backend.
func (f *FileBackend) Delete(bucket, key string) error {
	if err := checkNames(bucket, key); err != nil {
		return err
	}
	err := os.Remove(f.path(bucket, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: delete %s/%s: %w", bucket, key, err)
	}
	return nil
}

// Keys implements Backend. Temp files (dot-prefixed) and foreign files are
// skipped, so a backup tool dropping extra files into a bucket directory
// cannot corrupt listings.
func (f *FileBackend) Keys(bucket string) ([]string, error) {
	if !validKey(bucket) {
		return nil, fmt.Errorf("store: invalid bucket name %q", bucket)
	}
	entries, err := os.ReadDir(filepath.Join(f.root, bucket))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", bucket, err)
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, fileExt) {
			continue
		}
		key := strings.TrimSuffix(name, fileExt)
		if !validKey(key) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// Close implements Backend; the file backend holds no open handles between
// calls.
func (f *FileBackend) Close() error { return nil }

// String identifies the backend in logs.
func (f *FileBackend) String() string { return "file:" + f.root }

var _ Backend = (*FileBackend)(nil)
