// Package store is the durable result layer of the reproduction: a
// content-addressed registry of recovered on-die ECC functions plus a job
// log, keyed by the canonical hash of the miscorrection profile
// (core.Profile.Hash). The paper frames exactly this artifact in §7 — a
// "BEER database" of recovered functions that system designers reuse instead
// of re-running the experiment per chip — and the beerd job service
// (internal/service) builds on this package so that submitted jobs survive
// restarts and byte-identical profiles short-circuit to a cached solver
// result.
//
// The package has three layers:
//
//   - Backend: a minimal bucket/key byte store. Two implementations ship:
//     MemBackend (process-lifetime, for tests and cache-only servers) and
//     FileBackend (one JSON file per record on disk, atomic writes, survives
//     restarts). Anything with the same five operations — an object store, a
//     SQL table — can slot in.
//   - Store: the typed layer over a Backend. CodeRecord (a recovered
//     function with its solver statistics, keyed by profile hash) and
//     JobRecord (one beerd job's spec, state and result) marshal to JSON and
//     round-trip through any Backend.
//   - LRU: a generic bounded single-flight cache. It fronts the Backend
//     inside SolveCache (hot profile hashes skip disk and re-parsing) and is
//     the same primitive internal/parallel uses for its exact-profile and
//     pattern-family caches, so every cache in the repository shares one
//     audited implementation.
//
// Entry points: New (Store over a Backend), Store.SolveCache (the
// core.SolveCache adapter that Recover consults before invoking the SAT
// solver), ExportCode/CodeExport (the einsim-compatible JSON wire format
// shared by `cmd/beer -o`, `cmd/einsim -code` and beerd's GET /codes).
package store

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Backend is the pluggable persistence interface: a flat byte store
// organized as named buckets of key/value pairs. Implementations must be
// safe for concurrent use. Values are opaque to the backend (the Store layer
// writes JSON). Keys and bucket names are restricted to [A-Za-z0-9._-] so
// every implementation can map them to file or object names directly;
// validKey reports the rule.
type Backend interface {
	// Put stores value under (bucket, key), overwriting any previous value.
	Put(bucket, key string, value []byte) error
	// Get returns the value under (bucket, key) and whether it exists.
	Get(bucket, key string) ([]byte, bool, error)
	// Delete removes (bucket, key); deleting a missing key is not an error.
	Delete(bucket, key string) error
	// Keys lists the keys of a bucket in lexicographic order.
	Keys(bucket string) ([]string, error)
	// Close releases backend resources. The Store calls it from Store.Close.
	Close() error
}

// validKey reports whether a bucket or key name is acceptable to every
// Backend: nonempty, at most 255 bytes, characters from [A-Za-z0-9._-], and
// not starting with a dot (so file-backed stores never produce hidden or
// traversing paths).
func validKey(s string) bool {
	if s == "" || len(s) > 255 || s[0] == '.' {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

func checkNames(bucket, key string) error {
	if !validKey(bucket) {
		return fmt.Errorf("store: invalid bucket name %q", bucket)
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	return nil
}

// MemBackend is an in-memory Backend: full speed, process lifetime. It is
// the default for beerd when no -store directory is given — jobs then dedupe
// and replay within one process but do not survive a restart.
type MemBackend struct {
	mu      sync.RWMutex
	buckets map[string]map[string][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{buckets: make(map[string]map[string][]byte)}
}

// Put implements Backend. The value is copied, so callers may reuse the
// slice.
func (m *MemBackend) Put(bucket, key string, value []byte) error {
	if err := checkNames(bucket, key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.buckets[bucket]
	if !ok {
		b = make(map[string][]byte)
		m.buckets[bucket] = b
	}
	b[key] = append([]byte(nil), value...)
	return nil
}

// Get implements Backend; the returned slice is a copy.
func (m *MemBackend) Get(bucket, key string) ([]byte, bool, error) {
	if err := checkNames(bucket, key); err != nil {
		return nil, false, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	v, ok := m.buckets[bucket][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Delete implements Backend.
func (m *MemBackend) Delete(bucket, key string) error {
	if err := checkNames(bucket, key); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.buckets[bucket], key)
	return nil
}

// Keys implements Backend.
func (m *MemBackend) Keys(bucket string) ([]string, error) {
	if !validKey(bucket) {
		return nil, fmt.Errorf("store: invalid bucket name %q", bucket)
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.buckets[bucket]))
	for k := range m.buckets[bucket] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Close implements Backend; it is a no-op for the in-memory backend.
func (m *MemBackend) Close() error { return nil }

// String identifies the backend in logs.
func (m *MemBackend) String() string { return "mem" }

var _ Backend = (*MemBackend)(nil)

// describeBackend renders a backend for healthz/log output.
func describeBackend(b Backend) string {
	if s, ok := b.(fmt.Stringer); ok {
		return s.String()
	}
	return strings.TrimPrefix(fmt.Sprintf("%T", b), "*")
}
