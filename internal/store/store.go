package store

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
)

// Bucket names the Store layer uses on any Backend.
const (
	// BucketCodes holds CodeRecords keyed by canonical profile hash — the
	// content-addressed registry of recovered ECC functions (the paper's §7
	// "BEER database").
	BucketCodes = "codes"
	// BucketJobs holds JobRecords keyed by job id — the beerd job log that
	// makes submissions survive restarts.
	BucketJobs = "jobs"
)

// Store is the typed layer over a Backend: recovered-code records addressed
// by profile hash, and job records addressed by job id. A Store is safe for
// concurrent use if its Backend is (both shipped backends are).
type Store struct {
	backend Backend
	// results caches reconstructed solver results per profile hash so
	// repeated lookups of a hot hash skip the backend read and code
	// re-parsing. Shared by every SolveCache view of this Store.
	results *LRU[string, *core.Result]
	// codes caches parsed registry records per profile hash, so GetCode —
	// the solve-cache write path's provenance check and the /codes
	// handlers — stops paying a disk open plus a JSON decode per hit on a
	// file backend. Entries are shared read-only.
	codes *LRU[string, codeEntry]
}

// resultCacheSize bounds the in-memory result cache fronting the backend. A
// result is a handful of parsed codes — hundreds are cheap, and the durable
// record remains behind every eviction. codeCacheSize bounds the parsed
// CodeRecord cache the same way.
const (
	resultCacheSize = 512
	codeCacheSize   = 512
)

// codeEntry is one cached GetCode outcome: the parsed record, or the read
// error that produced no record. Misses and errors are never left in the
// cache (see GetCode), so the zero entry only ever exists transiently.
type codeEntry struct {
	rec *CodeRecord
	err error
}

// New wraps a Backend in the typed Store layer.
func New(b Backend) *Store {
	return &Store{
		backend: b,
		results: NewLRU[string, *core.Result](resultCacheSize),
		codes:   NewLRU[string, codeEntry](codeCacheSize),
	}
}

// Backend returns the underlying persistence backend.
func (s *Store) Backend() Backend { return s.backend }

// Instrument wraps the store's backend so every operation reports its
// latency to observe with an op label ("get", "put", "delete", "keys") —
// how beerd feeds the beerd_store_op_seconds histogram without the store
// depending on the metrics layer. Call before the store is shared across
// goroutines (service.New does); instrumenting twice stacks the wrappers.
func (s *Store) Instrument(observe func(op string, seconds float64)) {
	if observe == nil {
		return
	}
	s.backend = &timedBackend{inner: s.backend, observe: observe}
}

// timedBackend decorates a Backend with per-operation latency callbacks.
type timedBackend struct {
	inner   Backend
	observe func(op string, seconds float64)
}

func (b *timedBackend) timed(op string, start time.Time) {
	b.observe(op, time.Since(start).Seconds())
}

func (b *timedBackend) Put(bucket, key string, value []byte) error {
	defer b.timed("put", time.Now())
	return b.inner.Put(bucket, key, value)
}

func (b *timedBackend) Get(bucket, key string) ([]byte, bool, error) {
	defer b.timed("get", time.Now())
	return b.inner.Get(bucket, key)
}

func (b *timedBackend) Delete(bucket, key string) error {
	defer b.timed("delete", time.Now())
	return b.inner.Delete(bucket, key)
}

func (b *timedBackend) Keys(bucket string) ([]string, error) {
	defer b.timed("keys", time.Now())
	return b.inner.Keys(bucket)
}

func (b *timedBackend) Close() error { return b.inner.Close() }

// String keeps Describe rendering the wrapped backend's identity.
func (b *timedBackend) String() string { return describeBackend(b.inner) }

// Describe renders the backend for logs and healthz ("mem", "file:<dir>").
func (s *Store) Describe() string { return describeBackend(s.backend) }

// Close releases the backend.
func (s *Store) Close() error { return s.backend.Close() }

// CodeRecord is one entry of the recovered-code registry: every candidate
// ECC function consistent with a miscorrection profile, plus the solver
// statistics of the run that found them. Records are keyed by the profile's
// canonical hash (core.Profile.Hash), so two experiments observing the same
// fingerprint share one record.
type CodeRecord struct {
	// ProfileHash is the canonical content address (lowercase hex SHA-256 of
	// the profile's normalized serialization).
	ProfileHash string `json:"profile_hash"`
	// K and N describe the code shape (dataword and codeword bits).
	K int `json:"k"`
	N int `json:"n"`
	// Codes holds every candidate in ecc.Code text form (parseable with
	// ecc.Code.UnmarshalText), in solver discovery order. Empty means the
	// profile was proven unsatisfiable.
	Codes []string `json:"codes"`
	// Unique and Exhausted mirror core.Result: Unique means exactly one
	// function matches and the search proved it.
	Unique    bool `json:"unique"`
	Exhausted bool `json:"exhausted"`
	// Solver statistics of the original run, replayed on cache hits.
	Vars            int     `json:"vars"`
	Clauses         int     `json:"clauses"`
	LazyRefinements int     `json:"lazy_refinements,omitempty"`
	DetermineMS     float64 `json:"determine_ms"`
	UniquenessMS    float64 `json:"uniqueness_ms"`
	// CreatedAt stamps the first successful solve; Source identifies the
	// producer (a beerd job id, "cmd/beer", ...).
	CreatedAt time.Time `json:"created_at"`
	Source    string    `json:"source,omitempty"`
}

// recordFromResult converts a successful solve into a registry record.
func recordFromResult(profileHash string, k int, res *core.Result, source string) *CodeRecord {
	rec := &CodeRecord{
		ProfileHash:     profileHash,
		K:               k,
		Unique:          res.Unique,
		Exhausted:       res.Exhausted,
		Vars:            res.Vars,
		Clauses:         res.Clauses,
		LazyRefinements: res.LazyRefinements,
		DetermineMS:     res.DetermineTime.Seconds() * 1e3,
		UniquenessMS:    res.UniquenessTime.Seconds() * 1e3,
		CreatedAt:       time.Now().UTC(),
		Source:          source,
	}
	for _, code := range res.Codes {
		rec.N = code.N()
		text, err := code.MarshalText()
		if err != nil {
			continue // MarshalText has no failing path today; skip defensively
		}
		rec.Codes = append(rec.Codes, string(text))
	}
	return rec
}

// result reconstructs the core.Result the record was created from. Timing
// and encoding statistics replay from the original run; per-conflict SAT
// stats are not persisted and come back zero.
func (r *CodeRecord) result() (*core.Result, error) {
	res := &core.Result{
		Unique:          r.Unique,
		Exhausted:       r.Exhausted,
		Vars:            r.Vars,
		Clauses:         r.Clauses,
		LazyRefinements: r.LazyRefinements,
		DetermineTime:   time.Duration(r.DetermineMS * float64(time.Millisecond)),
		UniquenessTime:  time.Duration(r.UniquenessMS * float64(time.Millisecond)),
	}
	for i, text := range r.Codes {
		code := new(ecc.Code)
		if err := code.UnmarshalText([]byte(text)); err != nil {
			return nil, fmt.Errorf("store: record %s code %d: %w", r.ProfileHash, i, err)
		}
		res.Codes = append(res.Codes, code)
	}
	return res, nil
}

// putCode writes a registry record under its profile hash, overwriting any
// previous record for the hash. The caller yields ownership: the record is
// cached and later GetCode callers share it read-only.
func (s *Store) putCode(rec *CodeRecord) error {
	if rec.ProfileHash == "" {
		return fmt.Errorf("store: code record without profile hash")
	}
	if err := s.putJSON(BucketCodes, rec.ProfileHash, rec); err != nil {
		return err
	}
	s.codes.add(rec.ProfileHash, codeEntry{rec: rec})
	return nil
}

// GetCode returns the registry record for a profile hash. Hot hashes are
// served from the in-memory record cache; the returned record is shared and
// must be treated as read-only. Misses and read errors are never cached: a
// record that appears in the backend later (seeded by an operator, or
// written by another process sharing the store directory) is found on the
// next lookup, and a corrupt record keeps reporting its error until the
// solve-cache path overwrites it.
func (s *Store) GetCode(profileHash string) (*CodeRecord, bool, error) {
	e := s.codes.Get(profileHash, func() codeEntry {
		rec := new(CodeRecord)
		ok, err := s.getJSON(BucketCodes, profileHash, rec)
		if err != nil {
			return codeEntry{err: err}
		}
		if !ok {
			return codeEntry{}
		}
		return codeEntry{rec: rec}
	})
	if e.rec == nil {
		s.codes.remove(profileHash)
		return nil, false, e.err
	}
	return e.rec, true, nil
}

// Codes lists every registry record, oldest first (ties break on hash).
// Records that fail to read or parse are skipped: one corrupt file must not
// take down the whole listing (direct GetCode still reports the error, and
// the solve-cache path overwrites corrupt records on the next solve).
func (s *Store) Codes() ([]*CodeRecord, error) {
	keys, err := s.backend.Keys(BucketCodes)
	if err != nil {
		return nil, err
	}
	out := make([]*CodeRecord, 0, len(keys))
	for _, key := range keys {
		rec, ok, err := s.GetCode(key)
		if err != nil || !ok {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ProfileHash < out[j].ProfileHash
	})
	return out, nil
}

// JobRecord is the durable form of one beerd job. The spec and result are
// stored as raw JSON — the service owns their schemas — so the store stays
// decoupled from the HTTP layer while still replaying both verbatim after a
// restart.
type JobRecord struct {
	ID   string `json:"id"`
	Type string `json:"type"`
	// Spec is the submitted JobSpec, verbatim; a restarted server re-runs
	// non-terminal jobs from it.
	Spec json.RawMessage `json:"spec"`
	// State is the job lifecycle state ("running", "succeeded", "failed",
	// "canceled"). A record persisted as "running" marks a job interrupted
	// by a shutdown or crash; restart resumes it from the spec.
	State    string    `json:"state"`
	Error    string    `json:"error,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// result is the JobResult JSON of a succeeded job.
	Result json.RawMessage `json:"result,omitempty"`
	// ProfileHash links a succeeded recovery job to its BucketCodes record.
	ProfileHash string `json:"profile_hash,omitempty"`
}

// PutJob writes a job record under its id.
func (s *Store) PutJob(rec *JobRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("store: job record without id")
	}
	return s.putJSON(BucketJobs, rec.ID, rec)
}

// GetJob returns the job record for an id.
func (s *Store) GetJob(id string) (*JobRecord, bool, error) {
	rec := new(JobRecord)
	ok, err := s.getJSON(BucketJobs, id, rec)
	if !ok || err != nil {
		return nil, false, err
	}
	return rec, true, nil
}

// Jobs lists every job record in key order (the service re-sorts by
// submission sequence). As with Codes, records that fail to read or parse
// are skipped so one corrupt file cannot block replaying every other job.
func (s *Store) Jobs() ([]*JobRecord, error) {
	keys, err := s.backend.Keys(BucketJobs)
	if err != nil {
		return nil, err
	}
	out := make([]*JobRecord, 0, len(keys))
	for _, key := range keys {
		rec, ok, err := s.GetJob(key)
		if err != nil || !ok {
			continue
		}
		out = append(out, rec)
	}
	return out, nil
}

func (s *Store) putJSON(bucket, key string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal %s/%s: %w", bucket, key, err)
	}
	return s.backend.Put(bucket, key, append(data, '\n'))
}

func (s *Store) getJSON(bucket, key string, v any) (bool, error) {
	data, ok, err := s.backend.Get(bucket, key)
	if !ok || err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return false, fmt.Errorf("store: unmarshal %s/%s: %w", bucket, key, err)
	}
	return true, nil
}
