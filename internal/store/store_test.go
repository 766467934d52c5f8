package store

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ecc"
)

// testBackends builds one instance of every shipped Backend.
func testBackends(t *testing.T) map[string]Backend {
	t.Helper()
	fb, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Backend{"mem": NewMemBackend(), "file": fb}
}

// TestBackendConformance runs the Backend contract against every
// implementation: put/get round-trip, overwrite, delete idempotence, sorted
// key listings, and name validation.
func TestBackendConformance(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := b.Get("bucket", "missing"); ok || err != nil {
				t.Fatalf("get missing: ok=%v err=%v", ok, err)
			}
			if err := b.Put("bucket", "b-key", []byte("two")); err != nil {
				t.Fatal(err)
			}
			if err := b.Put("bucket", "a-key", []byte("one")); err != nil {
				t.Fatal(err)
			}
			got, ok, err := b.Get("bucket", "a-key")
			if err != nil || !ok || string(got) != "one" {
				t.Fatalf("get: %q ok=%v err=%v", got, ok, err)
			}
			if err := b.Put("bucket", "a-key", []byte("uno")); err != nil {
				t.Fatal(err)
			}
			if got, _, _ := b.Get("bucket", "a-key"); string(got) != "uno" {
				t.Fatalf("overwrite lost: %q", got)
			}
			keys, err := b.Keys("bucket")
			if err != nil || len(keys) != 2 || keys[0] != "a-key" || keys[1] != "b-key" {
				t.Fatalf("keys: %v err=%v", keys, err)
			}
			if keys, err := b.Keys("empty-bucket"); err != nil || len(keys) != 0 {
				t.Fatalf("empty bucket keys: %v err=%v", keys, err)
			}
			if err := b.Delete("bucket", "a-key"); err != nil {
				t.Fatal(err)
			}
			if err := b.Delete("bucket", "a-key"); err != nil {
				t.Fatalf("second delete: %v", err)
			}
			if _, ok, _ := b.Get("bucket", "a-key"); ok {
				t.Fatal("deleted key still present")
			}
			for _, bad := range []string{"", "../escape", "a/b", ".hidden", "sp ace"} {
				if err := b.Put("bucket", bad, []byte("x")); err == nil {
					t.Fatalf("key %q accepted", bad)
				}
				if err := b.Put(bad, "key", []byte("x")); err == nil {
					t.Fatalf("bucket %q accepted", bad)
				}
			}
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFileBackendPersists: a reopened file backend sees everything a
// previous instance wrote, and values land as plain files under
// <root>/<bucket>/<key>.json.
func TestFileBackendPersists(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.Put("codes", "deadbeef", []byte(`{"k":16}`)); err != nil {
		t.Fatal(err)
	}
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := os.Stat(filepath.Join(dir, "codes", "deadbeef.json")); err != nil {
		t.Fatalf("expected transparent on-disk layout: %v", err)
	}

	reopened, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := reopened.Get("codes", "deadbeef")
	if err != nil || !ok || string(got) != `{"k":16}` {
		t.Fatalf("reopen lost data: %q ok=%v err=%v", got, ok, err)
	}
	// Foreign and temporary files in a bucket directory are invisible.
	if err := os.WriteFile(filepath.Join(dir, "codes", "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "codes", ".stray.json.tmp-1"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := reopened.Keys("codes")
	if err != nil || len(keys) != 1 || keys[0] != "deadbeef" {
		t.Fatalf("keys after stray files: %v err=%v", keys, err)
	}
}

// solveHamming74 produces a (profile, result) pair for registry tests.
func solveHamming74(t *testing.T) (*core.Profile, *core.Result) {
	t.Helper()
	code := ecc.Hamming74()
	prof := core.ExactProfile(code, append(core.OneCharged(4), core.TwoCharged(4)...))
	res, err := core.Solve(context.Background(), prof, core.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unique {
		t.Fatalf("expected unique solve, got %d codes", len(res.Codes))
	}
	return prof, res
}

// TestCodeRecordRoundTrip: Store → backend JSON → Store reconstructs the
// same solver result.
func TestCodeRecordRoundTrip(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := New(b)
			prof, res := solveHamming74(t)
			rec := recordFromResult(prof.Hash(), prof.K, res, "test")
			if err := st.putCode(rec); err != nil {
				t.Fatal(err)
			}

			got, ok, err := st.GetCode(prof.Hash())
			if err != nil || !ok {
				t.Fatalf("GetCode: ok=%v err=%v", ok, err)
			}
			if got.K != 4 || got.N != 7 || !got.Unique || got.Source != "test" {
				t.Fatalf("record mangled: %+v", got)
			}
			back, err := got.result()
			if err != nil {
				t.Fatal(err)
			}
			if len(back.Codes) != 1 || !back.Codes[0].Equal(res.Codes[0]) {
				t.Fatal("reconstructed result differs")
			}
			if back.DetermineTime < 0 || !back.Unique || !back.Exhausted {
				t.Fatalf("solver stats lost: %+v", back)
			}

			all, err := st.Codes()
			if err != nil || len(all) != 1 || all[0].ProfileHash != prof.Hash() {
				t.Fatalf("Codes(): %v err=%v", all, err)
			}
		})
	}
}

// TestJobRecordRoundTrip exercises the job log on both backends.
func TestJobRecordRoundTrip(t *testing.T) {
	for name, b := range testBackends(t) {
		t.Run(name, func(t *testing.T) {
			st := New(b)
			rec := &JobRecord{
				ID:      "job-1",
				Type:    "recover",
				Spec:    json.RawMessage(`{"type":"recover","k":16}`),
				State:   "running",
				Created: time.Now().UTC(),
			}
			if err := st.PutJob(rec); err != nil {
				t.Fatal(err)
			}
			rec.State = "succeeded"
			rec.Result = json.RawMessage(`{"recover":{"k":16}}`)
			if err := st.PutJob(rec); err != nil {
				t.Fatal(err)
			}
			got, ok, err := st.GetJob("job-1")
			if err != nil || !ok {
				t.Fatalf("GetJob: ok=%v err=%v", ok, err)
			}
			// Raw JSON round-trips semantically (indentation may change).
			var result struct {
				Recover struct {
					K int `json:"k"`
				} `json:"recover"`
			}
			if err := json.Unmarshal(got.Result, &result); err != nil {
				t.Fatal(err)
			}
			if got.State != "succeeded" || result.Recover.K != 16 {
				t.Fatalf("job record mangled: %+v", got)
			}
			jobs, err := st.Jobs()
			if err != nil || len(jobs) != 1 {
				t.Fatalf("Jobs(): %v err=%v", jobs, err)
			}
		})
	}
}

// TestSolveCacheView: miss → solve → store → hit, including across a store
// reopen on the file backend (the LRU is empty then, so the hit proves the
// durable path).
func TestSolveCacheView(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := New(fb)
	prof, res := solveHamming74(t)

	cache := st.SolveCache("job-42")
	if _, ok := cache.Lookup(prof); ok {
		t.Fatal("empty registry reported a hit")
	}
	cache.Store(prof, res)
	got, ok := cache.Lookup(prof)
	if !ok || len(got.Codes) != 1 || !got.Codes[0].Equal(res.Codes[0]) {
		t.Fatalf("warm lookup: ok=%v", ok)
	}

	// A second Store for the same hash must not clobber the original
	// record's provenance.
	cache2 := st.SolveCache("job-43")
	cache2.Store(prof, res)
	rec, ok, err := st.GetCode(prof.Hash())
	if err != nil || !ok || rec.Source != "job-42" {
		t.Fatalf("first-write-wins violated: %+v ok=%v err=%v", rec, ok, err)
	}

	fresh := New(mustFileBackend(t, dir))
	got2, ok := fresh.SolveCache("other").Lookup(prof)
	if !ok || !got2.Codes[0].Equal(res.Codes[0]) {
		t.Fatal("durable lookup after reopen failed")
	}
}

// TestSolveCacheHealsCorruptRecord: a registry record that no longer parses
// is treated as a miss by Lookup AND overwritten by the next Store — without
// the overwrite, every future process would re-run the solver for that hash
// forever.
func TestSolveCacheHealsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st := New(mustFileBackend(t, dir))
	prof, res := solveHamming74(t)
	hash := prof.Hash()

	// Corrupt: valid JSON, unparsable code text.
	if err := st.putCode(&CodeRecord{ProfileHash: hash, K: 4, Codes: []string{"garbage"}}); err != nil {
		t.Fatal(err)
	}
	cache := st.SolveCache("healer")
	if _, ok := cache.Lookup(prof); ok {
		t.Fatal("corrupt record served as a hit")
	}
	cache.Store(prof, res)

	// A fresh store (empty LRU) must now read a healed durable record.
	fresh := New(mustFileBackend(t, dir))
	rec, ok, err := fresh.GetCode(hash)
	if err != nil || !ok || rec.Source != "healer" {
		t.Fatalf("record not healed: %+v ok=%v err=%v", rec, ok, err)
	}
	if got, hit := fresh.SolveCache("x").Lookup(prof); !hit || !got.Codes[0].Equal(res.Codes[0]) {
		t.Fatal("healed record does not serve lookups")
	}

	// Raw garbage bytes (broken JSON) heal the same way.
	if err := st.Backend().Put(BucketCodes, hash, []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	st2 := New(mustFileBackend(t, dir))
	cache2 := st2.SolveCache("healer2")
	if _, ok := cache2.Lookup(prof); ok {
		t.Fatal("broken JSON served as a hit")
	}
	cache2.Store(prof, res)
	if rec, ok, err := st2.GetCode(hash); err != nil || !ok || rec.Source != "healer2" {
		t.Fatalf("broken-JSON record not healed: ok=%v err=%v", ok, err)
	}
}

func mustFileBackend(t *testing.T, dir string) *FileBackend {
	t.Helper()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// TestExportRoundTrip: code → wire format → code, plus scheme/shape
// validation.
func TestExportRoundTrip(t *testing.T) {
	code := ecc.Hamming74()
	exp := ExportCode(code)
	if exp.Scheme != "HSC" || exp.N != 7 || exp.K != 4 || len(exp.P) != 3 {
		t.Fatalf("export shape: %+v", exp)
	}
	if exp.UID == "" || exp.UID != ExportCode(code).UID {
		t.Fatalf("UID not deterministic: %q", exp.UID)
	}
	back, err := exp.Code()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(code) {
		t.Fatal("export round-trip changed the code")
	}

	bad := exp
	bad.Scheme = "BCH"
	if _, err := bad.Code(); err == nil {
		t.Fatal("foreign scheme accepted")
	}
	bad = exp
	bad.P = exp.P[:2]
	if _, err := bad.Code(); err == nil {
		t.Fatal("row-count mismatch accepted")
	}

	// A superset document — e.g. one entry copied out of beerd's GET /codes
	// listing, which adds registry metadata — must still import.
	superset := `{"uid":"` + exp.UID + `","scheme":"HSC","n":7,"k":4,` +
		`"p":["` + strings.Join(exp.P, `","`) + `"],` +
		`"candidates":1,"created_at":"2026-07-26T00:00:00Z","determine_ms":1.5}`
	fromListing, err := ReadExport(strings.NewReader(superset))
	if err != nil {
		t.Fatalf("listing entry failed to import: %v", err)
	}
	if back, err := fromListing.Code(); err != nil || !back.Equal(code) {
		t.Fatalf("listing entry round-trip: %v", err)
	}
}

// TestLookupDoesNotCacheMisses: a registry record that appears AFTER a miss
// (seeded externally, or written by another process sharing the directory)
// must be found by the next Lookup — the LRU must not pin the negative.
func TestLookupDoesNotCacheMisses(t *testing.T) {
	st := New(NewMemBackend())
	prof, res := solveHamming74(t)
	cache := st.SolveCache("a")
	if _, ok := cache.Lookup(prof); ok {
		t.Fatal("empty registry hit")
	}
	// Seed the backend directly, bypassing this store's Store() path.
	if err := st.putCode(recordFromResult(prof.Hash(), prof.K, res, "external")); err != nil {
		t.Fatal(err)
	}
	got, ok := cache.Lookup(prof)
	if !ok || !got.Codes[0].Equal(res.Codes[0]) {
		t.Fatal("lookup after external seed still misses (negative result cached)")
	}
}

// TestRecordExport: registry records render every candidate with profile
// hash and uniqueness attached.
func TestRecordExport(t *testing.T) {
	prof, res := solveHamming74(t)
	rec := recordFromResult(prof.Hash(), prof.K, res, "test")
	exps, err := rec.Export()
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 1 || exps[0].ProfileHash != prof.Hash() || exps[0].Unique == nil || !*exps[0].Unique {
		t.Fatalf("record export: %+v", exps)
	}
}

// TestLRU covers eviction order, single-flight, Add-overwrites and stats.
func TestLRU(t *testing.T) {
	c := NewLRU[int, int](2)
	calls := 0
	get := func(k int) int {
		return c.Get(k, func() int { calls++; return k * 10 })
	}
	if get(1) != 10 || get(2) != 20 || calls != 2 {
		t.Fatalf("computes: calls=%d", calls)
	}
	if get(1) != 10 || calls != 2 {
		t.Fatal("hit recomputed")
	}
	get(3) // evicts 2 (LRU: 1 was touched more recently)
	if get(2) != 20 || calls != 4 {
		t.Fatalf("eviction order wrong: calls=%d", calls)
	}
	c.add(2, 99)
	if get(2) != 99 {
		t.Fatal("Add did not overwrite")
	}
	hits, reqs := c.Stats()
	if hits < 2 || reqs < 6 || c.ll.Len() != 2 {
		t.Fatalf("stats: hits=%d reqs=%d len=%d", hits, reqs, c.ll.Len())
	}
}

// TestLRUSingleFlight: concurrent misses for one key run compute exactly
// once.
func TestLRUSingleFlight(t *testing.T) {
	c := NewLRU[string, int](4)
	var mu sync.Mutex
	computes := 0
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := c.Get("k", func() int {
				mu.Lock()
				computes++
				mu.Unlock()
				time.Sleep(10 * time.Millisecond)
				return 7
			})
			if v != 7 {
				t.Errorf("got %d", v)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("compute ran %d times", computes)
	}
}
