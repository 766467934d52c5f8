package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/ecc"
)

// TestCanonicalOrderInvariant: the canonical serialization (and therefore the
// hash) must not depend on entry collection order.
func TestCanonicalOrderInvariant(t *testing.T) {
	code := ecc.Hamming74()
	prof := ExactProfile(code, append(OneCharged(4), TwoCharged(4)...))

	reversed := &Profile{K: prof.K}
	for i := len(prof.Entries) - 1; i >= 0; i-- {
		reversed.Entries = append(reversed.Entries, prof.Entries[i])
	}
	if prof.Hash() != reversed.Hash() {
		t.Fatalf("hash depends on entry order:\n%s\nvs\n%s", prof.canonical(), reversed.canonical())
	}
}

// TestCanonicalDedupesDuplicates: appending the same observations twice (e.g.
// two sweeps of the same chip) must not change the content address.
func TestCanonicalDedupesDuplicates(t *testing.T) {
	code := ecc.Hamming74()
	prof := ExactProfile(code, OneCharged(4))
	doubled := prof.Append(prof)
	if prof.Hash() != doubled.Hash() {
		t.Fatalf("duplicate entries changed the hash:\n%s\nvs\n%s", prof.canonical(), doubled.canonical())
	}
}

// TestCanonicalDistinguishes: different codes, polarities and k values must
// hash differently.
func TestCanonicalDistinguishes(t *testing.T) {
	a := ExactProfile(ecc.Hamming74(), OneCharged(4))
	b := ExactProfile(ecc.SequentialHamming(4), OneCharged(4))
	if a.Equal(b) {
		t.Skip("codes happen to share a 1-CHARGED profile")
	}
	if a.Hash() == b.Hash() {
		t.Fatal("different profiles share a hash")
	}

	anti := &Profile{K: a.K}
	for _, e := range a.Entries {
		e.Anti = true
		anti.Entries = append(anti.Entries, e)
	}
	if a.Hash() == anti.Hash() {
		t.Fatal("polarity flip did not change the hash")
	}

	widened := &Profile{K: a.K + 1, Entries: a.Entries}
	if a.Hash() == widened.Hash() {
		t.Fatal("k change did not change the hash")
	}
}

// TestCanonicalFormatFrozen pins the serialization: if this golden value ever
// changes, canonicalVersion must be bumped, because existing content-addressed
// stores would otherwise silently miss every lookup.
func TestCanonicalFormatFrozen(t *testing.T) {
	prof := ExactProfile(ecc.Hamming74(), OneCharged(4))
	canon := string(prof.canonical())
	if !strings.HasPrefix(canon, "beerprof v1 k=4\n") {
		t.Fatalf("canonical header changed: %q", canon)
	}
	const wantHash = "cfbd2ebee22b9f314fd9f2705ca12f032917e9299ee4d692c0e9a40e428008a2"
	if got := prof.Hash(); got != wantHash {
		t.Fatalf("canonical hash of the Hamming74 1-CHARGED profile changed:\ngot  %s\nwant %s\nserialization:\n%s",
			got, wantHash, canon)
	}
}

// recordingCache counts SolveCache traffic and serves one stored result.
type recordingCache struct {
	lookups, hits, stores int
	byHash                map[string]*Result
}

func (c *recordingCache) Lookup(p *Profile) (*Result, bool) {
	c.lookups++
	res, ok := c.byHash[p.Hash()]
	if ok {
		c.hits++
	}
	return res, ok
}

func (c *recordingCache) Store(p *Profile, res *Result) {
	c.stores++
	if c.byHash == nil {
		c.byHash = map[string]*Result{}
	}
	c.byHash[p.Hash()] = res
}

// TestSolveStageCache: the first solve populates the cache, the second
// replays it without running the solver.
func TestSolveStageCache(t *testing.T) {
	code := ecc.Hamming74()
	prof := ExactProfile(code, append(OneCharged(4), TwoCharged(4)...))
	cache := &recordingCache{}
	opts := DefaultRecoverOptions()
	opts.SolveCache = cache

	first, err := SolveStage(context.Background(), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Unique {
		t.Fatalf("expected unique recovery, got %d codes", len(first.Codes))
	}
	if cache.lookups != 1 || cache.hits != 0 || cache.stores != 1 {
		t.Fatalf("after miss: lookups=%d hits=%d stores=%d", cache.lookups, cache.hits, cache.stores)
	}

	second, err := SolveStage(context.Background(), prof, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cache.hits != 1 {
		t.Fatalf("second solve missed the cache: %+v", cache)
	}
	if second != first {
		t.Fatal("cache hit did not replay the stored result")
	}
	if !second.Codes[0].Equal(first.Codes[0]) || !second.Codes[0].EquivalentTo(code) {
		t.Fatal("replayed result differs from the original")
	}
}
