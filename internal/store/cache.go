package store

import (
	"repro/internal/core"
)

// SolveCacheView adapts a Store to core.SolveCache: Recover consults it
// between the threshold filter and the SAT solver, so a profile whose
// canonical hash is already in the registry replays the recorded Result with
// zero solver invocations, and every fresh successful solve lands in the
// registry (which is how beerd's GET /codes fills up). Lookups go through
// the Store's shared LRU first, so hot hashes skip the backend read and code
// re-parsing.
type SolveCacheView struct {
	store  *Store
	source string
}

// SolveCache returns the core.SolveCache view of the registry. source labels
// records written through this view (a beerd job id, "cmd/beer", ...); the
// first writer of a hash wins, so the label records who solved it first.
func (s *Store) SolveCache(source string) *SolveCacheView {
	return &SolveCacheView{store: s, source: source}
}

// Lookup implements core.SolveCache. A record that fails to load or parse is
// treated as a miss — the solver then runs and overwrites it. Misses are not
// negatively cached: the LRU entry is dropped again so a record that appears
// in the backend later (seeded by an operator, or written by another process
// sharing the store directory) is found on the next lookup.
func (c *SolveCacheView) Lookup(p *core.Profile) (*core.Result, bool) {
	hash := p.Hash()
	res := c.store.results.Get(hash, func() *core.Result {
		rec, ok, err := c.store.GetCode(hash)
		if err != nil || !ok {
			return nil
		}
		out, err := rec.result()
		if err != nil {
			return nil
		}
		return out
	})
	if res == nil {
		c.store.results.remove(hash)
		return nil, false
	}
	return res, true
}

// Store implements core.SolveCache: persist the result under the profile's
// hash and refresh the in-memory cache. A *valid* existing record is kept —
// its CreatedAt/Source provenance wins, as happens when two identical jobs
// race past Lookup — but a missing, unreadable or unparsable record is
// overwritten, so a corrupt registry entry heals on the next solve instead
// of forcing a re-solve on every restart forever.
func (c *SolveCacheView) Store(p *core.Profile, res *core.Result) {
	hash := p.Hash()
	keep := false
	if rec, ok, err := c.store.GetCode(hash); err == nil && ok {
		if _, err := rec.result(); err == nil {
			keep = true
		}
	}
	if !keep {
		// Persistence failures are deliberately non-fatal: the solve already
		// succeeded, and the in-memory cache still serves this process.
		_ = c.store.putCode(recordFromResult(hash, p.K, res, c.source))
	}
	c.store.results.add(hash, res)
}

var _ core.SolveCache = (*SolveCacheView)(nil)
