package core

import "sync"

// discoveredLayout is one chip's §5.1 discovery outcome as one cacheable
// unit: the per-row cell classification (§5.1.1), the MaxRows-capped
// true-cell row list, and the dataword layout (§5.1.2). Cached values are
// shared between recoveries — treat every field as immutable.
type discoveredLayout struct {
	CellClasses [][]CellClass
	Rows        []RowRef
	Layout      WordLayout
}

// layoutKeyer is an optional Chip extension for discovery caching: LayoutKey
// returns a string that fully determines the chip's discovery outcome — two
// freshly-constructed chips with equal keys are bit-identical, so discovery
// against one stands for both. An empty key opts the chip out of caching
// (e.g. when its configuration embeds state the key cannot capture).
type layoutKeyer interface {
	LayoutKey() string
}

// DiscoveryCache memoizes discovery outcomes across recoveries of
// identically-configured chips (RecoverOptions.DiscoveryCache). The key is
// the chip's LayoutKey combined with the discovery-relevant options, built
// by Recover. Implementations must be safe for concurrent use.
type DiscoveryCache interface {
	Lookup(key string) (*discoveredLayout, bool)
	Store(key string, d *discoveredLayout)
}

// discoveryCache is the standard bounded DiscoveryCache: a mutex-guarded map
// with random eviction at capacity. Random eviction suffices because the key
// population is tiny (one entry per distinct chip configuration a serving
// process sees) and a miss only costs re-running discovery.
type discoveryCache struct {
	mu  sync.Mutex
	max int
	m   map[string]*discoveredLayout
}

// NewDiscoveryCache returns a DiscoveryCache holding at most max entries
// (max <= 0 selects a default of 64).
func NewDiscoveryCache(max int) DiscoveryCache {
	if max <= 0 {
		max = 64
	}
	return &discoveryCache{max: max, m: make(map[string]*discoveredLayout)}
}

func (c *discoveryCache) Lookup(key string) (*discoveredLayout, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[key]
	return d, ok
}

func (c *discoveryCache) Store(key string, d *discoveredLayout) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok && len(c.m) >= c.max {
		for k := range c.m {
			delete(c.m, k)
			break
		}
	}
	c.m[key] = d
}
