package pipeline

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gofront"
	"repro/internal/interp"
	"repro/internal/rt"
)

// ModuleCache caches compiled modules keyed by source hash (plus
// execution engine and source language), so repeated requests for the
// same source skip the frontend and flat-code compilation entirely. It
// is safe for concurrent use; every Program call returns a fresh
// concurrency-safe program instance over the shared immutable compiled
// module.
//
// The cache is bounded to MaxModules entries and evicts by cost, not
// recency alone (GreedyDual: Young 1994; Cao & Irani 1997). A miss on
// a lifted-Go module costs tens of times what a miss on an FPL module
// does, so an entry's cost is its own measured compile time. Every
// access sets the entry's credit to floor + cost; eviction drops the
// entry with the lowest credit (the least recently used among equal
// credits, so equal-cost traffic evicts exactly in LRU order) and
// raises floor to that credit. An expensive module thus survives a
// sweep of cheap ones until floor has risen by its cost.
//
// An entry whose compile is still running holds no module yet and is
// never the victim: dropping it would throw away the compile another
// client is about to finish. The cap can therefore be exceeded by at
// most the number of compiles in flight. In-flight program instances
// keep referencing an evicted module; only the cache slot is
// reclaimed. Failed compilations are never retained.
//
// A VM-engine entry keeps only what the VM runs: the compiled flat
// code, the site tables, the function order and each function's
// signature (interp.Flatten); the IR bodies are released once compiled.
// A tree-engine entry keeps its IR, which the tree-walker executes.
type ModuleCache struct {
	// MaxModules bounds retained modules; 0 selects DefaultMaxModules.
	MaxModules int

	mu      sync.Mutex
	entries map[moduleKey]*moduleEntry
	tick    int64
	floor   int64 // credit of the last victim

	compiles  atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
	compileNs atomic.Int64
}

// DefaultMaxModules is the default cache capacity.
const DefaultMaxModules = 128

// NewModuleCache returns an empty cache with the default capacity.
func NewModuleCache() *ModuleCache {
	return &ModuleCache{entries: map[moduleKey]*moduleEntry{}}
}

type moduleKey struct {
	hash   [sha256.Size]byte
	engine interp.Engine
	lang   gofront.Lang
}

type moduleEntry struct {
	once sync.Once
	it   *interp.Interp
	err  error

	// Eviction state, guarded by ModuleCache.mu.
	ready   bool  // compile finished; only ready entries are evicted
	cost    int64 // measured compile time, ns
	credit  int64 // floor at the last access + cost
	lastUse int64

	mu    sync.Mutex
	progs map[string]*rt.Program
}

// CacheStats is a snapshot of the cache counters.
type CacheStats struct {
	// Modules is the number of distinct cached modules.
	Modules int `json:"modules"`
	// Compiles counts source compilations actually performed.
	Compiles int64 `json:"compiles"`
	// Hits counts Program calls served without compiling.
	Hits int64 `json:"hits"`
	// Evictions counts entries dropped to respect MaxModules.
	Evictions int64 `json:"evictions"`
	// CompileMs is the cumulative wall time of those compilations.
	CompileMs float64 `json:"compileMs"`
}

// Stats returns the cache counters.
func (c *ModuleCache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Modules:   n,
		Compiles:  c.compiles.Load(),
		Hits:      c.hits.Load(),
		Evictions: c.evictions.Load(),
		CompileMs: float64(c.compileNs.Load()) / float64(time.Millisecond),
	}
}

// SourceID is the content address of a source text: the hex sha256 of
// its bytes, prefixed "sha256:". It is the same hash the module cache
// keys on, and the program ID the fpserve /v1 registration API hands
// out — registering a program and submitting its source inline hit the
// same cache slot. The language is not part of the address: the same
// bytes registered under two languages are the same resource ID (and a
// conflict, which the program store refuses).
func SourceID(src string) string {
	h := sha256.Sum256([]byte(src))
	return "sha256:" + hex.EncodeToString(h[:])
}

// Module compiles src under lg (or reuses the cached module with the
// same hash) and returns the shared compiled module. The second result
// reports a cache hit.
func (c *ModuleCache) Module(lg gofront.Lang, src string, eng interp.Engine) (*interp.Interp, bool, error) {
	e, hit, err := c.entry(lg, src, eng)
	if err != nil {
		return nil, hit, err
	}
	return e.it, hit, nil
}

// Drop evicts the module compiled from src under lg and eng, if
// cached. In-flight program instances keep working over the shared
// immutable module; only the cache slot is reclaimed.
func (c *ModuleCache) Drop(lg gofront.Lang, src string, eng interp.Engine) {
	k := moduleKey{hash: sha256.Sum256([]byte(src)), engine: eng, lang: lg}
	c.mu.Lock()
	delete(c.entries, k)
	c.mu.Unlock()
}

// entry resolves (compiling at most once) the cache entry for src.
func (c *ModuleCache) entry(lg gofront.Lang, src string, eng interp.Engine) (*moduleEntry, bool, error) {
	k := moduleKey{hash: sha256.Sum256([]byte(src)), engine: eng, lang: lg}
	c.mu.Lock()
	e, hit := c.entries[k]
	if !hit {
		e = &moduleEntry{progs: map[string]*rt.Program{}}
		c.entries[k] = e
		c.evictLocked()
	}
	c.touchLocked(e)
	c.mu.Unlock()
	if hit {
		c.hits.Add(1)
	}

	e.once.Do(func() {
		start := time.Now()
		e.it, e.err = compileModule(lg, src, eng)
		d := time.Since(start)
		c.compiles.Add(1)
		c.compileNs.Add(int64(d))
		c.mu.Lock()
		e.ready = true
		e.cost = int64(d)
		c.touchLocked(e)
		c.mu.Unlock()
	})
	if e.err != nil {
		// Failed compilations buy nothing: drop the slot so broken
		// sources never pin memory. (A retry recompiles — acceptable
		// for an error path.)
		c.mu.Lock()
		if c.entries[k] == e {
			delete(c.entries, k)
		}
		c.mu.Unlock()
		return nil, hit, e.err
	}
	return e, hit, nil
}

// compileModule builds the shared interpreter of a cache entry. VM
// entries compile their flat code now and release the IR bodies.
func compileModule(lg gofront.Lang, src string, eng interp.Engine) (*interp.Interp, error) {
	mod, err := gofront.CompileSource(lg, "", src)
	if err != nil {
		return nil, err
	}
	it := interp.New(mod)
	it.Engine = eng
	if eng == interp.EngineVM {
		if err := it.Flatten(); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// Program compiles src under lg (or reuses the cached module with the
// same hash), wraps fn (empty = first declared) and returns an
// independent program instance safe to execute concurrently with every
// other returned instance. The second result reports whether the
// module was already cached.
func (c *ModuleCache) Program(lg gofront.Lang, src, fn string, eng interp.Engine) (*rt.Program, bool, error) {
	e, hit, err := c.entry(lg, src, eng)
	if err != nil {
		return nil, hit, err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if fn == "" {
		fn = e.it.Mod.Order[0]
	}
	proto, ok := e.progs[fn]
	if !ok {
		p, err := e.it.Program(fn)
		if err != nil {
			return nil, hit, err
		}
		e.progs[fn] = p
		proto = p
	}
	// The prototype shares the entry's interpreter (mutable machine,
	// failure log); hand every caller its own fork.
	return proto.Instance(), hit, nil
}

// touchLocked records an access to e. Callers hold c.mu.
func (c *ModuleCache) touchLocked(e *moduleEntry) {
	c.tick++
	e.lastUse = c.tick
	e.credit = c.floor + e.cost
}

// evictLocked drops the lowest-credit ready entries until the cache
// fits its capacity, or only in-flight compiles remain above it.
// Callers hold c.mu.
func (c *ModuleCache) evictLocked() {
	max := c.MaxModules
	if max <= 0 {
		max = DefaultMaxModules
	}
	for len(c.entries) > max {
		var vk moduleKey
		var v *moduleEntry
		for k, e := range c.entries {
			if e.ready && (v == nil || e.credit < v.credit ||
				e.credit == v.credit && e.lastUse < v.lastUse) {
				vk, v = k, e
			}
		}
		if v == nil {
			return
		}
		c.floor = v.credit
		delete(c.entries, vk)
		c.evictions.Add(1)
	}
}
