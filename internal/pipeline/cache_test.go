package pipeline

import (
	"crypto/sha256"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/interp"
	"repro/internal/rt"
)

// The eviction-policy tests set entry costs directly, so they do not
// depend on how long a compile happens to take.

func cheapSource(i int) string {
	return "func prog(x double) double { return x + " + strconv.Itoa(i) + ".0; }"
}

func cacheKey(src string) moduleKey {
	return moduleKey{hash: sha256.Sum256([]byte(src)), engine: interp.EngineVM, lang: gofront.LangFPL}
}

// load requests src through the cache, then overrides the measured
// compile cost with cost, as if the compile had taken that long.
func load(t *testing.T, c *ModuleCache, src string, cost int64) {
	t.Helper()
	if _, _, err := c.Program(gofront.LangFPL, src, "prog", interp.EngineVM); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[cacheKey(src)]
	e.cost = cost
	e.credit = c.floor + cost
}

// resident reports whether src is cached, without counting an access.
func resident(c *ModuleCache, src string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[cacheKey(src)]
	return ok
}

// TestCacheKeepsExpensiveModule: an expensive module survives a sweep
// of more than MaxModules cheap sources, which under LRU would have
// evicted it after MaxModules inserts.
func TestCacheKeepsExpensiveModule(t *testing.T) {
	c := NewModuleCache()
	c.MaxModules = 4
	expensive := cheapSource(-1)
	load(t, c, expensive, 1000)
	const sweep = 12
	for i := 0; i < sweep; i++ {
		load(t, c, cheapSource(i), 1)
	}
	if !resident(c, expensive) {
		t.Fatal("expensive module evicted by a sweep of cheap ones")
	}
	st := c.Stats()
	if st.Modules != 4 || st.Evictions != sweep+1-4 {
		t.Errorf("after %d inserts at cap 4: %+v", sweep+1, st)
	}
	if st.Compiles != sweep+1 || st.CompileMs <= 0 {
		t.Errorf("compile counters: %+v", st)
	}
}

// TestCacheEqualCostIsLRU: under equal costs the policy evicts in
// exactly least-recently-used order.
func TestCacheEqualCostIsLRU(t *testing.T) {
	const max, sources = 3, 8
	c := NewModuleCache()
	c.MaxModules = max
	var lru []int // least recently used first
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 200; step++ {
		i := rng.Intn(sources)
		load(t, c, cheapSource(i), 1)
		if k := slices.Index(lru, i); k >= 0 {
			lru = slices.Delete(lru, k, k+1)
		}
		lru = append(lru, i)
		if len(lru) > max {
			lru = lru[1:]
		}
		for j := 0; j < sources; j++ {
			if want := slices.Contains(lru, j); resident(c, cheapSource(j)) != want {
				t.Fatalf("step %d: source %d resident=%v, LRU says %v", step, j, !want, want)
			}
		}
	}
}

// TestCacheSparesInFlight: an entry whose compile is still running is
// never the victim, even with the lowest credit and the oldest use; the
// cap is exceeded by at most that one entry until the compile finishes.
func TestCacheSparesInFlight(t *testing.T) {
	c := NewModuleCache()
	c.MaxModules = 2
	pending := cheapSource(-1)
	c.mu.Lock()
	e := &moduleEntry{}
	c.entries[cacheKey(pending)] = e
	c.mu.Unlock()
	for i := 0; i < 6; i++ {
		load(t, c, cheapSource(i), 1)
		if !resident(c, pending) {
			t.Fatalf("insert %d evicted the in-flight entry", i)
		}
		if n := c.Stats().Modules; n > c.MaxModules+1 {
			t.Fatalf("insert %d: %d modules, cap %d + 1 in flight", i, n, c.MaxModules)
		}
	}
	// Once its compile finishes it competes like any other entry: the
	// next insert brings the cache back to its cap.
	c.mu.Lock()
	e.ready = true
	c.touchLocked(e)
	c.mu.Unlock()
	load(t, c, cheapSource(6), 1)
	if n := c.Stats().Modules; n != c.MaxModules {
		t.Errorf("%d modules after the compile finished, want the cap %d", n, c.MaxModules)
	}
}

// TestCacheEntryRetention: VM entries keep flat code and signatures but
// no IR bodies; tree entries keep the IR the tree-walker executes.
func TestCacheEntryRetention(t *testing.T) {
	c := NewModuleCache()
	srcs := map[gofront.Lang]string{gofront.LangFPL: cheapSource(0), gofront.LangGo: lift.CombinedSource()}
	for lg, src := range srcs {
		for _, eng := range []interp.Engine{interp.EngineVM, interp.EngineTree} {
			it, _, err := c.Module(lg, src, eng)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range it.Mod.Order {
				f := it.Mod.Funcs[name]
				if kept := f.Blocks != nil; kept != (eng == interp.EngineTree) {
					t.Errorf("%s/%s: %s retains IR bodies = %v", lg, eng, name, kept)
				}
				if len(f.Kinds) < f.NParams {
					t.Errorf("%s/%s: %s lost its signature", lg, eng, name)
				}
			}
			if _, _, err := c.Program(lg, src, "", eng); err != nil {
				t.Errorf("%s/%s: %v", lg, eng, err)
			}
		}
	}
}

// TestModuleCacheConcurrent drives the eviction state from several
// goroutines at once: every request is served, and the cap is exceeded
// by at most the compiles that were in flight together.
func TestModuleCacheConcurrent(t *testing.T) {
	const workers, requests, sources = 4, 50, 12
	c := NewModuleCache()
	c.MaxModules = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < requests; i++ {
				src := cheapSource(rng.Intn(sources))
				p, _, err := c.Program(gofront.LangFPL, src, "prog", interp.EngineVM)
				if err != nil {
					t.Error(err)
					return
				}
				p.Execute(rt.NopMonitor{}, []float64{1})
			}
		}(int64(w))
	}
	wg.Wait()
	if st := c.Stats(); st.Modules > c.MaxModules+workers || st.Compiles+st.Hits != workers*requests {
		t.Errorf("after %d concurrent requests: %+v", workers*requests, st)
	}
}
