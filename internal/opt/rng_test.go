package opt

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// TestNewRandMatchesMathRand pins newRand to rand.NewSource's stream:
// a mixed sequence of draws long enough to wrap the 607-word lag
// several times, over the seed reduction's edge cases, every seed XOR
// constant the backends use, and random seeds.
func TestNewRandMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, rngMod - 1, rngMod, rngMod + 1, -rngMod, -(rngMod - 1),
		math.MaxInt64, math.MinInt64, 89482311,
		0x2545f4914f6cdd1d, 0x5deece66d, 0x3c6ef372fe94f82b, 0x1e3779b97f4a7c15,
		42 ^ 0x2545f4914f6cdd1d, 7 ^ 0x5deece66d,
	}
	meta := rand.New(rand.NewSource(20261017))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(meta.Uint64()))
	}
	for _, seed := range seeds {
		want, got := rand.New(rand.NewSource(seed)), newRand(seed)
		for d := 0; d < 5000; d++ {
			var w, g uint64
			switch d % 4 {
			case 0:
				w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			case 1:
				w, g = uint64(want.Intn(1000+d)), uint64(got.Intn(1000+d))
			case 2:
				w, g = uint64(want.Int63()), uint64(got.Int63())
			case 3:
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, d, g, w)
			}
		}
	}
}

// TestNewRandReseed checks that Seed on a used generator restarts the
// stream exactly as math/rand's Seed does.
func TestNewRandReseed(t *testing.T) {
	want, got := rand.New(rand.NewSource(3)), newRand(3)
	for d := 0; d < 1000; d++ {
		want.Int63()
		got.Int63()
	}
	want.Seed(-5)
	got.Seed(-5)
	for d := 0; d < 2000; d++ {
		if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("after reseed, draw %d = %d, want %d", d, g, w)
		}
	}
}

// TestNewRandAllocs bounds what seeding a start's generator allocates:
// math/rand's source allocates its whole 607-word state (5,424 B).
func TestNewRandAllocs(t *testing.T) {
	const runs = 100
	var sink float64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 0; n < runs; n++ {
		r := newRand(int64(n))
		for i := 0; i < 40; i++ {
			sink += r.Float64()
		}
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 1024 {
		t.Errorf("seeding plus 40 draws allocates %d B, want < 1 KB", b)
	}
	_ = sink
}
