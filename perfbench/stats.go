package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted. An
// empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest order statistic that still has at least ten
// samples beyond it — the highest percentile with ten samples past it,
// used for the per-layer RTT tails whose sample counts vary. Below 22
// samples no such statistic lies above the median, and the maximum is
// returned.
func tail(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) < 22 {
		return s[len(s)-1]
	}
	return s[len(s)-11]
}

// windowed splits a timed phase of dur seconds into k equal windows by
// completion time (doneS, seconds since the phase started) and returns
// the median over the windows of the completion rate per second and of
// each latency quantile in qs. Medians over windows keep a transient
// stall of the shared host from moving the figures. Completions after
// dur are ignored.
func windowed(doneS, latMs []float64, dur float64, k int, qs ...float64) (rate float64, quants []float64) {
	win := make([][]float64, k)
	for i, t := range doneS {
		if w := int(t / dur * float64(k)); w >= 0 && w < k {
			win[w] = append(win[w], latMs[i])
		}
	}
	rates := make([]float64, k)
	per := make([][]float64, len(qs))
	for w, lat := range win {
		rates[w] = float64(len(lat)) / (dur / float64(k))
		for i, q := range qs {
			per[i] = append(per[i], quantile(lat, q))
		}
	}
	for _, p := range per {
		quants = append(quants, median(p))
	}
	return median(rates), quants
}

// ms and us convert durations to fractional milliseconds/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
