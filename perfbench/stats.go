package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[hi]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timedMedian runs fn n times and returns the median wall time in
// seconds, with the last call's value.
func timedMedian[T any](n int, fn func() (T, error)) (float64, T, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := fn()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
		progress()
	}
	return median(times), last, nil
}
