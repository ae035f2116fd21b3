package main

import (
	"math/rand"
	"sort"
	"time"

	"openwf/internal/stats"
)

// percentiles returns the requested percentiles (0..100) of xs, by the
// closest-ranks interpolation of internal/stats; all zero when xs is
// empty.
func percentiles(xs []float64, ps ...float64) []float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentiles(ps...)
}

// sampleCap bounds how many values a sampler keeps; beyond it the kept
// values are a uniform reservoir sample of everything added.
const sampleCap = 1 << 15

// sampler collects a metric's values with bounded memory.
type sampler struct {
	xs  []float64
	n   int64
	rng *rand.Rand
}

func newSampler(seed int64) *sampler {
	return &sampler{rng: rand.New(rand.NewSource(seed))}
}

func (s *sampler) add(x float64) {
	s.n++
	if len(s.xs) < sampleCap {
		s.xs = append(s.xs, x)
		return
	}
	if j := s.rng.Int63n(s.n); j < sampleCap {
		s.xs[j] = x
	}
}

func (s *sampler) addDuration(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

// p returns the p-th percentile of the kept values.
func (s *sampler) p(p float64) float64 { return percentiles(s.xs, p)[0] }

// interval is a closed-open stretch of wall time.
type interval struct {
	start, end time.Time
}

// covered returns how much of [from, to) the union of ivs covers. Spans
// of parallel children overlap, so a parent's self time is its duration
// minus this union, not minus the children's summed durations.
func covered(from, to time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start.Before(from) {
			iv.start = from
		}
		if iv.end.After(to) {
			iv.end = to
		}
		if iv.end.After(iv.start) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start.After(cur.end):
			total += cur.end.Sub(cur.start)
			cur = iv
		case iv.end.After(cur.end):
			cur.end = iv.end
		}
	}
	if len(clipped) > 0 {
		total += cur.end.Sub(cur.start)
	}
	return total
}
