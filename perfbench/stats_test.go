package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got := percentiles(xs, 0, 50, 90, 100)
	want := []float64{1, 5.5, 9.1, 10}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("percentile %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if xs[0] != 10 {
		t.Error("percentiles reordered its input")
	}
	if got := percentiles(nil, 50); got[0] != 0 {
		t.Errorf("empty sample: got %v, want 0", got[0])
	}
	if got := percentiles([]float64{3}, 50, 90); got[0] != 3 || got[1] != 3 {
		t.Errorf("single value: got %v", got)
	}
}

func TestSamplerKeepsABoundedUniformSample(t *testing.T) {
	s := newSampler(1)
	n := 4 * sampleCap
	for i := 0; i < n; i++ {
		s.add(float64(i))
	}
	if len(s.xs) != sampleCap || s.n != int64(n) {
		t.Fatalf("kept %d of %d values, want %d of %d", len(s.xs), s.n, sampleCap, n)
	}
	// A uniform reservoir over 0..n-1 has its median near n/2.
	if med := s.p(50); math.Abs(med-float64(n)/2) > float64(n)/50 {
		t.Errorf("reservoir median %v, want about %v", med, n/2)
	}
}

func TestCoveredUnionsOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	cases := []struct {
		name     string
		from, to int
		ivs      []interval
		want     int
	}{
		{"none", 0, 10, nil, 0},
		{"disjoint", 0, 10, []interval{iv(1, 2), iv(4, 6)}, 3},
		{"overlapping", 0, 10, []interval{iv(1, 5), iv(3, 7), iv(2, 4)}, 6},
		{"unsorted and touching", 0, 10, []interval{iv(5, 8), iv(1, 5)}, 7},
		{"clipped to the parent", 2, 6, []interval{iv(0, 3), iv(5, 9)}, 2},
		{"outside the parent", 2, 6, []interval{iv(7, 9)}, 0},
	}
	for _, c := range cases {
		if got := covered(at(c.from), at(c.to), c.ivs); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: covered %v, want %dms", c.name, got, c.want)
		}
	}
}
