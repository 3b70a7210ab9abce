package main

import (
	"math"
	"testing"
)

func TestQuantileIsExactSample(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ q, want float64 }{
		{0.2, 1}, {0.5, 3}, {0.6, 3}, {0.61, 4}, {0.99, 5}, {1, 5}, {0.0001, 1},
	} {
		if got := Quantile(s, tc.q); got != tc.want {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	if s[0] != 5 {
		t.Error("Quantile reordered its input")
	}
}

func TestQuantileNoInterpolation(t *testing.T) {
	// 100 samples 1..100: p99 is the 99th value, never a blend of 99 and 100.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := Quantile(s, 0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := Quantile(s, 0.995); got != 100 {
		t.Fatalf("p99.5 = %v, want 100", got)
	}
}

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		got := TailQuantile(mk(tc.n))
		if got.Percentile != tc.want || got.Samples != tc.n {
			t.Errorf("n=%d: tail %+v, want percentile %v", tc.n, got, tc.want)
		}
	}
}

func TestFailuresMissTheLimit(t *testing.T) {
	ok := make([]float64, 990)
	for i := range ok {
		ok[i] = 1
	}
	lim := RungLimits{P99Ms: 50, LatenessMs: 5, MinAttempts: 100}
	r := Rung{Attempted: 1000, Failed: 10, P99Ms: Quantile(LatencyWithFailures(ok, 10), 0.99)}
	lim.Judge(&r)
	if !r.Pass {
		t.Fatalf("10 failures of 1000 sit beyond p99; rung should pass: %+v", r)
	}
	r = Rung{Attempted: 1000, Failed: 11, P99Ms: Quantile(LatencyWithFailures(ok, 11), 0.99)}
	lim.Judge(&r)
	if r.Pass || !math.IsInf(r.P99Ms, 1) {
		t.Fatalf("11 failures of 1000 must fail the rung: %+v", r)
	}
	r = Rung{Attempted: 1000, P99Ms: 1, LatenessP99: 6}
	lim.Judge(&r)
	if r.Pass {
		t.Fatal("a late generator must fail the rung")
	}
	lim.MinKeepUp = 0.95
	r = Rung{Rate: 1000, Attempted: 1000, P99Ms: 1, Achieved: 940}
	lim.Judge(&r)
	if r.Pass {
		t.Fatal("completions falling behind arrivals must fail the rung")
	}
}

func TestLadderIsFixedAndGeometric(t *testing.T) {
	r := Ladder(100, 1000, 1.25)
	if r[0] != 100 || r[len(r)-1] > 1000 || len(r) != 11 {
		t.Fatalf("ladder %v", r)
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatalf("ladder not increasing: %v", r)
		}
	}
}

func TestSearchLadderFindsHighestPassing(t *testing.T) {
	rungs := Ladder(50, 5000, 1.1)
	for _, capacity := range []float64{10, 55, 333, 1234, 4999, 1e9} {
		var probed int
		best, probes := SearchLadder(rungs, func(rate float64) Rung {
			probed++
			return Rung{Rate: rate, Pass: rate <= capacity}
		})
		want := -1
		for i, r := range rungs {
			if r <= capacity {
				want = i
			}
		}
		if best != want {
			t.Errorf("capacity %v: best %d, want %d", capacity, best, want)
		}
		if probed != len(probes) || probed > 7 {
			t.Errorf("capacity %v: %d probes for %d rungs", capacity, probed, len(rungs))
		}
	}
}
