package main

import (
	"math"
	"sort"
)

// Quantile returns the exact q-quantile (0 < q <= 1) of samples by the
// nearest-rank method: the smallest sample with at least q·n samples at or
// below it. The result is always one of the samples — no bucket or
// linear interpolation. samples need not be sorted; an empty slice gives
// NaN.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sortedCopy(samples)
	return s[rank(len(s), q)]
}

// rank is the 0-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	// The epsilon keeps q·n that should be integral (0.99·1000) from
	// rounding up past it.
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// Median is Quantile(samples, 0.5).
func Median(samples []float64) float64 { return Quantile(samples, 0.5) }

// minBeyond is how many samples must lie strictly beyond a percentile's
// rank before that percentile is reported: fewer, and the "tail" is one
// or two unlucky requests.
const minBeyond = 10

// tailPercentiles are the candidates TailQuantile reports, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// Tail is the highest supported percentile of a sample set.
type Tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
}

// TailQuantile reports the highest percentile of samples that has at
// least minBeyond samples ranked beyond it, with its exact value and the
// sample count. Percentile is 0 when even the median lacks the support.
func TailQuantile(samples []float64) Tail {
	t := Tail{Samples: len(samples)}
	if len(samples) == 0 {
		return t
	}
	s := sortedCopy(samples)
	for _, p := range tailPercentiles {
		i := rank(len(s), p/100)
		if len(s)-1-i >= minBeyond {
			t.Percentile, t.Value = p, s[i]
			return t
		}
	}
	return t
}

// Ladder is a fixed geometric ladder of request rates from lo up to at
// most hi, each rung ratio times the one below. Its rungs depend only on
// the three constants, never on the host, so results from different
// machines land on the same rates.
func Ladder(lo, hi, ratio float64) []float64 {
	var rungs []float64
	for r := lo; r <= hi*(1+1e-9); r *= ratio {
		rungs = append(rungs, math.Round(r))
	}
	return rungs
}

// Rung is the outcome of one open-loop probe at a fixed rate.
type Rung struct {
	Rate        float64 `json:"rate"`
	Attempted   int     `json:"attempted"`
	Failed      int     `json:"failed"`
	P99Ms       float64 `json:"p99_ms"`          // failures count as +Inf
	LatenessP99 float64 `json:"lateness_p99_ms"` // generator dispatch lateness
	Achieved    float64 `json:"achieved_rps"`    // completions per second
	Pass        bool    `json:"pass"`
}

// RungLimits is the pass rule of a rung.
type RungLimits struct {
	P99Ms       float64 // latency limit on the p99, due time → last byte
	LatenessMs  float64 // bound on the generator's own p99 lateness
	MinAttempts int     // below this the p99 is not supported
	MinKeepUp   float64 // completions/s over offered rate; below it the backlog grows
}

// Judge fills r.Pass: the p99 — with every refused or failed request
// counted as missing the limit — is within the latency limit, the server
// completed requests as fast as they arrived (no growing backlog), and
// the generator kept its schedule.
func (l RungLimits) Judge(r *Rung) {
	r.Pass = r.Attempted >= l.MinAttempts && r.P99Ms <= l.P99Ms && r.LatenessP99 <= l.LatenessMs &&
		r.Achieved >= l.MinKeepUp*r.Rate
}

// LatencyWithFailures returns the latencies with +Inf appended for every
// failed request, so failures can only push a quantile up.
func LatencyWithFailures(okMs []float64, failed int) []float64 {
	out := make([]float64, 0, len(okMs)+failed)
	out = append(out, okMs...)
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}

// SearchLadder finds the highest passing rung by bisection, assuming a
// rung passes whenever a higher one does (latency grows with load). It
// probes O(log n) rungs, in order of the search, and returns every probe
// made plus the index of the best passing rung (-1 when none passes).
func SearchLadder(rungs []float64, probe func(rate float64) Rung) (best int, probes []Rung) {
	lo, hi := -1, len(rungs) // rungs[lo] passes (or lo = -1), rungs[hi] fails (or hi = n)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		r := probe(rungs[mid])
		probes = append(probes, r)
		if r.Pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, probes
}
