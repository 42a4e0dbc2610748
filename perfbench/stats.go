package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
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

// tailQuantile is the highest quantile, at most 0.99, that leaves at least
// minTail of n samples beyond it. ok is false when n is too small for even
// the median to qualify.
func tailQuantile(n int) (q float64, ok bool) {
	if n < 2*minTail {
		return 0, false
	}
	q = 1 - float64(minTail)/float64(n)
	if q > 0.99 {
		q = 0.99
	}
	return q, true
}

// p99Valid reports whether n samples carry a p99 with minTail samples
// beyond it.
func p99Valid(n int) bool {
	q, ok := tailQuantile(n)
	return ok && q >= 0.99
}

// tail reports the highest valid percentile of xs (see tailQuantile) and
// the percentile it is, in percent; ok is false when there are too few.
func tail(xs []float64) (v, pct float64, ok bool) {
	q, ok := tailQuantile(len(xs))
	if !ok {
		return 0, 0, false
	}
	return quantile(xs, q), 100 * q, true
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// backlogGrows applies the ladder's backlog rule to one rung. samples are
// the counts of submitted-but-unfinished jobs at equally spaced instants
// over the rung's arrival window. The backlog grows when the mean of the
// last quarter of the samples exceeds the mean of the first quarter by more
// than the jobs that may legitimately be in flight: rate × limit, plus a
// slack of five jobs for Poisson noise at low rates.
func backlogGrows(samples []int, ratePerS, limitMS float64) bool {
	n := len(samples) / 4
	if n < 1 {
		return false
	}
	mean := func(xs []int) float64 {
		t := 0
		for _, x := range xs {
			t += x
		}
		return float64(t) / float64(len(xs))
	}
	growth := mean(samples[len(samples)-n:]) - mean(samples[:n])
	return growth > ratePerS*limitMS/1000+5
}

// rungVerdict is what the ladder rule needs to know about one rung.
type rungVerdict struct {
	e2eP99MS float64
	valid    bool // enough samples for a p99, and no failures
	growing  bool
}

// highestPassing returns the index of the highest rung of an ascending
// ladder that passes — valid, e2e p99 within limitMS, backlog not growing —
// with every lower rung passing too; -1 when the first rung fails.
func highestPassing(rungs []rungVerdict, limitMS float64) int {
	best := -1
	for i, r := range rungs {
		if !r.valid || r.growing || r.e2eP99MS > limitMS {
			break
		}
		best = i
	}
	return best
}

// maxRate is max_rate_jobs_s: the offered rate of the highest passing rung
// of a ladder. ok is false on a one-rung ladder, which measures no
// maximum, and when the nominal rung itself fails.
func maxRate(ladder []rung, verdicts []rungVerdict, limitMS float64) (rate float64, ok bool) {
	if len(ladder) < 2 {
		return 0, false
	}
	top := highestPassing(verdicts, limitMS)
	if top < 0 {
		return 0, false
	}
	return ladder[top].rate, true
}
