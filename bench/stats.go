package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to be believed (choosing-metrics §1).
const minBeyond = 10

// tailCandidates are the percentiles the picker may report, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile of an ascending slice by the
// nearest-rank method; 0 for an empty slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := rank(len(asc), q) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

// rank is the nearest-rank position (1-based) of the q-quantile among n
// samples. The epsilon keeps 0.99 × 1000 at rank 990 whatever the
// product's last bit is.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - min(rank(n, q), n) }

// supported reports whether n samples leave at least minBeyond beyond
// the q-quantile.
func supported(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// highestSupported returns the highest candidate percentile with at
// least minBeyond samples beyond it, or 0.5 when none qualifies.
func highestSupported(n int) float64 {
	for _, q := range tailCandidates {
		if supported(n, q) {
			return q
		}
	}
	return 0.5
}

// timing is the published shape of one latency sample set.
type timing struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50"`
	Tail   float64 `json:"tail"`
	TailQ  float64 `json:"tail_q"`
	Beyond int     `json:"beyond"`
	Max    float64 `json:"max"`
}

// summarize reports the median and the q-quantile of xs. When q is not
// supported by the sample count the highest supported percentile is
// reported in its place and TailQ says which.
func summarize(xs []float64, q float64) timing {
	asc := sorted(xs)
	if !supported(len(asc), q) {
		q = highestSupported(len(asc))
	}
	t := timing{N: len(asc), P50: quantile(asc, 0.5), Tail: quantile(asc, q), TailQ: q, Beyond: beyond(len(asc), q)}
	if len(asc) > 0 {
		t.Max = asc[len(asc)-1]
	}
	return t
}

// median is the mean of the two middle values for an even count, the
// way Python's statistics.median computes it.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so the spread
// this benchmark prints is the spread its driver computes.
func quartiles(xs []float64) (q1, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		if n == 1 {
			return asc[0], asc[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the inter-quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
