package main

import (
	"math"
	"sort"
)

// tailPercentiles are the candidates for a timing's reported tail, from
// the highest down; summarize picks the first that still has at least
// minBeyond samples above it.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a tail read from fewer samples is one outlier.
const minBeyond = 10

// summary is a timing distribution as the benchmark reports it.
type summary struct {
	N      int
	Median float64
	// TailPct is the highest percentile with at least minBeyond samples
	// beyond it, 0 when there are too few samples for any; Tail is its
	// value.
	TailPct float64
	Tail    float64
}

func summarize(samples []float64) summary {
	s := summary{N: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	for _, p := range tailPercentiles {
		k := rankOf(p, len(sorted))
		if len(sorted)-k >= minBeyond {
			s.TailPct, s.Tail = p, sorted[k-1]
			break
		}
	}
	return s
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(p float64, n int) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the nearest-rank percentile p of samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rankOf(p, len(sorted))-1]
}

// median of already sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of samples and returns its median.
func medianOf(samples []float64) float64 {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return median(sorted)
}

// interval is a half-open [Start, End) span of time in nanoseconds.
type interval struct{ Start, End int64 }

// merge returns the union of ivs as sorted, disjoint intervals.
func merge(ivs []interval) []interval {
	sorted := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.End > iv.Start {
			sorted = append(sorted, iv)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	var out []interval
	for _, iv := range sorted {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

func totalLen(disjoint []interval) int64 {
	var t int64
	for _, iv := range disjoint {
		t += iv.End - iv.Start
	}
	return t
}

// overlapLen is the length of the intersection of two sorted disjoint
// interval lists.
func overlapLen(a, b []interval) int64 {
	var t int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].Start, b[j].Start), min(a[i].End, b[j].End)
		if hi > lo {
			t += hi - lo
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return t
}

// selfTime is the time covered by parents but by none of children:
// the union of the parent intervals minus the part of it the union of
// the children covers. Children outside every parent cost nothing, and
// overlapping children are counted once.
func selfTime(parents, children []interval) int64 {
	p := merge(parents)
	return totalLen(p) - overlapLen(p, merge(children))
}
