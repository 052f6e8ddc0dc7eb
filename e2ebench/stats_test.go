package main

import (
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[n-1-i] = float64(i + 1) // descending: summarize must sort
	}
	return out
}

func TestSummarizePicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n             int
		median        float64
		tailPct, tail float64
	}{
		{1000, 500.5, 99, 990}, // p99.9 has 1 beyond, p99 has 10
		{100, 50.5, 90, 90},    // p99 has 1, p95 has 5, p90 has 10
		{40, 20.5, 75, 30},     // p90 has 4, p75 has 10
		{15, 8, 0, 0},          // p75 has 3 beyond: no tail at all
		{0, 0, 0, 0},
	} {
		s := summarize(seq(c.n))
		if s.N != c.n || s.Median != c.median || s.TailPct != c.tailPct || s.Tail != c.tail {
			t.Errorf("n=%d: got %+v, want median %v, p%v=%v", c.n, s, c.median, c.tailPct, c.tail)
		}
		if s.TailPct > 0 && c.n-rankOf(s.TailPct, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, s.TailPct, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(20)
	for _, c := range []struct{ p, want float64 }{{50, 10}, {95, 19}, {99, 20}, {100, 20}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name              string
		parents, children []interval
		want              int64
	}{
		{"no children", []interval{{0, 100}}, nil, 100},
		// [10,30) and [20,40) overlap: together they cover 30, not 40;
		// [90,120) sticks out of the parent and costs only 10.
		{"overlapping children", []interval{{0, 100}}, []interval{{10, 30}, {20, 40}, {90, 120}}, 60},
		{"child covers parent", []interval{{0, 100}}, []interval{{0, 100}, {50, 60}}, 0},
		{"child outside", []interval{{0, 100}}, []interval{{100, 200}}, 100},
		// Overlapping parents are one busy stretch of [0,100).
		{"overlapping parents", []interval{{0, 50}, {40, 100}}, []interval{{45, 55}}, 90},
		{"disjoint parents", []interval{{0, 10}, {20, 30}}, []interval{{5, 25}}, 10},
		{"empty intervals", []interval{{5, 5}}, []interval{{0, 10}}, 0},
	} {
		if got := selfTime(c.parents, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}
