package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{10, 10, 1, 10}, 10},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // 100..1, unsorted
	}
	thousand := make([]float64, 1000)
	for i := range thousand {
		thousand[i] = float64(i + 1)
	}
	for _, c := range []struct {
		in   []float64
		p    float64
		want float64
	}{
		{nil, 99, 0},
		{[]float64{7}, 99, 7},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3, 4}, 75, 3},
		{[]float64{1, 2, 3, 4}, 99, 4},
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{thousand, 99, 990},
		{thousand, 0, 1},
	} {
		if got := percentile(c.in, c.p); got != c.want {
			t.Errorf("percentile(%d samples, %v) = %v, want %v", len(c.in), c.p, got, c.want)
		}
	}
	// p99 of 1000 samples leaves exactly ten beyond it.
	if beyond := 1000 - percentileRank(1000, 99); beyond != 10 {
		t.Errorf("1000 samples leave %d beyond p99, want 10", beyond)
	}
}
