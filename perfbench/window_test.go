package main

import (
	"math"
	"testing"
	"time"
)

// TestWindowQuantile checks the per-window summary behind the timing
// metrics: windows where a value is undefined are left out, and the
// quartiles come from the remaining windows.
func TestWindowQuantile(t *testing.T) {
	nan := math.NaN()
	ws := []window{
		{Updates: 100, Wall: 1, ResolveMean: 4},
		{Updates: 100, Wall: 2, ResolveMean: nan},
		{Updates: 100, Wall: 4, ResolveMean: 1},
		{Updates: 100, Wall: 0.5, ResolveMean: 3},
		{Updates: 100, Wall: 1, ResolveMean: 2},
	}
	rate := func(w window) float64 { return float64(w.Updates) / w.Wall }
	// Rates 100, 50, 25, 200, 100: sorted 25 50 100 100 200.
	if got := windowQuantile(ws, 0.75, rate); got != 100 {
		t.Errorf("rate q3 = %g, want 100", got)
	}
	// Defined means 4, 1, 3, 2: sorted 1 2 3 4, q1 at position 0.75.
	if got := windowQuantile(ws, 0.25, func(w window) float64 { return w.ResolveMean }); got != 1.75 {
		t.Errorf("mean q1 = %g, want 1.75", got)
	}
	if got := windowQuantile(ws, 0.25, func(window) float64 { return nan }); !math.IsNaN(got) {
		t.Errorf("quantile of no defined values = %g, want NaN", got)
	}
}

// TestNewWindow checks that a window takes its times from the difference
// of the meter totals at its ends and its latency summaries from its
// samples.
func TestNewWindow(t *testing.T) {
	a := sample{wall: time.Second, cpu: 2 * time.Second, stealTicks: 10, hostTicks: 1000}
	b := sample{wall: 3 * time.Second, cpu: 5 * time.Second, stealTicks: 30, hostTicks: 1200}
	var resolve, fullsync dist
	for _, v := range []float64{5, 1, 3} {
		resolve.add(v)
	}
	w := newWindow(a, b, 42, &resolve, &fullsync)
	if w.Updates != 42 || w.Wall != 2 || w.CPU != 3 || w.Steal != 0.1 {
		t.Errorf("window = %+v", w)
	}
	if w.Violations != 3 || w.ResolveMean != 3 || w.FullSyncs != 0 || !math.IsNaN(w.FullsyncP50) {
		t.Errorf("window samples = %+v", w)
	}
}
