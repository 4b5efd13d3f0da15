package main

import (
	"math"
	"testing"

	"automon/internal/obs"
)

// TestAnalyzeEvents rebuilds a lazy and a full resolution from a synthetic
// coordinator event stream (times in ms).
func TestAnalyzeEvents(t *testing.T) {
	const ms = int64(1e6)
	ev := func(at int64, kind, label string) obs.Event {
		return obs.Event{Unix: at * ms, Kind: kind, Label: label}
	}
	events := []obs.Event{
		// Lazy: violation at 0, one pull 1→3, lazy_sync at 4.
		ev(0, obs.EventViolation, "safe_zone"),
		ev(1, obs.EventFrameSent, "data-request"),
		ev(3, obs.EventFrameReceived, "data-response"),
		ev(4, obs.EventLazySync, ""),
		ev(4, obs.EventFrameSent, "slack"),
		// Full: violation at 10, pulls 11→13 and 14→16, full_sync at 17,
		// syncs sent at 17 and 18; an unrelated violation frame in between.
		ev(10, obs.EventViolation, "neighborhood"),
		ev(11, obs.EventFrameSent, "data-request"),
		ev(12, obs.EventFrameReceived, "violation"),
		ev(13, obs.EventFrameReceived, "data-response"),
		ev(14, obs.EventFrameSent, "data-request"),
		ev(16, obs.EventFrameReceived, "data-response"),
		ev(17, obs.EventFullSync, "X"),
		ev(17, obs.EventFrameSent, "sync"),
		ev(18, obs.EventFrameSent, "sync"),
	}
	ci := analyzeEvents(events)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("lazy", ci.lazy.quantile(0.5), 4)
	near("lazy self (µs)", ci.lazySelf.quantile(0.5), 2000) // 4 − 2 ms of pull
	near("gather", ci.gather.quantile(0.5), 5)              // 11 → 16
	near("build", ci.build.quantile(0.5), 1)                // 16 → 17
	near("distribute", ci.distribute.quantile(0.5), 1)      // 17 → 18
	near("full self", ci.fullSelf.quantile(0.5), 4)         // 8 − 4 ms of pulls
	if ci.fullSyncs != 1 || ci.pulls != 2 {
		t.Errorf("fullSyncs=%d pulls=%d, want 1 and 2", ci.fullSyncs, ci.pulls)
	}
}

// TestQuartilesMatchPython pins the compare helper's quartiles to Python's
// statistics.quantiles(values, n=4) and statistics.median.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 4, 9], n=4) == [1.0, 4.0, 9.0]
	q1, med, q3 = quartiles([]float64{1, 4, 9})
	if q1 != 1 || med != 4 || q3 != 9 {
		t.Fatalf("quartiles = %v %v %v, want 1 4 9", q1, med, q3)
	}
}
