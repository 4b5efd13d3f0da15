package main

import "testing"

// TestSelfTimes checks the self-time arithmetic on a synthetic span tree:
// a span's self time is its duration minus the union of the intervals its
// direct children cover, clipped to the span.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: root
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 40, parent: 0},    // 2: child overlapping 1
		{start: 60, end: 70, parent: 0},    // 3: child
		{start: 90, end: 120, parent: 0},   // 4: child running past the root's end
		{start: 12, end: 18, parent: 1},    // 5: grandchild, counts only against 1
		{start: 200, end: 210, parent: -1}, // 6: leaf root
	}
	// Root: children cover [10,40] ∪ [60,70] ∪ [90,100] = 30+10+10 = 50.
	want := []int64{50, 14, 20, 10, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCoveredNested(t *testing.T) {
	ivs := [][2]int64{{5, 50}, {10, 20}, {30, 40}, {60, 61}}
	if got := covered(0, 100, ivs); got != 46 {
		t.Fatalf("covered = %d, want 46", got)
	}
	if got := covered(0, 100, nil); got != 0 {
		t.Fatalf("covered(nil) = %d, want 0", got)
	}
}

// TestSpanSamplingReservesRoom checks that a sampled update is never
// started without room for its spans.
func TestSpanSamplingReservesRoom(t *testing.T) {
	r := newSpanRec(2, spanReserve+3)
	if !r.sampled(0) || r.sampled(1) {
		t.Fatal("every second update should be sampled")
	}
	for i := 0; i < 4; i++ {
		r.end(r.begin(spEncode, -1, 0))
	}
	if r.sampled(2) {
		t.Fatal("a full buffer must stop sampling")
	}
	if r.skipped != 1 {
		t.Fatalf("skipped = %d, want 1", r.skipped)
	}
	var nilRec *spanRec
	if nilRec.sampled(0) {
		t.Fatal("a nil recorder samples nothing")
	}
}
