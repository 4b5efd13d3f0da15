package main

import (
	"strings"
	"testing"

	"automon/internal/funcs"
)

// TestCheckerFlagsWrongEstimate feeds the correctness gate a wrong
// estimate and expects it flagged, and an exact one passed.
func TestCheckerFlagsWrongEstimate(t *testing.T) {
	f := funcs.SqNorm(2)
	vecs := [][]float64{{1, 0}, {3, 2}} // mean (2, 1), f = 5
	ck := newChecker(f, 0.1, 1)
	if !ck.check(5.05, vecs) {
		t.Fatal("an estimate within ε was flagged")
	}
	if ck.check(5.2, vecs) {
		t.Fatal("an estimate 2ε off was not flagged")
	}
	if ck.checks != 2 || ck.bad != 1 {
		t.Fatalf("checks=%d bad=%d, want 2 and 1", ck.checks, ck.bad)
	}
	if !strings.Contains(ck.first, "checkpoint 2") {
		t.Fatalf("first failure %q does not name checkpoint 2", ck.first)
	}

	loose := newChecker(f, 0.1, 3)
	if !loose.check(5.25, vecs) {
		t.Fatal("the 3ε bound rejected an error of 2.5ε")
	}
	if loose.compare(nan(), 5) {
		t.Fatal("a NaN estimate passed")
	}
}

func nan() float64 { var z float64; return z / z }
