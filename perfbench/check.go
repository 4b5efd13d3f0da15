package main

import (
	"fmt"
	"math"

	"automon/internal/core"
	"automon/internal/linalg"
)

// checker is the correctness gate. At each checkpoint the workload quiesces
// its cluster, and the checker compares the coordinator's estimate with the
// exact f(x̄) computed from the benchmark's own copy of every node's vector.
// The bound is the oracle's: tol·ε, with tol = 1 for ADCD-E and 3 for
// non-convex ADCD-X.
type checker struct {
	f     *core.Function
	bound float64
	avg   []float64

	checks int
	bad    int
	maxErr float64
	first  string // description of the first out-of-bound checkpoint
}

func newChecker(f *core.Function, eps, tol float64) *checker {
	return &checker{f: f, bound: tol * eps, avg: make([]float64, f.Dim())}
}

// check compares est with f(mean(vecs)) and reports whether it is in bound.
func (c *checker) check(est float64, vecs [][]float64) bool {
	linalg.Mean(c.avg, vecs...)
	return c.compare(est, c.f.Value(c.avg))
}

// compare records one checkpoint of est against the exact value truth.
func (c *checker) compare(est, truth float64) bool {
	c.checks++
	e := math.Abs(est - truth)
	if e > c.maxErr || math.IsNaN(e) {
		c.maxErr = e
	}
	if e <= c.bound+1e-9 {
		return true
	}
	c.bad++
	if c.first == "" {
		c.first = fmt.Sprintf("checkpoint %d: estimate %.6g, exact %.6g, error %.3g > bound %.3g", c.checks, est, truth, e, c.bound)
	}
	return false
}

// failLast marks the latest checkpoint, which passed its comparison, as
// failed for another reason.
func (c *checker) failLast(desc string) {
	c.bad++
	if c.first == "" {
		c.first = fmt.Sprintf("checkpoint %d: %s", c.checks, desc)
	}
}
