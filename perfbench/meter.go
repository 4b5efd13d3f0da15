package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// meter accumulates wall time, process CPU, allocation and GC CPU over the
// measured phase. Work the benchmark does for itself between measured
// stretches (correctness checkpoints, input generation) is excluded by
// pausing it.
type meter struct {
	running bool
	since   sample
	total   sample
}

type sample struct {
	at   time.Time // when a snapshot was taken
	wall time.Duration
	cpu  time.Duration // user + sys of the whole process
	// stealTicks and hostTicks are the host's stolen and total CPU ticks
	// (/proc/stat), so a run can tell contention from a slower program.
	stealTicks, hostTicks uint64
	allocBytes            uint64
	gcCPU                 float64 // seconds
	totalCPU              float64 // seconds, as the Go runtime accounts it
}

func readSample() sample {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	rs := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(rs)
	s := sample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      rs[0].Value.Float64(),
		totalCPU:   rs[1].Value.Float64(),
		allocBytes: rs[2].Value.Uint64(),
	}
	s.stealTicks, s.hostTicks = hostCPU()
	return s
}

// hostCPU returns the stolen and total ticks of the aggregate cpu line of
// /proc/stat, or zeros where it cannot be read.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func (m *meter) resume() {
	if !m.running {
		m.since = readSample()
		m.running = true
	}
}

func (m *meter) pause() {
	if !m.running {
		return
	}
	now := readSample()
	m.total.wall += now.at.Sub(m.since.at)
	m.total.cpu += now.cpu - m.since.cpu
	m.total.stealTicks += now.stealTicks - m.since.stealTicks
	m.total.hostTicks += now.hostTicks - m.since.hostTicks
	m.total.allocBytes += now.allocBytes - m.since.allocBytes
	m.total.gcCPU += now.gcCPU - m.since.gcCPU
	m.total.totalCPU += now.totalCPU - m.since.totalCPU
	m.running = false
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// mallocs returns the process-wide count of heap allocations so far, as
// runtime.MemStats.Mallocs counts them (tiny allocations included) but
// without stopping the world.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// dist summarizes a sample of values by percentiles.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) { d.vals = append(d.vals, v); d.sorted = false }

func (d *dist) n() int { return len(d.vals) }

// mean returns the mean of the sample, or NaN for an empty sample.
func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range d.vals {
		sum += v
	}
	return sum / float64(len(d.vals))
}

// quantile returns the q-quantile by linear interpolation between order
// statistics, or NaN for an empty sample.
func (d *dist) quantile(q float64) float64 {
	if len(d.vals) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
	pos := q * float64(len(d.vals)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return d.vals[lo] + (pos-float64(lo))*(d.vals[hi]-d.vals[lo])
}

func median(vals []float64) float64 {
	d := dist{vals: append([]float64(nil), vals...)}
	return d.quantile(0.5)
}
