// Command perfbench is the AutoMon benchmark. It builds one workload's
// cluster from generated inputs, drives it with a single closed-loop
// goroutine for a fixed time, checks the monitored estimate against the
// exact value at quiesced checkpoints, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer metrics of a separate traced run). The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through perfbench/run.sh from the root of a checkout:
//
//	bash perfbench/run.sh --workload kld-wan --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh -compare <dir-a> <dir-b>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one workload: its inputs (generated from the seed when it is
// constructed) and the cluster it drives.
type bench interface {
	// start brings the system up from the initial inputs and returns once
	// every node holds its first zone. rec is non-nil in a traced run.
	start(rec *spanRec) error
	// stop tears the system down and waits for everything it started.
	stop()
	// begin snapshots counters at the start of the measured phase.
	begin()
	// step feeds update number upd and reports whether it violated and
	// whether a full sync ran while it was being resolved.
	step(upd int64) (violated, full bool, err error)
	// checkpoint quiesces the system, records one comparison in ck and,
	// unless it is the final one, prepares the next stretch of inputs.
	checkpoint(ck *checker, final bool) error
	checker() *checker
	// totals returns protocol totals of the measured phase.
	totals() totals
	// layers adds the per-layer metrics this workload measures to m.
	layers(p *phase, m *layerOut) error
	params() map[string]any
}

// totals are the protocol counts of a measured phase.
type totals struct {
	messages, wireBytes int64
	frames, payload     int64 // socket workloads only
	fullSyncs           int64
}

type workloadDef struct {
	name, why string
	// sampleEvery is the traced run's span sampling: one update in
	// sampleEvery records its spans.
	sampleEvery int64
	// ckEvery is the number of updates between correctness checkpoints.
	ckEvery int64
	// windowBlocks is the number of checkpoint blocks in a window.
	windowBlocks int64
	newBench     func(seed int64) (bench, error)
}

var workloads = []workloadDef{
	{
		name:         "kld-wan",
		why:          "the paper's 4.7 WAN setting: KLD on 12 nodes over a 1 ms one-way link; resolutions are chains of round trips",
		sampleEvery:  1,
		ckEvery:      kldSegmentRounds * kldNodes,
		windowBlocks: kldPool, // one pass over the city pool
		newBench:     newKLDWan,
	},
	{
		name:         "sketch-elide",
		why:          "elided sketch ingest on the batched wire: the node side and the wire dominate, violations are rare",
		sampleEvery:  17, // coprime to the node count, so every node is sampled
		ckEvery:      sketchSegment * sketchNodes,
		windowBlocks: 2,
		newBench:     newSketchElide,
	},
	{
		name:         "tree-drift",
		why:          "in-process 4096-node shard tree under periodic drift: the coordinator side is CPU-bound at scale",
		sampleEvery:  61, // coprime to the node count; see treeViolEvery
		ckEvery:      treeRoundsPerBlock * treeNodes,
		windowBlocks: treeDriftPeriod / treeRoundsPerBlock, // one drift period
		newBench:     newTreeDrift,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// A run brings its system up at least setupReps times and until it has
// spent setupBudget doing so, at most setupMax times; setup_s is the
// median, and the last instance is the one measured. Every setup starts
// from a collected heap, so a collection left over from the previous one
// does not land in its time.
const (
	setupReps   = 11
	setupBudget = time.Second
	setupMax    = 101
)

// phase is the outcome of one measured phase.
type phase struct {
	updates, violations int64
	errors              int64
	firstErr            string
	// The windows of the phase. Each window's latency samples are
	// summarized when it closes, so they do not count as the system's
	// memory when the live heap is measured.
	windows []window
	m       sample
	heapMiB float64
	setup   []float64 // s
	tot     totals
	ck      *checker
	rec     *spanRec
	wall    float64 // measured seconds
	b       bench
}

func (p *phase) rate() float64 { return float64(p.updates) / p.wall }

// window is one stretch of a measured phase made of a workload's fixed
// number of checkpoint blocks, so every window does alike work. Each timing
// metric is the quartile of its per-window values on the good side (the
// 75th percentile of a rate, the 25th of a cost). Contention from outside
// the program only ever slows a window, and on a shared host it comes and
// goes within a run: this quartile moves only once it covers three windows
// in four, where a mean or median over the run moves with every burst.
type window struct {
	Updates int64 `json:"updates"`
	// Violations and FullSyncs count the window's violating updates and
	// those whose resolution ran a full sync.
	Violations int     `json:"violations"`
	FullSyncs  int     `json:"full_syncs"`
	Wall       float64 `json:"wall_s"`
	CPU        float64 `json:"cpu_s"`
	// Steal is the host's stolen share of CPU time during the window.
	Steal float64 `json:"host_steal_frac"`
	// The mean and percentiles (ms) of the window's resolution times; NaN
	// (left out of the record) where the window has none.
	ResolveMean float64 `json:"-"`
	ResolveP95  float64 `json:"-"`
	FullsyncP50 float64 `json:"-"`
}

// newWindow summarizes the stretch between meter totals a and b.
func newWindow(a, b sample, updates int64, resolve, fullsync *dist) window {
	w := window{
		Updates:     updates,
		Violations:  resolve.n(),
		FullSyncs:   fullsync.n(),
		Wall:        (b.wall - a.wall).Seconds(),
		CPU:         (b.cpu - a.cpu).Seconds(),
		ResolveMean: resolve.mean(),
		ResolveP95:  resolve.quantile(0.95),
		FullsyncP50: fullsync.quantile(0.5),
	}
	if ticks := b.hostTicks - a.hostTicks; ticks > 0 {
		w.Steal = float64(b.stealTicks-a.stealTicks) / float64(ticks)
	}
	return w
}

// windowQuantile returns the q-quantile of f over the windows where it is
// defined, or NaN when it is defined in none.
func windowQuantile(ws []window, q float64, f func(window) float64) float64 {
	var d dist
	for _, w := range ws {
		if v := f(w); !math.IsNaN(v) {
			d.add(v)
		}
	}
	return d.quantile(q)
}

// runPhase constructs the workload from the seed, sets it up reps times,
// and measures the last instance for the given duration.
func runPhase(w workloadDef, seed int64, dur time.Duration, reps int, rec *spanRec) (*phase, error) {
	b, err := w.newBench(seed)
	if err != nil {
		return nil, err
	}
	p := &phase{rec: rec, b: b}
	var spent time.Duration
	for {
		runtime.GC()
		t0 := time.Now()
		if err := b.start(rec); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		p.setup = append(p.setup, d.Seconds())
		if n := len(p.setup); n >= reps && (reps == 1 || spent >= setupBudget || n >= setupMax) {
			break
		}
		b.stop()
	}
	defer b.stop()
	p.ck = b.checker()

	var m meter
	var resolve, fullsync dist // ms, this window's
	b.begin()
	deadline := time.Now().Add(dur)
	m.resume()
	start, startUpd := m.total, int64(0)
	closeWindow := func() {
		win := newWindow(start, m.total, p.updates-startUpd, &resolve, &fullsync)
		p.windows = append(p.windows, win)
		resolve, fullsync = dist{}, dist{}
		start, startUpd = m.total, p.updates
	}
	for upd := int64(0); ; upd++ {
		t0 := time.Now()
		if !t0.Before(deadline) {
			break
		}
		violated, full, err := b.step(upd)
		d := time.Since(t0)
		p.updates++
		if err != nil {
			p.errors++
			if p.firstErr == "" {
				p.firstErr = err.Error()
			}
		}
		if violated {
			p.violations++
			resolve.add(float64(d) / 1e6)
			if full {
				fullsync.add(float64(d) / 1e6)
			}
		}
		if (upd+1)%w.ckEvery == 0 {
			m.pause()
			if (upd+1)%(w.ckEvery*w.windowBlocks) == 0 {
				closeWindow()
			}
			t := time.Now()
			if err := b.checkpoint(p.ck, false); err != nil {
				return nil, err
			}
			deadline = deadline.Add(time.Since(t))
			m.resume()
		}
	}
	m.pause()
	// The stretch after the last full window is measured only when it is
	// the whole phase (a run shorter than one window).
	if len(p.windows) == 0 {
		closeWindow()
	}
	p.m = m.total
	p.wall = m.total.wall.Seconds()
	p.tot = b.totals()
	p.heapMiB = liveHeapMiB()
	if err := b.checkpoint(p.ck, true); err != nil {
		return nil, err
	}
	return p, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var endToEnd = []struct{ name, unit string }{
	{"updates_per_s", "1/s"},
	// The mean, not the median: a violation on the WAN link resolves in two
	// or three round trips about equally often, so the median falls in the
	// gap between the two and jumps by a round trip when their shares
	// trade a percent.
	{"resolve_mean_ms", "ms"},
	// The tail is p95, not p99: on a shared host a neighbour taking a core
	// stalls about one resolution in a hundred for milliseconds, which
	// moved sketch-elide's p99 by 70% and its p95 by 6%.
	{"resolve_p95_ms", "ms"},
	{"fullsync_p50_ms", "ms"},
	{"msgs_per_kupdate", "count"},
	{"wire_bytes_per_update", "B"},
	{"cpu_us_per_update", "us"},
	{"setup_s", "s"},
	{"heap_live_mib", "MiB"},
}

var perLayer = []struct{ name, unit string }{
	{"transport.gather_ms_p50", "ms"},
	{"transport.pulls_per_full_sync", "count"},
	{"transport.distribute_ms_p50", "ms"},
	{"transport.lazy_ms_p50", "ms"},
	{"transport.frames_per_msg", "ratio"},
	{"transport.wire_overhead_frac", "ratio"},
	{"node.update_ns_p50", "ns"},
	{"node.elided_frac", "ratio"},
	{"node.exact_checks_per_kupdate", "count"},
	{"node.violations_per_kupdate", "count"},
	{"node.apply_sync_us_p50", "us"},
	{"coord.lazy_self_us_p50", "us"},
	{"coord.full_self_ms_p50", "ms"},
	{"coord.hv_allocs_per_call", "count"},
	{"coord.build_ms_p50", "ms"},
	{"coord.lazy_resolved_frac", "ratio"},
	{"coord.full_syncs_per_kupdate", "count"},
	{"coord.eigensolves_per_build", "count"},
	{"coord.opt_evals_per_build", "count"},
	{"shard.absorbed_frac", "ratio"},
	{"shard.partials_per_full_sync", "count"},
	{"shard.partials_rejected", "count"},
	{"codec.encode_ns_p50", "ns"},
	{"codec.decode_ns_p50", "ns"},
	{"codec.bytes_per_msg", "B"},
	{"sketch.apply_ns_p50", "ns"},
	{"sketch.vector_ns_p50", "ns"},
	{"runtime.alloc_bytes_per_update", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// sampleCount records how many samples back a percentile and whether its
// tail is resolved (at least ten samples beyond it).
type sampleCount struct {
	N        int  `json:"n"`
	Resolved bool `json:"resolved"`
}

// percentileCount describes the q-quantile of n samples.
func percentileCount(n int, q float64) sampleCount {
	return sampleCount{N: n, Resolved: math.Floor((1-q)*float64(n)) >= 10}
}

// windowCount describes a per-window q-quantile: total samples are the
// sum of n over the windows, and the tail is resolved when it is in the
// window with the fewest samples.
func windowCount(ws []window, q float64, n func(window) int) sampleCount {
	c := sampleCount{Resolved: len(ws) > 0}
	for _, w := range ws {
		k := percentileCount(n(w), q)
		c.N += k.N
		c.Resolved = c.Resolved && k.Resolved
	}
	return c
}

// layerOut collects a traced run's per-layer metrics and the sample count
// behind each percentile.
type layerOut struct {
	vals    map[string]float64
	samples map[string]sampleCount
}

func (o *layerOut) set(name string, v float64) { o.vals[name] = v }

// p50 reports the median of d, times scale.
func (o *layerOut) p50(name string, d *dist, scale float64) {
	o.vals[name] = d.quantile(0.5) * scale
	o.samples[name] = percentileCount(d.n(), 0.5)
}

// record is the full run record, written next to the result line.
type record struct {
	Workload    string                 `json:"workload"`
	Why         string                 `json:"why"`
	Seed        int64                  `json:"seed"`
	Seconds     int                    `json:"seconds"`
	Trace       int                    `json:"trace"`
	Params      map[string]any         `json:"params"`
	Host        map[string]any         `json:"host"`
	Samples     map[string]sampleCount `json:"samples"`
	Counts      map[string]int64       `json:"counts"`
	NotMeasured []string               `json:"not_measured,omitempty"`
	MaxErr      float64                `json:"max_abs_error"`
	// HostStealFrac is the share of the host's CPU time the hypervisor
	// stole during the measured phases; high values mark runs slowed by
	// contention outside the program.
	HostStealFrac float64 `json:"host_steal_frac"`
	ErrBound      float64 `json:"error_bound"`
	// Windows are the untraced phase's windows, from which the timing
	// metrics are taken.
	Windows      []window          `json:"windows,omitempty"`
	FirstFailure string            `json:"first_failure,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Correct      bool              `json:"correct"`
	Attempted    int64             `json:"attempted"`
	Failed       int64             `json:"failed"`

	steal, hostTicks uint64
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for run records and traces")
	compare := flag.Bool("compare", false, "compare two directories of run records: -compare <dir-a> <dir-b>")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare <dir-a> <dir-b>")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), filepath.Join(filepath.Dir(*out), "BENCHMARK.json")); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	var defs []workloadDef
	if *workload == "all" {
		defs = workloads
	} else if w, ok := findWorkload(*workload); ok {
		defs = []workloadDef{w}
	} else {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		fatalf("unknown workload %q (have %s, all)", *workload, strings.Join(names, ", "))
	}

	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range defs {
		rec, err := runWorkload(w, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if err := saveRecord(*out, rec); err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printRecord(rec)
		final.Correct = final.Correct && rec.Correct
		final.Attempted += rec.Attempted
		final.Failed += rec.Failed
		for k, v := range rec.Metrics {
			if len(defs) > 1 {
				k = w.name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// runWorkload runs one workload: an untraced phase, and for a traced run a
// second, traced phase on a fresh instance with the same seed. The untraced
// phase gives the end-to-end metrics, or in a traced run the runtime
// counters and the baseline for the tracing overhead.
func runWorkload(w workloadDef, seed int64, seconds int, traced bool, out string) (*record, error) {
	dur := time.Duration(seconds) * time.Second
	rec := &record{
		Workload: w.name, Why: w.why, Seed: seed, Seconds: seconds,
		Host: hostInfo(), Samples: map[string]sampleCount{}, Counts: map[string]int64{},
		Metrics: map[string]metric{},
	}
	reps := setupReps
	if traced {
		// A traced run splits its time between the untraced baseline and
		// the traced phase, so it takes as long as an untraced run.
		rec.Trace = 1
		reps = 1
		dur /= 2
	}
	plain, err := runPhase(w, seed, dur, reps, nil)
	if err != nil {
		return nil, err
	}
	rec.Params = plain.b.params()
	rec.addPhase(plain)
	if !traced {
		rec.endToEnd(plain)
		return rec, nil
	}

	spans := newSpanRec(w.sampleEvery, spanCapacity)
	tp, err := runPhase(w, seed, dur, 1, spans)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	rec.addPhase(tp)
	lo := &layerOut{vals: map[string]float64{}, samples: rec.Samples}
	if err := tp.b.layers(tp, lo); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	vals := lo.vals
	vals["runtime.alloc_bytes_per_update"] = float64(plain.m.allocBytes) / float64(plain.updates)
	vals["runtime.gc_cpu_frac"] = plain.m.gcCPU / plain.m.totalCPU
	vals["trace.overhead_frac"] = 1 - tp.rate()/plain.rate()
	rec.Counts["spans"] = int64(len(spans.spans))
	rec.Counts["span_sample_every"] = spans.every
	rec.Counts["span_sampled_updates_skipped"] = spans.skipped
	for _, pl := range perLayer {
		v, ok := vals[pl.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rec.NotMeasured = append(rec.NotMeasured, pl.name)
			v = 0
		}
		rec.Metrics[pl.name] = metric{Value: v, Unit: pl.unit}
	}
	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.spans.csv.gz", w.name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(path, spans.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return rec, nil
}

// spanCapacity bounds a traced run's span buffer (64 MiB).
const spanCapacity = 1 << 21

// addPhase folds a phase's operation counts into the record: every update
// and every checkpoint is an attempted operation; an update that returned
// an error and an out-of-bound checkpoint are failed ones.
func (r *record) addPhase(p *phase) {
	r.Attempted += p.updates + int64(p.ck.checks)
	r.Failed += p.errors + int64(p.ck.bad)
	r.Correct = r.Failed == 0
	if r.FirstFailure == "" {
		if p.firstErr != "" {
			r.FirstFailure = p.firstErr
		} else {
			r.FirstFailure = p.ck.first
		}
	}
	r.MaxErr = math.Max(r.MaxErr, p.ck.maxErr)
	r.steal += p.m.stealTicks
	r.hostTicks += p.m.hostTicks
	if r.hostTicks > 0 {
		r.HostStealFrac = float64(r.steal) / float64(r.hostTicks)
	}
	r.ErrBound = p.ck.bound
	pre := ""
	if p.rec != nil {
		pre = "traced."
	}
	r.Counts[pre+"updates"] += p.updates
	r.Counts[pre+"violations"] += p.violations
	r.Counts[pre+"checkpoints"] += int64(p.ck.checks)
	r.Counts[pre+"messages"] += p.tot.messages
	r.Counts[pre+"wire_bytes"] += p.tot.wireBytes
	r.Counts[pre+"full_syncs"] += p.tot.fullSyncs
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func (r *record) endToEnd(p *phase) {
	u := float64(p.updates)
	set := func(name string, v float64) {
		for _, e := range endToEnd {
			if e.name == name {
				r.Metrics[name] = metric{Value: v, Unit: e.unit}
				return
			}
		}
		panic("unknown end-to-end metric " + name)
	}
	ws := p.windows
	set("updates_per_s", windowQuantile(ws, 0.75, func(w window) float64 { return float64(w.Updates) / w.Wall }))
	set("resolve_mean_ms", windowQuantile(ws, 0.25, func(w window) float64 { return w.ResolveMean }))
	set("resolve_p95_ms", windowQuantile(ws, 0.25, func(w window) float64 { return w.ResolveP95 }))
	set("fullsync_p50_ms", windowQuantile(ws, 0.25, func(w window) float64 { return w.FullsyncP50 }))
	set("msgs_per_kupdate", 1000*float64(p.tot.messages)/u)
	set("wire_bytes_per_update", float64(p.tot.wireBytes)/u)
	set("cpu_us_per_update", windowQuantile(ws, 0.25, func(w window) float64 { return 1e6 * w.CPU / float64(w.Updates) }))
	set("setup_s", median(p.setup))
	set("heap_live_mib", p.heapMiB)
	r.Samples["resolve_mean_ms"] = windowCount(ws, 0, func(w window) int { return w.Violations })
	r.Samples["resolve_p95_ms"] = windowCount(ws, 0.95, func(w window) int { return w.Violations })
	r.Samples["fullsync_p50_ms"] = windowCount(ws, 0.5, func(w window) int { return w.FullSyncs })
	r.Samples["setup_s"] = sampleCount{N: len(p.setup)}
	r.Samples["windows"] = sampleCount{N: len(ws)}
	r.Windows = ws
}

func saveRecord(out string, r *record) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%s.json", r.Workload, r.Seed, r.Trace, time.Now().UTC().Format("20060102T150405.000000000"))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// printRecord prints every metric by name with its unit and sample count.
func printRecord(r *record) {
	fmt.Printf("# %s seed=%d seconds=%d trace=%d correct=%v attempted=%d failed=%d max_abs_error=%.4g bound=%.4g host_steal=%.1f%%\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Correct, r.Attempted, r.Failed, r.MaxErr, r.ErrBound, 100*r.HostStealFrac)
	if r.FirstFailure != "" {
		fmt.Printf("#   first failure: %s\n", r.FirstFailure)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		extra := ""
		if s, ok := r.Samples[k]; ok {
			extra = fmt.Sprintf("  (n=%d", s.N)
			if !s.Resolved && k != "setup_s" {
				extra += ", unresolved"
			}
			extra += ")"
		}
		fmt.Printf("#   %-34s %14.6g %-6s%s\n", k, m.Value, m.Unit, extra)
	}
	if len(r.NotMeasured) > 0 {
		fmt.Printf("#   not measured on this workload (reported as 0): %s\n", strings.Join(r.NotMeasured, ", "))
	}
}
