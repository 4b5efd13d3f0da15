package main

import (
	"fmt"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/ingest"
	"automon/internal/stream"
	"automon/internal/transport"
)

// sketch-elide: elided sketch ingest. A flat cluster of 8 nodes on the
// batched v2 wire, no added delay, monitors AMS-F2 over 4×32 sketches
// (d = 128) with ADCD-E and ε = 0.1. Every turnstile event of
// stream.SketchEpisodes goes into its node's ingest.AMSSource, whose vector
// is then passed to NodeClient.UpdateElided.
//
// A run is a sequence of segments. Each segment is a SketchEpisodes stream
// of its own (sketchSegment events per node with three heavy-hitter episodes,
// after a warm-up) on fresh sources and a fresh cluster, so a run of any
// length sees the same mix. The sources' scale is 1/warm-up with the
// warm-up proportional to the segment length: the episodes then move the
// sketched F2 by the same relative amount at any length. One long stream
// would not do: its turnstile counters random-walk away from the warm-up
// state and the violation rate drifts with the run length. Switching
// segments happens at the segment's checkpoint, outside the measured time.
const (
	sketchNodes    = 8
	sketchRows     = 4
	sketchCols     = 32
	sketchEps      = 0.1
	sketchSegment  = 1 << 16
	sketchWarm     = sketchSegment / 8
	sketchTol      = 1 // ADCD-E: the paper's deterministic ε bound
	sketchHashSeed = 42
)

var sketchBatch = transport.BatchOptions{MaxBytes: 64 << 10, MaxDelay: time.Millisecond}

type sketchElide struct {
	seed   int64
	f      *core.Function
	seg    int64 // current segment
	events *stream.Events
	srcs   []*ingest.AMSSource
	vecs   [][]float64
	ck     *checker

	cl      *tcpCluster
	st      tcpState
	rec     *spanRec
	elided0 int64 // elided updates before the current segment's cluster
	elided  int64 // elided updates of the phase's finished segments
}

func newSketchElide(seed int64) (bench, error) {
	b := &sketchElide{seed: seed, f: funcs.AMSF2(sketchRows, sketchCols)}
	b.ck = newChecker(b.f, sketchEps, sketchTol)
	b.load(0)
	return b, nil
}

// load generates segment seg's events.
func (b *sketchElide) load(seg int64) {
	b.seg = seg
	b.events = stream.SketchEpisodes(sketchNodes, sketchWarm, sketchSegment, b.seed*1_000_003+seg)
}

func (b *sketchElide) params() map[string]any {
	return map[string]any{
		"function": b.f.Name, "nodes": sketchNodes, "dim": b.f.Dim(), "epsilon": sketchEps,
		"method": "ADCD-E", "wire": "v2 batched", "batch_max_bytes": sketchBatch.MaxBytes,
		"batch_max_delay_ms": sketchBatch.MaxDelay.Seconds() * 1e3, "one_way_delay_ms": 0,
		"stream": "SketchEpisodes", "segment_events_per_node": sketchSegment, "warmup_events_per_node": sketchWarm,
		"segments": b.seg + 1, "source_scale": 1.0 / sketchWarm,
		"error_bound": fmt.Sprintf("%g*eps", float64(sketchTol)),
	}
}

// start builds fresh sources from the warm-up events and brings the cluster
// up on their vectors.
func (b *sketchElide) start(rec *spanRec) error {
	b.srcs = b.srcs[:0]
	b.vecs = b.vecs[:0]
	for i := 0; i < sketchNodes; i++ {
		s, err := ingest.NewAMSSource(sketchRows, sketchCols, sketchHashSeed, 1.0/sketchWarm)
		if err != nil {
			return err
		}
		for _, u := range b.events.Warm[i] {
			s.Apply(u)
		}
		v := make([]float64, s.Dim())
		s.VectorInto(v)
		b.srcs = append(b.srcs, s)
		b.vecs = append(b.vecs, v)
	}
	initial := make([][]float64, sketchNodes)
	for i, v := range b.vecs {
		initial[i] = append([]float64(nil), v...)
	}
	cl, err := startTCP(b.f, core.Config{Epsilon: sketchEps}, transport.Options{Batch: sketchBatch}, initial, 0, rec != nil)
	if err != nil {
		return err
	}
	for i, nd := range cl.nodes {
		if !nd.EnableElision() {
			cl.close()
			return fmt.Errorf("node %d: elision needs a curvature bound", i)
		}
	}
	b.cl, b.rec = cl, rec
	return nil
}

func (b *sketchElide) stop() { b.cl.close() }

func (b *sketchElide) begin() {
	b.st = tcpState{}
	b.st.attach(b.cl)
	b.elided, b.elided0 = 0, b.clusterElided()
}

// clusterElided sums the current cluster's elided updates.
func (b *sketchElide) clusterElided() int64 {
	var n int64
	for _, nd := range b.cl.nodes {
		n += nd.ElidedUpdates()
	}
	return n
}

func (b *sketchElide) checker() *checker { return b.ck }

func (b *sketchElide) step(upd int64) (bool, bool, error) {
	i := int(upd % sketchNodes)
	k := int((upd / sketchNodes) % sketchSegment)
	ev := b.events.PerNode[i][k]
	src, x := b.srcs[i], b.vecs[i]
	if !b.rec.sampled(upd) {
		src.Apply(ev)
		src.VectorInto(x)
		violated, err := b.cl.update(i, b.cl.nodes[i].UpdateElided, x)
		return violated, violated && b.st.fullSince(), err
	}
	s := b.rec.begin(spSketchApply, -1, upd)
	src.Apply(ev)
	b.rec.end(s)
	s = b.rec.begin(spSketchVec, -1, upd)
	src.VectorInto(x)
	b.rec.end(s)
	t0 := time.Now()
	violated, err := b.cl.update(i, b.cl.nodes[i].UpdateElided, x)
	if !violated {
		b.rec.add(spNodeUpdate, -1, upd, t0, time.Now())
	}
	return violated, violated && b.st.fullSince(), err
}

// checkpoint runs at the end of every segment: compare, then move on to the
// next segment's events, sources and cluster.
func (b *sketchElide) checkpoint(ck *checker, final bool) error {
	b.cl.quiesce()
	if err := b.cl.coord.Err(); err != nil {
		return err
	}
	ck.check(b.cl.coord.Estimate(), b.vecs)
	if final {
		return nil
	}
	b.elided += b.clusterElided() - b.elided0
	err := b.st.next(func() (*tcpCluster, error) {
		b.load(b.seg + 1)
		if err := b.start(b.rec); err != nil {
			return nil, fmt.Errorf("segment %d: %w", b.seg, err)
		}
		return b.cl, nil
	})
	b.elided0 = 0
	return err
}

func (b *sketchElide) totals() totals { return b.st.totals() }

func (b *sketchElide) layers(p *phase, m *layerOut) error {
	if err := tcpLayers(&b.st, p, m, b.elided+b.clusterElided()-b.elided0); err != nil {
		return err
	}
	apply := spanDist(p.rec.spans, spSketchApply)
	vec := spanDist(p.rec.spans, spSketchVec)
	m.p50("sketch.apply_ns_p50", &apply, 1)
	m.p50("sketch.vector_ns_p50", &vec, 1)
	return nil
}
