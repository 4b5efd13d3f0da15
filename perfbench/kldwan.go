package main

import (
	"fmt"
	"math/rand"
	"time"

	"automon/internal/core"
	"automon/internal/experiments"
	"automon/internal/linalg"
	"automon/internal/stream"
	"automon/internal/transport"
)

// kld-wan: the paper's §4.7 setting. A flat ListenCoordinator and 12
// DialNode clients on the unbatched v1 wire monitor KLD over 10-bin
// air-quality histograms (d = 20) with ADCD-X (default L-BFGS backend),
// fixed r = 1 and ε = 0.01. Every node link runs through a delay line with
// a fixed one-way delay, so resolutions are chains of real round trips.
//
// A run is a sequence of short segments of kldSegmentRounds rounds, each
// streaming one city's air-quality data on a cluster of its own. The cities
// are a fixed pool of kldPool synthetic cities, the way the paper's Beijing
// dataset is a fixed set of sites; the seed sets the order in which a run
// visits them and, for every city, which of its sites each node streams.
// How often a city's data violates varies a lot from city to city (from 21
// to 304 violations in 60 rounds), so a run that drew its own cities would
// measure the draw: with about ninety freshly drawn cities per run, the
// messages per update still spread 20% from seed to seed. With the pool,
// every pass over it does the same work, and a pass is one window.
// Switching clusters happens at the segment's checkpoint, outside the
// measured time.
const (
	kldNodes         = 12
	kldDim           = 20
	kldEps           = 0.01
	kldR             = 1.0
	kldDelay         = time.Millisecond
	kldSegmentRounds = 10
	kldPool          = 12
	kldTol           = 3 // non-convex ADCD-X: the oracle's 3ε bound
)

type kldWan struct {
	seg   int64 // current segment
	pool  []*experiments.Workload
	order []int   // the run's order of the pool's cities
	sites [][]int // sites[c][i] is the site of city c node i streams
	w     *experiments.Workload
	site  []int // sites of the current segment's city
	cfg   core.Config

	windows []stream.Windower
	initial [][]float64
	vecs    [][]float64 // the benchmark's copy of every node's vector
	ck      *checker

	cl  *tcpCluster
	st  tcpState
	rec *spanRec
}

func newKLDWan(seed int64) (bench, error) {
	b := &kldWan{}
	rng := rand.New(rand.NewSource(seed))
	b.order = rng.Perm(kldPool)
	for c := 0; c < kldPool; c++ {
		b.pool = append(b.pool, experiments.KLDWorkload(experiments.Options{Seed: int64(c)}, kldDim, kldNodes, kldSegmentRounds))
		b.sites = append(b.sites, rng.Perm(kldNodes))
	}
	b.load(0)
	b.ck = newChecker(b.w.F, kldEps, kldTol)
	return b, nil
}

// load fills the node windows for segment seg.
func (b *kldWan) load(seg int64) {
	b.seg = seg
	c := b.order[seg%kldPool]
	b.w, b.site = b.pool[c], b.sites[c]
	b.cfg = core.Config{Epsilon: kldEps, R: kldR, Decomp: b.w.Decomp}
	ds := b.w.Data
	b.windows, b.initial, b.vecs = nil, nil, nil
	for i := 0; i < ds.Nodes; i++ {
		win := ds.NewWindow()
		for r := 0; r < ds.FillRounds(); r++ {
			win.Push(ds.FillSample(r, b.site[i]))
		}
		b.windows = append(b.windows, win)
		b.initial = append(b.initial, linalg.Clone(win.Vector()))
		b.vecs = append(b.vecs, linalg.Clone(win.Vector()))
	}
}

func (b *kldWan) params() map[string]any {
	return map[string]any{
		"function": b.w.F.Name, "nodes": kldNodes, "dim": b.w.F.Dim(), "epsilon": kldEps,
		"r": kldR, "method": "ADCD-X", "eig_backend": "lbfgs", "wire": "v1 unbatched",
		"one_way_delay_ms": kldDelay.Seconds() * 1e3, "dataset": b.w.Data.Name,
		"segment_rounds": kldSegmentRounds, "segments": b.seg + 1, "city_pool": kldPool,
		"error_bound": fmt.Sprintf("%g*eps", float64(kldTol)),
	}
}

func (b *kldWan) start(rec *spanRec) error {
	cl, err := startTCP(b.w.F, b.cfg, transport.Options{}, b.initial, kldDelay, rec != nil)
	if err != nil {
		return err
	}
	b.cl, b.rec = cl, rec
	return nil
}

func (b *kldWan) stop() { b.cl.close() }

func (b *kldWan) begin() {
	b.st = tcpState{}
	b.st.attach(b.cl)
}

func (b *kldWan) checker() *checker { return b.ck }

func (b *kldWan) step(upd int64) (bool, bool, error) {
	local := upd % (kldSegmentRounds * kldNodes)
	r, i := int(local/kldNodes), int(local%kldNodes)
	s := b.w.Data.Sample(r, b.site[i])
	if s == nil {
		return false, false, nil
	}
	b.windows[i].Push(s)
	x := b.windows[i].Vector()
	copy(b.vecs[i], x)
	sampled := b.rec.sampled(upd)
	t0 := time.Now()
	violated, err := b.cl.update(i, b.cl.nodes[i].Update, x)
	if sampled && !violated {
		b.rec.add(spNodeUpdate, -1, upd, t0, time.Now())
	}
	full := violated && b.st.fullSince()
	return violated, full, err
}

// checkpoint runs at the end of every segment: compare, then move on to the
// next segment's dataset and cluster.
func (b *kldWan) checkpoint(ck *checker, final bool) error {
	b.cl.quiesce()
	if err := b.cl.coord.Err(); err != nil {
		return err
	}
	ck.check(b.cl.coord.Estimate(), b.vecs)
	if final {
		return nil
	}
	return b.st.next(func() (*tcpCluster, error) {
		b.load(b.seg + 1)
		if err := b.start(b.rec); err != nil {
			return nil, fmt.Errorf("segment %d: %w", b.seg, err)
		}
		return b.cl, nil
	})
}

func (b *kldWan) totals() totals { return b.st.totals() }

func (b *kldWan) layers(p *phase, m *layerOut) error {
	return tcpLayers(&b.st, p, m, 0)
}
