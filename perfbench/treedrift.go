package main

import (
	"fmt"
	"math"
	"math/rand"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/obs"
	"automon/internal/shard"
	"automon/internal/stream"
)

// tree-drift: a large in-process shard tree. shard.NewTree in absorb mode
// holds 4096 nodes in 64 leaves at fan-out 8 (three tiers) and monitors
// Rosenbrock with ADCD-X (L-BFGS, r = 0.5) and ε = 0.2. Each node's vector
// is the mean of its last 20 samples; a sample is a periodic mean drift
// (amplitude 0.05, period 100 rounds) plus N(0, 0.1²) noise per coordinate.
// The benchmark calls Node.UpdateData and Tree.HandleViolation directly; every
// protocol message goes through the codec in the benchmark's NodeComm.
const (
	treeNodes          = 4096
	treeLeaves         = 64
	treeFanout         = 8
	treeEps            = 0.2
	treeR              = 0.5
	treeWindow         = 20
	treeNoise          = 0.1
	treeDriftAmp       = 0.05
	treeDriftPeriod    = 100
	treeRoundsPerBlock = 10 // rounds of samples generated per checkpoint
	treeTol            = 3  // non-convex ADCD-X: the oracle's 3ε bound

	// Traced-run sampling. A full sync records about three spans per node,
	// so resolutions are sampled apart from the cheap node.update spans
	// (workloadDef.sampleEvery), and inside a sampled resolution only one
	// message in treeCodecEvery records its codec and apply spans. Both are
	// odd, so requests and responses are sampled alike.
	treeViolEvery  = 3
	treeCodecEvery = 13
)

type treeDrift struct {
	seed  int64
	f     *core.Function
	rng   *rand.Rand
	block [][2]float64 // samples of the current block, [round*treeNodes+node]
	blk   int64        // index of the current block

	windows []*stream.AvgWindow
	initial [][]float64
	vecs    [][]float64
	ck      *checker

	reg                *obs.Registry
	tree               *shard.Tree
	comm               *codecComm
	rec                *spanRec
	c                  treeCounters
	c0                 treeCounterValues
	cs0                core.CoordStats
	violations         int64 // violations of the phase, for sampling
	hvMallocs, hvCalls uint64
	lazyUpd            map[int64]bool // traced: sampled updates resolved without a full sync
}

// treeCounters are the registry instruments the benchmark reads.
type treeCounters struct {
	fullSyncs, absorbed, escalated, partials *obs.Counter
	rejected                                 []*obs.Counter
}

type treeCounterValues struct {
	fullSyncs, absorbed, escalated, partials, rejected, messages, bytes int64
}

func newTreeDrift(seed int64) (bench, error) {
	b := &treeDrift{seed: seed, f: funcs.Rosenbrock(), rng: rand.New(rand.NewSource(seed))}
	b.ck = newChecker(b.f, treeEps, treeTol)
	// Fill every window with treeWindow samples from rounds -treeWindow..-1.
	fill := b.samples(-treeWindow, treeWindow)
	for i := 0; i < treeNodes; i++ {
		w := stream.NewAvgWindow(treeWindow, 2)
		for r := 0; r < treeWindow; r++ {
			s := fill[r*treeNodes+i]
			w.Push(s[:])
		}
		b.windows = append(b.windows, w)
		b.initial = append(b.initial, append([]float64(nil), w.Vector()...))
		b.vecs = append(b.vecs, w.Vector())
	}
	b.block = b.samples(0, treeRoundsPerBlock)
	return b, nil
}

// samples draws rounds [from, from+n) for every node, in round-major order
// from the workload's single generator.
func (b *treeDrift) samples(from, n int) [][2]float64 {
	out := make([][2]float64, n*treeNodes)
	for r := 0; r < n; r++ {
		m := treeDriftAmp * math.Sin(2*math.Pi*float64(from+r)/treeDriftPeriod)
		for i := 0; i < treeNodes; i++ {
			out[r*treeNodes+i] = [2]float64{m + treeNoise*b.rng.NormFloat64(), m + treeNoise*b.rng.NormFloat64()}
		}
	}
	return out
}

func (b *treeDrift) params() map[string]any {
	return map[string]any{
		"function": b.f.Name, "nodes": treeNodes, "leaves": treeLeaves, "fanout": treeFanout,
		"tiers": b.tree.Depth(), "mode": "absorb", "epsilon": treeEps, "r": treeR,
		"method": "ADCD-X", "eig_backend": "lbfgs", "window": treeWindow, "noise_sd": treeNoise,
		"drift_amplitude": treeDriftAmp, "drift_period_rounds": treeDriftPeriod,
		"error_bound": fmt.Sprintf("%g*eps", float64(treeTol)),
	}
}

func (b *treeDrift) start(rec *spanRec) error {
	b.reg = obs.NewRegistry()
	cfg := core.Config{
		Epsilon: treeEps, R: treeR,
		Decomp:  core.DecompOptions{Seed: b.seed},
		Metrics: b.reg,
	}
	nodes := make([]*core.Node, treeNodes)
	for i := range nodes {
		nodes[i] = core.NewNode(i, b.f)
		nodes[i].SetData(b.initial[i])
	}
	b.comm = &codecComm{nodes: nodes, rec: rec, parent: -1}
	tree, err := shard.NewTree(b.f, treeNodes, cfg, b.comm, shard.Options{Shards: treeLeaves, Fanout: treeFanout, Mode: shard.ModeAbsorb})
	if err != nil {
		return err
	}
	if err := tree.Init(); err != nil {
		return err
	}
	for i, nd := range nodes {
		if nd.Zone() == nil {
			return fmt.Errorf("node %d holds no zone after Init", i)
		}
	}
	b.tree, b.rec = tree, rec
	const rej = "automon_shard_partials_rejected_total"
	b.c = treeCounters{
		fullSyncs: b.reg.Counter("automon_coordinator_full_syncs_total", ""),
		absorbed:  b.reg.Counter("automon_shard_absorbed_violations_total", ""),
		escalated: b.reg.Counter("automon_shard_escalated_violations_total", ""),
		partials:  b.reg.Counter("automon_shard_partials_total", ""),
		rejected: []*obs.Counter{
			b.reg.Counter(rej+`{reason="corrupt"}`, ""),
			b.reg.Counter(rej+`{reason="stale_epoch"}`, ""),
			b.reg.Counter(rej+`{reason="weight"}`, ""),
		},
	}
	if rec != nil {
		b.lazyUpd = map[int64]bool{}
	}
	return nil
}

func (b *treeDrift) stop() {}

func (b *treeDrift) values() treeCounterValues {
	v := treeCounterValues{
		fullSyncs: b.c.fullSyncs.Load(), absorbed: b.c.absorbed.Load(),
		escalated: b.c.escalated.Load(), partials: b.c.partials.Load(),
		messages: b.comm.msgs, bytes: b.comm.bytes,
	}
	for _, c := range b.c.rejected {
		v.rejected += c.Load()
	}
	return v
}

func (b *treeDrift) begin() {
	b.violations = 0
	b.c0 = b.values()
	b.cs0 = b.tree.Stats()
}

func (b *treeDrift) checker() *checker { return b.ck }

func (b *treeDrift) step(upd int64) (bool, bool, error) {
	r, i := upd/treeNodes, int(upd%treeNodes)
	s := b.block[(r-b.blk*treeRoundsPerBlock)*treeNodes+int64(i)]
	b.windows[i].Push(s[:])
	x := b.windows[i].Vector()
	sampled := b.rec.sampled(upd)
	var v *core.Violation
	if sampled {
		sp := b.rec.begin(spNodeUpdate, -1, upd)
		v = b.comm.nodes[i].UpdateData(x)
		b.rec.end(sp)
	} else {
		v = b.comm.nodes[i].UpdateData(x)
	}
	if v == nil {
		return false, false, nil
	}
	c := b.comm
	sampled = b.rec.sample(b.violations, treeViolEvery)
	b.violations++
	c.upd, c.on, c.parent = upd, sampled, -1
	vm := c.roundTrip(v).(*core.Violation)
	fs0 := b.c.fullSyncs.Load()
	var err error
	if !sampled {
		err = b.tree.HandleViolation(vm)
	} else {
		c.parent = b.rec.begin(spTreeHV, -1, upd)
		m0 := mallocs()
		err = b.tree.HandleViolation(vm)
		b.hvMallocs += mallocs() - m0
		b.hvCalls++
		b.rec.end(c.parent)
	}
	c.on = false
	full := b.c.fullSyncs.Load() > fs0
	if sampled && !full {
		b.lazyUpd[upd] = true
	}
	return true, full, err
}

// checkpoint compares the estimate with the exact value (the tree is
// quiescent between calls), requires every shard partial to have been
// accepted, and generates the next block of samples.
func (b *treeDrift) checkpoint(ck *checker, final bool) error {
	ok := ck.check(b.tree.Estimate(), b.vecs)
	if rej := b.values().rejected; rej > 0 && ok {
		ck.failLast(fmt.Sprintf("%d shard partials rejected", rej))
	}
	if final {
		return nil
	}
	b.blk++
	b.block = b.samples(int(b.blk*treeRoundsPerBlock), treeRoundsPerBlock)
	return nil
}

func (b *treeDrift) totals() totals {
	v := b.values()
	return totals{
		messages:  v.messages - b.c0.messages,
		wireBytes: v.bytes - b.c0.bytes,
		fullSyncs: v.fullSyncs - b.c0.fullSyncs,
	}
}

func (b *treeDrift) layers(p *phase, m *layerOut) error {
	v := b.values()
	u := float64(p.updates)
	sp := p.rec.spans
	self := selfTimes(sp)
	var lazySelf, fullSelf, lazyDur, gather, build, distribute dist
	var pulls, fulls int
	for idx, s := range sp {
		if s.name != spTreeHV {
			continue
		}
		if b.lazyUpd[s.update] {
			lazySelf.add(float64(self[idx]) / 1e3)
			lazyDur.add(float64(s.end-s.start) / 1e6)
			continue
		}
		fulls++
		fullSelf.add(float64(self[idx]) / 1e6)
		// Gather, build and distribute from the children of this call.
		firstPull, lastPull, firstSync, lastSync := int64(-1), int64(-1), int64(-1), int64(-1)
		for j := idx + 1; j < len(sp) && sp[j].update == s.update; j++ {
			c := sp[j]
			if c.parent != int32(idx) {
				continue
			}
			switch c.name {
			case spCommPull:
				pulls++
				if firstPull < 0 {
					firstPull = c.start
				}
				lastPull = c.end
			case spCommSync:
				if firstSync < 0 {
					firstSync = c.start
				}
				lastSync = c.end
			}
		}
		if firstPull >= 0 && firstSync >= 0 {
			gather.add(ms(firstPull, lastPull))
			build.add(ms(lastPull, firstSync))
			distribute.add(ms(firstSync, lastSync))
		}
	}
	m.p50("transport.gather_ms_p50", &gather, 1)
	m.set("transport.pulls_per_full_sync", float64(pulls)/float64(fulls))
	m.p50("transport.distribute_ms_p50", &distribute, 1)
	m.p50("transport.lazy_ms_p50", &lazyDur, 1)

	upd := spanDist(sp, spNodeUpdate)
	m.p50("node.update_ns_p50", &upd, 1)
	m.set("node.elided_frac", 0)
	m.set("node.exact_checks_per_kupdate", 1000)
	m.set("node.violations_per_kupdate", 1000*float64(p.violations)/u)
	as := spanDist(sp, spApplySync)
	m.p50("node.apply_sync_us_p50", &as, 1e-3)

	m.p50("coord.lazy_self_us_p50", &lazySelf, 1)
	m.p50("coord.full_self_ms_p50", &fullSelf, 1)
	m.set("coord.hv_allocs_per_call", float64(b.hvMallocs)/float64(b.hvCalls))
	m.p50("coord.build_ms_p50", &build, 1)
	absorbed, escalated := v.absorbed-b.c0.absorbed, v.escalated-b.c0.escalated
	m.set("coord.lazy_resolved_frac", float64(absorbed)/float64(absorbed+escalated))
	fullSyncs := v.fullSyncs - b.c0.fullSyncs
	m.set("coord.full_syncs_per_kupdate", 1000*float64(fullSyncs)/u)
	setPerBuild(m, subStats(b.tree.Stats(), b.cs0))

	m.set("shard.absorbed_frac", float64(absorbed)/float64(absorbed+escalated))
	m.set("shard.partials_per_full_sync", float64(v.partials-b.c0.partials)/float64(fullSyncs))
	m.set("shard.partials_rejected", float64(v.rejected))

	enc := spanDist(sp, spEncode)
	dec := spanDist(sp, spDecode)
	m.p50("codec.encode_ns_p50", &enc, 1)
	m.p50("codec.decode_ns_p50", &dec, 1)
	m.set("codec.bytes_per_msg", float64(v.bytes-b.c0.bytes)/float64(v.messages-b.c0.messages))
	return nil
}

// codecComm is the benchmark's core.NodeComm for the in-process tree: every
// message is encoded, decoded and delivered to the target core.Node, so the
// codec runs exactly as on a wire. In a traced run it records spans for the
// update being resolved.
type codecComm struct {
	nodes []*core.Node
	rec   *spanRec
	// upd and parent identify the update being resolved and its
	// tree.handle_violation span; on is set while that update is sampled.
	upd     int64
	parent  int32
	on      bool
	codecOn bool

	msgs, bytes int64
}

// roundTrip encodes m, counts it, and returns its decoding. It sets
// codecOn when this message records its codec spans.
func (c *codecComm) roundTrip(m core.Message) core.Message {
	c.codecOn = c.on && c.msgs%treeCodecEvery == 0
	var buf []byte
	if c.codecOn {
		s := c.rec.begin(spEncode, c.parent, c.upd)
		buf = m.Encode()
		c.rec.end(s)
	} else {
		buf = m.Encode()
	}
	c.msgs++
	c.bytes += int64(len(buf))
	var out core.Message
	var err error
	if c.codecOn {
		s := c.rec.begin(spDecode, c.parent, c.upd)
		out, err = core.Decode(buf)
		c.rec.end(s)
	} else {
		out, err = core.Decode(buf)
	}
	if err != nil {
		// The codec must round-trip every message the protocol produces.
		panic(fmt.Sprintf("codec round trip of %s: %v", m.Type(), err))
	}
	return out
}

// child opens a span under the current parent and makes it the parent of
// the spans recorded until done is called with its result.
func (c *codecComm) child(name uint8) (prev, idx int32) {
	prev = c.parent
	if c.on {
		idx = c.rec.begin(name, c.parent, c.upd)
		c.parent = idx
	}
	return prev, idx
}

func (c *codecComm) done(prev, idx int32) {
	if c.on {
		c.rec.end(idx)
		c.parent = prev
	}
}

func (c *codecComm) RequestData(id int) []float64 {
	prev, idx := c.child(spCommPull)
	req := c.roundTrip(&core.DataRequest{NodeID: id}).(*core.DataRequest)
	x := c.nodes[req.NodeID].LocalVector()
	resp := c.roundTrip(&core.DataResponse{NodeID: id, X: x}).(*core.DataResponse)
	c.done(prev, idx)
	return resp.X
}

func (c *codecComm) SendSync(id int, m *core.Sync) {
	prev, idx := c.child(spCommSync)
	s := c.roundTrip(m).(*core.Sync)
	if c.codecOn {
		sp := c.rec.begin(spApplySync, c.parent, c.upd)
		c.nodes[s.NodeID].ApplySync(s)
		c.rec.end(sp)
	} else {
		c.nodes[s.NodeID].ApplySync(s)
	}
	c.done(prev, idx)
}

func (c *codecComm) SendSlack(id int, m *core.Slack) {
	prev, idx := c.child(spCommSlack)
	s := c.roundTrip(m).(*core.Slack)
	if c.codecOn {
		sp := c.rec.begin(spApplySlack, c.parent, c.upd)
		c.nodes[s.NodeID].ApplySlack(s)
		c.rec.end(sp)
	} else {
		c.nodes[s.NodeID].ApplySlack(s)
	}
	c.done(prev, idx)
}
