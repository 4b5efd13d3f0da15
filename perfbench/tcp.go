package main

import (
	"fmt"
	"time"

	"automon/internal/core"
	"automon/internal/obs"
	"automon/internal/transport"
)

// tcpCluster is a flat AutoMon cluster over real loopback sockets: one
// ListenCoordinator and n DialNode clients in this process. The clients and
// their sockets are part of the system under test.
type tcpCluster struct {
	coord  *transport.Coordinator
	nodes  []*transport.NodeClient
	dialer *delayDialer // nil when the link adds no delay
	tracer *obs.Tracer  // coordinator tracer; nil when untraced
}

// tracerRing is the coordinator event ring of a traced run's cluster. A
// segment records a few thousand events; a traced run whose ring overflows
// fails rather than reporting partial numbers.
const tracerRing = 1 << 16

// startTCP brings a cluster up and returns once every node holds its first
// safe zone. delay > 0 puts every node link behind a delay line.
func startTCP(f *core.Function, cfg core.Config, opts transport.Options, initial [][]float64, delay time.Duration, traced bool) (*tcpCluster, error) {
	c := &tcpCluster{}
	copts := opts
	if traced {
		c.tracer = obs.NewTracer(tracerRing)
		copts.Tracer = c.tracer
	}
	coord, err := transport.ListenCoordinator("127.0.0.1:0", f, len(initial), cfg, copts)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	c.coord = coord
	nopts := opts
	if delay > 0 {
		c.dialer = newDelayDialer(delay)
		nopts.Dial = c.dialer.Dial
	}
	for i, x := range initial {
		nd, err := transport.DialNode(coord.Addr(), i, f, x, nopts)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial node %d: %w", i, err)
		}
		c.nodes = append(c.nodes, nd)
	}
	select {
	case <-coord.Ready():
	case <-time.After(60 * time.Second):
		c.close()
		return nil, fmt.Errorf("coordinator never became ready")
	}
	for i, nd := range c.nodes {
		if err := nd.WaitReady(60 * time.Second); err != nil {
			c.close()
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	if err := coord.Err(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, nd := range c.nodes {
		nd.Close()
	}
	c.coord.Close()
	if c.dialer != nil {
		c.dialer.Close()
	}
}

// quiesce waits until no message is in flight anywhere in the cluster (the
// oracle's rule: the total message count unchanged over three 10 ms polls).
func (c *tcpCluster) quiesce() {
	stable, last := 0, int64(-1)
	for stable < 3 {
		time.Sleep(10 * time.Millisecond)
		cur := c.coord.Stats.MessagesSent.Load() + c.coord.Stats.MessagesReceived.Load()
		for _, nd := range c.nodes {
			cur += nd.Stats.MessagesSent.Load() + nd.Stats.MessagesReceived.Load()
		}
		if cur == last {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
}

// wire snapshots the coordinator's traffic counters.
type wire struct {
	msgs, frames, payload, bytes int64
}

func (c *tcpCluster) wire() wire {
	s := &c.coord.Stats
	return wire{
		msgs:    s.MessagesSent.Load() + s.MessagesReceived.Load(),
		frames:  s.FramesSent.Load() + s.FramesReceived.Load(),
		payload: s.PayloadSent.Load() + s.PayloadReceived.Load(),
		bytes:   s.WireSent.Load() + s.WireReceived.Load(),
	}
}

// update feeds x to node i through fn (Update or UpdateElided) and reports
// whether the call sent a violation: the node's sent-message count advances
// only by its own report while the single load goroutine waits on it.
func (c *tcpCluster) update(i int, fn func([]float64) error, x []float64) (violated bool, err error) {
	before := c.nodes[i].Stats.MessagesSent.Load()
	err = fn(x)
	return c.nodes[i].Stats.MessagesSent.Load() > before, err
}

// tcpState is the per-phase bookkeeping shared by the socket workloads. A
// phase may span several clusters one after another (kld-wan runs one per
// input segment); next adds a cluster's share before it is closed.
type tcpState struct {
	cl       *tcpCluster
	w0       wire
	cs0      core.CoordStats
	lastFull int
	seq0     uint64

	acc       totals
	accStats  core.CoordStats
	accEvents []obs.Event
}

// attach starts accounting on cluster cl.
func (s *tcpState) attach(cl *tcpCluster) {
	s.cl = cl
	s.w0 = cl.wire()
	s.cs0 = cl.coord.CoordStats()
	s.lastFull = s.cs0.FullSyncs
	s.seq0 = cl.tracer.Total()
}

// next adds the current cluster's counts and events to the phase totals,
// closes it, starts the next one and accounts on it.
func (s *tcpState) next(start func() (*tcpCluster, error)) error {
	ev, err := s.events()
	if err != nil {
		return err
	}
	s.acc, s.accStats, s.accEvents = s.totals(), s.stats(), ev
	old := s.cl
	s.cl = nil
	old.close()
	cl, err := start()
	if err != nil {
		return err
	}
	s.attach(cl)
	return nil
}

// fullSince reports whether a full sync ran since the previous call.
func (s *tcpState) fullSince() bool {
	fs := s.cl.coord.CoordStats().FullSyncs
	full := fs > s.lastFull
	s.lastFull = fs
	return full
}

// totals returns the protocol totals of the measured phase.
func (s *tcpState) totals() totals {
	t := s.acc
	if s.cl == nil {
		return t
	}
	w := s.cl.wire()
	cs := s.cl.coord.CoordStats()
	t.messages += w.msgs - s.w0.msgs
	t.wireBytes += w.bytes - s.w0.bytes
	t.frames += w.frames - s.w0.frames
	t.payload += w.payload - s.w0.payload
	t.fullSyncs += int64(cs.FullSyncs - s.cs0.FullSyncs)
	return t
}

// stats returns the protocol counters of the measured phase.
func (s *tcpState) stats() core.CoordStats {
	if s.cl == nil {
		return s.accStats
	}
	return addStats(s.accStats, subStats(s.cl.coord.CoordStats(), s.cs0))
}

// subStats returns a − b for the counters the benchmark reads.
func subStats(a, b core.CoordStats) core.CoordStats {
	return addStats(a, core.CoordStats{
		FullSyncs: -b.FullSyncs, LazyResolved: -b.LazyResolved,
		NeighborhoodViolations: -b.NeighborhoodViolations, SafeZoneViolations: -b.SafeZoneViolations,
		FaultyViolations: -b.FaultyViolations, Eigensolves: -b.Eigensolves,
		EigBoundBuildsLBFGS: -b.EigBoundBuildsLBFGS, EigBoundBuildsInterval: -b.EigBoundBuildsInterval,
		EigBoundBuildsHybrid: -b.EigBoundBuildsHybrid, OptEvals: -b.OptEvals,
	})
}

// addStats returns a + b for the counters the benchmark reads.
func addStats(a, b core.CoordStats) core.CoordStats {
	return core.CoordStats{
		FullSyncs:              a.FullSyncs + b.FullSyncs,
		LazyResolved:           a.LazyResolved + b.LazyResolved,
		NeighborhoodViolations: a.NeighborhoodViolations + b.NeighborhoodViolations,
		SafeZoneViolations:     a.SafeZoneViolations + b.SafeZoneViolations,
		FaultyViolations:       a.FaultyViolations + b.FaultyViolations,
		Eigensolves:            a.Eigensolves + b.Eigensolves,
		EigBoundBuildsLBFGS:    a.EigBoundBuildsLBFGS + b.EigBoundBuildsLBFGS,
		EigBoundBuildsInterval: a.EigBoundBuildsInterval + b.EigBoundBuildsInterval,
		EigBoundBuildsHybrid:   a.EigBoundBuildsHybrid + b.EigBoundBuildsHybrid,
		OptEvals:               a.OptEvals + b.OptEvals,
	}
}

// events returns the coordinator tracer events of the measured phase, or an
// error when a tracer ring overflowed and some were lost.
func (s *tcpState) events() ([]obs.Event, error) {
	out := append([]obs.Event(nil), s.accEvents...)
	if s.cl == nil || s.cl.tracer == nil {
		return out, nil
	}
	t := s.cl.tracer
	if t.Total() > uint64(t.Size()) {
		return nil, fmt.Errorf("coordinator tracer overflowed: %d events recorded, ring holds %d", t.Total(), t.Size())
	}
	for _, e := range t.Snapshot() {
		if e.Seq >= s.seq0 {
			out = append(out, e)
		}
	}
	return out, nil
}
