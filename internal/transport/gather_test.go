package transport

import (
	"math"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"automon/internal/core"
	"automon/internal/funcs"
	"automon/internal/linalg"
	"automon/internal/obs"
)

// testLink is a node's end of its connection: every write waits delay
// before it leaves, and while muted is set every write is swallowed as if
// it had been sent, so the coordinator never hears from the node.
type testLink struct {
	net.Conn
	delay time.Duration
	muted *atomic.Bool
}

func (l *testLink) Write(p []byte) (int, error) {
	if l.muted.Load() {
		return len(p), nil
	}
	time.Sleep(l.delay)
	return l.Conn.Write(p)
}

// linkDial returns an Options.Dial that wraps each connection in a testLink.
func linkDial(delay time.Duration, muted *atomic.Bool) func(string, string, time.Duration) (net.Conn, error) {
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return &testLink{Conn: conn, delay: delay, muted: muted}, nil
	}
}

// gatherCluster starts n inner-product nodes at the same initial vector with
// lazy sync disabled, so a safe-zone violation goes straight to a full sync.
// Only the coordinator records into tracer; node i dials through nodeOpts(i).
func gatherCluster(t *testing.T, n int, tracer *obs.Tracer, requestTimeout time.Duration, nodeOpts func(i int) Options) (*Coordinator, []*NodeClient) {
	t.Helper()
	f := funcs.InnerProduct(2)
	cfg := core.Config{Epsilon: 0.2, DisableLazySync: true}
	coord, err := ListenCoordinator("127.0.0.1:0", f, n, cfg, Options{Tracer: tracer, RequestTimeout: requestTimeout})
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*NodeClient, n)
	for i := range nodes {
		nodes[i], err = DialNode(coord.Addr(), i, f, []float64{0.5, 0.5, 1, 1}, nodeOpts(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-coord.Ready():
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never became ready")
	}
	for _, nd := range nodes {
		if err := nd.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return coord, nodes
}

// syncEvents returns the coordinator events recorded since seq, up to and
// including the first full sync among them.
func syncEvents(t *testing.T, tracer *obs.Tracer, seq uint64) []obs.Event {
	t.Helper()
	var out []obs.Event
	for _, e := range tracer.Snapshot() {
		if e.Seq < seq {
			continue
		}
		out = append(out, e)
		if e.Kind == obs.EventFullSync {
			return out
		}
	}
	t.Fatal("no full sync recorded")
	return nil
}

// TestFullSyncGatherIsOneRound puts every node behind a 15 ms delay on its
// replies and forces a full sync from one violator. All of the sync's data
// requests must leave before the first response arrives, and there must be
// exactly one per live node that is not already fresh.
func TestFullSyncGatherIsOneRound(t *testing.T) {
	const n = 6
	tracer := obs.NewTracer(4096)
	var never atomic.Bool
	coord, nodes := gatherCluster(t, n, tracer, 0, func(int) Options {
		return Options{Dial: linkDial(15*time.Millisecond, &never)}
	})
	defer closeCluster(coord, nodes)

	seq := tracer.Total()
	if err := nodes[0].Update([]float64{3, 3, 1, 1}); err != nil {
		t.Fatal(err)
	}
	var requests, responses, lastRequest, firstResponse int
	firstResponse = -1
	for k, e := range syncEvents(t, tracer, seq) {
		switch {
		case e.Kind == obs.EventFrameSent && e.Label == "data-request":
			requests++
			lastRequest = k
		case e.Kind == obs.EventFrameReceived && e.Label == "data-response":
			responses++
			if firstResponse < 0 {
				firstResponse = k
			}
		}
	}
	// The violator's vector came with its report: n-1 live, non-fresh nodes.
	if requests != n-1 || responses != n-1 {
		t.Fatalf("gather sent %d requests and got %d responses, want %d each", requests, responses, n-1)
	}
	if lastRequest > firstResponse {
		t.Fatalf("gather is not one round: last request at event %d, first response at event %d", lastRequest, firstResponse)
	}
}

// TestGatherLosesTwoNodesInOneDeadline mutes two nodes' links and forces a
// full sync. Both nodes must miss the same deadline, so the gather ends after
// one RequestTimeout, not two. Exactly two deadline hits and two deaths, in
// ascending id order, follow, and the estimate degrades to f over the live
// average.
func TestGatherLosesTwoNodesInOneDeadline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	const n, timeout = 6, 400 * time.Millisecond
	tracer := obs.NewTracer(4096)
	muted := make([]atomic.Bool, n)
	coord, nodes := gatherCluster(t, n, tracer, timeout, func(i int) Options {
		// A recycled node stays down, so nothing heals the estimate.
		return Options{Dial: linkDial(0, &muted[i]), MaxReconnectAttempts: -1}
	})

	muted[2].Store(true)
	muted[4].Store(true)
	seq := tracer.Total()
	spike := []float64{3, 3, 1, 1}
	start := time.Now()
	if err := nodes[0].Update(spike); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed >= 3*timeout/2 {
		t.Fatalf("resolution took %v, want one request timeout (%v)", elapsed, timeout)
	}
	if hits := coord.deadlineHits.Load(); hits != 2 {
		t.Fatalf("%d deadline hits, want 2", hits)
	}
	var hit, died []int
	for _, e := range syncEvents(t, tracer, seq) {
		switch e.Kind {
		case obs.EventDeadlineHit:
			hit = append(hit, e.Node)
		case obs.EventNodeDeath:
			died = append(died, e.Node)
		}
	}
	if want := []int{2, 4}; !slices.Equal(hit, want) || !slices.Equal(died, want) {
		t.Fatalf("deadline hits %v and deaths %v, want both %v", hit, died, want)
	}
	if coord.LiveNodes() != n-2 || !coord.Degraded() {
		t.Fatalf("live nodes %d (degraded %v), want %d", coord.LiveNodes(), coord.Degraded(), n-2)
	}
	rest := []float64{0.5, 0.5, 1, 1}
	mean := make([]float64, len(spike))
	linalg.Mean(mean, spike, rest, rest, rest)
	if got, want := coord.Estimate(), funcs.InnerProduct(2).Value(mean); math.Abs(got-want) > 1e-9 {
		t.Fatalf("estimate %v, want f(live average) = %v", got, want)
	}
	closeCluster(coord, nodes)
	checkNoGoroutineLeak(t, baseline)
}
