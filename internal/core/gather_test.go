package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"automon/internal/linalg"
	"automon/internal/testenv"
)

// logComm is an in-memory NodeComm that logs every coordinator message in
// order and can fail nodes: a pull from a failed node marks it dead and
// returns nil, and messages to it are swallowed. fresh tracks the nodes the
// current resolution already holds fresh vectors for (the trigger, plus every
// node pulled one at a time since).
type logComm struct {
	nodes  []*Node
	failed map[int]bool
	coord  *Coordinator
	log    []string
	fresh  map[int]bool
}

// begin starts a resolution whose trigger carried fresh vectors for ids.
func (c *logComm) begin(ids ...int) {
	c.fresh = map[int]bool{}
	for _, id := range ids {
		c.fresh[id] = true
	}
}

func (c *logComm) pull(id int) []float64 {
	c.log = append(c.log, fmt.Sprintf("request %d", id))
	if c.failed[id] {
		c.coord.MarkDead(id)
		return nil
	}
	return c.nodes[id].LocalVector()
}

func (c *logComm) RequestData(id int) []float64 {
	c.fresh[id] = true
	return c.pull(id)
}

func (c *logComm) SendSync(id int, m *Sync) {
	c.log = append(c.log, fmt.Sprintf("sync %d", id))
	if !c.failed[id] {
		c.nodes[id].ApplySync(m)
	}
}

func (c *logComm) SendSlack(id int, m *Slack) {
	c.log = append(c.log, fmt.Sprintf("slack %d", id))
	if !c.failed[id] {
		c.nodes[id].ApplySlack(m)
	}
}

// gatherLogComm adds the one-round gather to logComm and checks every call
// against the machine: the ids must be exactly the live nodes the resolution
// does not already hold fresh, in ascending order.
type gatherLogComm struct {
	*logComm
	t       *testing.T
	gathers int
}

func (c *gatherLogComm) RequestDataAll(ids []int, out [][]float64) {
	c.gathers++
	var want []int
	for i := range c.nodes {
		if c.coord.Live(i) && !c.fresh[i] {
			want = append(want, i)
		}
	}
	if !slices.Equal(ids, want) {
		c.t.Errorf("gather %d asked for %v, want the live non-fresh nodes %v", c.gathers, ids, want)
	}
	if len(out) != len(ids) {
		c.t.Fatalf("gather %d: %d out slots for %d ids", c.gathers, len(out), len(ids))
	}
	for k, id := range ids {
		out[k] = c.pull(id)
	}
}

// runGatherScenario drives six saddle nodes through a drift with a node
// death mid-run and a rejoin later, over comm.
func runGatherScenario(t *testing.T, comm NodeComm, lc *logComm) *Coordinator {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	f := saddleFunc()
	starts := [][]float64{{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}}
	targets := [][]float64{{1, 0}, {-1, 0}, {1, 1}, {1, -1}, {0, 1}, {0.5, -0.5}}
	data := driftData(rng, 300, starts, targets, 0.01)
	n := len(starts)
	lc.nodes = make([]*Node, n)
	for i := range lc.nodes {
		lc.nodes[i] = NewNode(i, f)
		lc.nodes[i].SetData(data[0][i])
	}
	lc.failed = map[int]bool{}
	coord := NewCoordinator(f, n, Config{Epsilon: 0.1}, comm)
	lc.coord = coord
	lc.begin()
	if err := coord.Init(); err != nil {
		t.Fatal(err)
	}
	const dead, killAt, rejoinAt = 4, 100, 200
	for r, round := range data[1:] {
		switch r {
		case killAt:
			lc.failed[dead] = true
		case rejoinAt:
			lc.failed[dead] = false
			x := lc.nodes[dead].LocalVector()
			lc.begin(dead)
			if err := coord.HandleRejoin(dead, x); err != nil {
				t.Fatal(err)
			}
		}
		for i, x := range round {
			if lc.failed[i] {
				continue
			}
			if v := lc.nodes[i].UpdateData(x); v != nil {
				lc.begin(v.NodeID)
				if err := coord.HandleViolation(v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return coord
}

// TestGatherCommOneCallPerFullSync runs the same scenario over a plain
// NodeComm and over a GatherComm. The GatherComm must see exactly one
// RequestDataAll per full sync, over the live non-fresh nodes in ascending
// order, and both fabrics must produce the same estimate, statistics and
// message sequence.
func TestGatherCommOneCallPerFullSync(t *testing.T) {
	plain := &logComm{}
	ref := runGatherScenario(t, plain, plain)

	gl := &logComm{}
	gc := &gatherLogComm{logComm: gl, t: t}
	got := runGatherScenario(t, gc, gl)

	st := got.Stats()
	if gc.gathers != st.FullSyncs {
		t.Fatalf("%d gathers for %d full syncs", gc.gathers, st.FullSyncs)
	}
	// The scenario must exercise every gather shape: after a failed lazy
	// sync (extra fresh nodes), through a death, and on a rejoin.
	if st.LazyAttempts == st.LazyResolved || st.NodeDeaths == 0 || st.Rejoins == 0 {
		t.Fatalf("scenario too tame: %+v", st)
	}
	if math.Float64bits(got.Estimate()) != math.Float64bits(ref.Estimate()) {
		t.Fatalf("estimates diverge: NodeComm %v, GatherComm %v", ref.Estimate(), got.Estimate())
	}
	if st != ref.Stats() {
		t.Fatalf("stats diverge:\nNodeComm   %+v\nGatherComm %+v", ref.Stats(), st)
	}
	if !slices.Equal(gl.log, plain.log) {
		t.Fatalf("message sequences diverge: NodeComm %d messages, GatherComm %d", len(plain.log), len(gl.log))
	}
}

// vecComm serves fixed vectors without allocating; gatherVecComm adds the
// one-round gather over the same vectors.
type vecComm struct{ xs [][]float64 }

func (c *vecComm) RequestData(id int) []float64 { return c.xs[id] }
func (c *vecComm) SendSync(int, *Sync)          {}
func (c *vecComm) SendSlack(int, *Slack)        {}

type gatherVecComm struct{ vecComm }

func (c *gatherVecComm) RequestDataAll(ids []int, out [][]float64) {
	for k, id := range ids {
		out[k] = c.xs[id]
	}
}

// TestCollectZeroAllocs pins Collect's scratch reuse: after the first full
// sync, a gather allocates nothing, over either fabric.
func TestCollectZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const n = 8
	f := saddleFunc()
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{0.1 * float64(i), -0.05 * float64(i)}
	}
	for _, tc := range []struct {
		name string
		comm NodeComm
	}{
		{"NodeComm", &vecComm{xs}},
		{"GatherComm", &gatherVecComm{vecComm{xs}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := NewCoordinator(f, n, Config{Epsilon: 0.1}, tc.comm)
			if err := coord.Init(); err != nil {
				t.Fatal(err)
			}
			fresh := map[int]bool{3: true}
			accs := make([]linalg.Acc, f.Dim())
			allocs := testing.AllocsPerRun(100, func() {
				for j := range accs {
					accs[j].Reset()
				}
				if w := coord.own.Collect(fresh, accs); w != n {
					t.Fatalf("Collect weight %d, want %d", w, n)
				}
			})
			if allocs != 0 {
				t.Fatalf("Collect allocates %.1f objects per sync, want 0", allocs)
			}
		})
	}
}
