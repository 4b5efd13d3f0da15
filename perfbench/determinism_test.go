package main

import "testing"

// driveTree runs a shortened tree-drift for the given rounds and returns
// its protocol counters.
func driveTree(t *testing.T, seed int64, rounds int) treeCounterValues {
	t.Helper()
	bb, err := newTreeDrift(seed)
	if err != nil {
		t.Fatal(err)
	}
	b := bb.(*treeDrift)
	if err := b.start(nil); err != nil {
		t.Fatal(err)
	}
	b.begin()
	per := int64(treeRoundsPerBlock * treeNodes)
	for upd := int64(0); upd < int64(rounds*treeNodes); upd++ {
		if _, _, err := b.step(upd); err != nil {
			t.Fatal(err)
		}
		if (upd+1)%per == 0 {
			if err := b.checkpoint(b.ck, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.ck.bad > 0 {
		t.Fatalf("correctness gate failed: %s", b.ck.first)
	}
	v := b.values()
	v.fullSyncs -= b.c0.fullSyncs
	v.messages -= b.c0.messages
	v.bytes -= b.c0.bytes
	return v
}

// TestTreeDriftDeterministic runs a shortened tree-drift twice with one
// seed and requires identical protocol counters, and checks that another
// seed changes the inputs.
func TestTreeDriftDeterministic(t *testing.T) {
	rounds := 40
	if testing.Short() {
		rounds = 20
	}
	a := driveTree(t, 7, rounds)
	b := driveTree(t, 7, rounds)
	if a != b {
		t.Fatalf("same seed, different counters:\n%+v\n%+v", a, b)
	}
	if a.fullSyncs == 0 || a.absorbed == 0 {
		t.Fatalf("the run exercised too little of the protocol: %+v", a)
	}
	t.Logf("counters: %+v", a)

	x, err := newTreeDrift(7)
	if err != nil {
		t.Fatal(err)
	}
	y, err := newTreeDrift(8)
	if err != nil {
		t.Fatal(err)
	}
	xi, yi := x.(*treeDrift).initial, y.(*treeDrift).initial
	same := true
	for i := range xi {
		if xi[i][0] != yi[i][0] || xi[i][1] != yi[i][1] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("a second seed did not change the inputs")
	}
}
