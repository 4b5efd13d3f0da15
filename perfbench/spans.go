package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names. A span is recorded by the benchmark around one call it makes
// into a layer of the program; children are calls made while the parent ran.
const (
	spNodeUpdate  uint8 = iota // Node.UpdateData / NodeClient.Update / UpdateElided
	spSketchApply              // AMSSource.Apply
	spSketchVec                // AMSSource.VectorInto
	spTreeHV                   // Tree.HandleViolation
	spCommPull                 // NodeComm.RequestData (request + response)
	spCommSync                 // NodeComm.SendSync
	spCommSlack                // NodeComm.SendSlack
	spEncode                   // Message.Encode
	spDecode                   // core.Decode
	spApplySync                // Node.ApplySync
	spApplySlack               // Node.ApplySlack
	spResolve                  // coordinator resolution rebuilt from tracer events
	spPull                     // data-request sent → data-response received
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"node.update", "sketch.apply", "sketch.vector", "tree.handle_violation",
	"comm.pull", "comm.sync", "comm.slack", "codec.encode", "codec.decode",
	"node.apply_sync", "node.apply_slack", "coord.resolve", "transport.pull",
}

// span is one recorded interval. Times are nanoseconds since the recorder's
// base; parent is the index of the enclosing span or -1.
type span struct {
	start, end int64
	update     int64
	parent     int32
	name       uint8
}

// spanRec keeps spans in memory for one traced run. A nil *spanRec records
// nothing, so the untraced path pays one nil check per call site. Sampling
// is by unit of work: one update (or violation) in every records all of its
// spans, until the buffer is within reserve of its capacity, so no sampled
// unit is cut short.
type spanRec struct {
	base    time.Time
	spans   []span
	every   int64
	limit   int
	skipped int64 // sampled units not recorded because the buffer was full
}

// spanReserve is the room a sampled unit may need: a full sync over the
// 4096-node tree records about three spans per node.
const spanReserve = 64 << 10

func newSpanRec(every int64, capacity int) *spanRec {
	if every < 1 {
		every = 1
	}
	return &spanRec{base: time.Now(), every: every, limit: capacity, spans: make([]span, 0, capacity)}
}

// sampled reports whether update upd records its spans.
func (r *spanRec) sampled(upd int64) bool {
	if r == nil {
		return false
	}
	return r.sample(upd, r.every)
}

// sample reports whether the n-th unit of some kind of work (an update, a
// violation) records its spans, at one unit in every.
func (r *spanRec) sample(n, every int64) bool {
	if r == nil || n%every != 0 {
		return false
	}
	if len(r.spans)+spanReserve > r.limit {
		r.skipped++
		return false
	}
	return true
}

func (r *spanRec) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its index.
func (r *spanRec) begin(name uint8, parent int32, upd int64) int32 {
	r.spans = append(r.spans, span{start: r.now(), end: -1, update: upd, parent: parent, name: name})
	return int32(len(r.spans) - 1)
}

func (r *spanRec) end(i int32) { r.spans[i].end = r.now() }

// add records a span whose times were measured elsewhere (absolute times).
func (r *spanRec) add(name uint8, parent int32, upd int64, start, end time.Time) {
	r.spans = append(r.spans, span{start: int64(start.Sub(r.base)), end: int64(end.Sub(r.base)), update: upd, parent: parent, name: name})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(s.start, s.end, children[i])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// spanDist collects the durations (ns) of the spans named name.
func spanDist(spans []span, name uint8) dist {
	var d dist
	for _, s := range spans {
		if s.name == name {
			d.add(float64(s.end - s.start))
		}
	}
	return d
}

// writeSpans writes the spans as gzip-compressed CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "index,name,parent,update,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.parent, s.update, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
