package main

import (
	"time"

	"automon/internal/obs"
)

// coordIntervals are the coordinator-internal intervals of a socket
// workload, rebuilt from the coordinator's obs.Tracer events. With a single
// load goroutine, resolutions run one at a time, so the event stream is a
// sequence of resolutions, each opened by a violation event:
//
//	violation → (data-request sent → data-response received)* → lazy_sync
//	violation → (data-request sent → data-response received)* → full_sync → sync sent*
type coordIntervals struct {
	gather, distribute, build, lazy dist // ms
	lazySelf, fullSelf              dist // µs, ms
	pulls, fullSyncs                int
	// spans rebuilt from the events: one coord.resolve span per resolution
	// with its transport.pull children, for the self-time arithmetic.
	spans []span
}

// resolveKind marks a rebuilt coord.resolve span as lazy or full.
type resolveKind struct {
	idx  int
	full bool
}

// resolution accumulates one resolution's events.
type resolution struct {
	start    int64
	reqAt    int64 // pending data-request, or -1
	pulls    [][2]int64
	fullAt   int64 // full_sync event, or -1
	lastSync int64
	lazyAt   int64 // lazy_sync event, or -1
}

func analyzeEvents(events []obs.Event) *coordIntervals {
	ci := &coordIntervals{}
	var kinds []resolveKind
	var cur *resolution
	finish := func() {
		r := cur
		cur = nil
		if r == nil {
			return
		}
		var end int64
		switch {
		case r.fullAt >= 0:
			ci.fullSyncs++
			ci.pulls += len(r.pulls)
			end = r.fullAt
			if len(r.pulls) > 0 {
				last := r.pulls[len(r.pulls)-1][1]
				ci.gather.add(ms(r.pulls[0][0], last))
				ci.build.add(ms(last, r.fullAt))
			}
			if r.lastSync > r.fullAt {
				ci.distribute.add(ms(r.fullAt, r.lastSync))
				end = r.lastSync
			}
		case r.lazyAt >= 0:
			end = r.lazyAt
			ci.lazy.add(ms(r.start, r.lazyAt))
		default:
			return // resolved by nothing we can see (e.g. cut off at phase end)
		}
		parent := int32(len(ci.spans))
		kinds = append(kinds, resolveKind{idx: len(ci.spans), full: r.fullAt >= 0})
		ci.spans = append(ci.spans, span{start: r.start, end: end, parent: -1, name: spResolve})
		for _, p := range r.pulls {
			ci.spans = append(ci.spans, span{start: p[0], end: p[1], parent: parent, name: spPull})
		}
	}
	for _, e := range events {
		t := e.Unix
		switch e.Kind {
		case obs.EventViolation:
			finish()
			cur = &resolution{start: t, reqAt: -1, fullAt: -1, lazyAt: -1}
		case obs.EventFrameSent:
			if cur == nil {
				continue
			}
			switch e.Label {
			case "data-request":
				cur.reqAt = t
			case "sync":
				if cur.fullAt >= 0 {
					cur.lastSync = t
				}
			}
		case obs.EventFrameReceived:
			if cur != nil && e.Label == "data-response" && cur.reqAt >= 0 {
				cur.pulls = append(cur.pulls, [2]int64{cur.reqAt, t})
				cur.reqAt = -1
			}
		case obs.EventFullSync:
			if cur != nil {
				cur.fullAt = t
			}
		case obs.EventLazySync:
			if cur != nil {
				cur.lazyAt = t
			}
		}
	}
	finish()
	self := selfTimes(ci.spans)
	for _, k := range kinds {
		if k.full {
			ci.fullSelf.add(float64(self[k.idx]) / 1e6)
		} else {
			ci.lazySelf.add(float64(self[k.idx]) / 1e3)
		}
	}
	return ci
}

func ms(from, to int64) float64 { return float64(to-from) / float64(time.Millisecond) }
