package main

import "automon/internal/core"

// tcpLayers fills the per-layer metrics of a socket workload from its
// traced phase: coordinator intervals rebuilt from tracer events, traffic
// counters, protocol counters and the benchmark's node.update spans. elided
// is the number of updates whose exact check the elision budget skipped.
func tcpLayers(st *tcpState, p *phase, m *layerOut, elided int64) error {
	events, err := st.events()
	if err != nil {
		return err
	}
	ci := analyzeEvents(events)
	tot := st.totals()
	d := st.stats()
	u := float64(p.updates)

	m.p50("transport.gather_ms_p50", &ci.gather, 1)
	m.set("transport.pulls_per_full_sync", float64(ci.pulls)/float64(ci.fullSyncs))
	m.p50("transport.distribute_ms_p50", &ci.distribute, 1)
	m.p50("transport.lazy_ms_p50", &ci.lazy, 1)
	m.set("transport.frames_per_msg", float64(tot.frames)/float64(tot.messages))
	m.set("transport.wire_overhead_frac", float64(tot.wireBytes-tot.payload)/float64(tot.wireBytes))

	upd := spanDist(p.rec.spans, spNodeUpdate)
	m.p50("node.update_ns_p50", &upd, 1)
	m.set("node.elided_frac", float64(elided)/u)
	m.set("node.exact_checks_per_kupdate", 1000*float64(p.updates-elided)/u)
	m.set("node.violations_per_kupdate", 1000*float64(p.violations)/u)

	m.p50("coord.lazy_self_us_p50", &ci.lazySelf, 1)
	m.p50("coord.full_self_ms_p50", &ci.fullSelf, 1)
	m.p50("coord.build_ms_p50", &ci.build, 1)
	handled := d.SafeZoneViolations + d.NeighborhoodViolations + d.FaultyViolations
	m.set("coord.lazy_resolved_frac", float64(d.LazyResolved)/float64(handled))
	m.set("coord.full_syncs_per_kupdate", 1000*float64(d.FullSyncs)/u)
	setPerBuild(m, d)
	return nil
}

// setPerBuild reports the eigen-engine work per fresh ADCD-X zone build,
// when there were any.
func setPerBuild(m *layerOut, d core.CoordStats) {
	if builds := d.EigBoundBuildsLBFGS + d.EigBoundBuildsInterval + d.EigBoundBuildsHybrid; builds > 0 {
		m.set("coord.eigensolves_per_build", float64(d.Eigensolves)/float64(builds))
		m.set("coord.opt_evals_per_build", float64(d.OptEvals)/float64(builds))
	}
}
