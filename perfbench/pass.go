package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"streamelastic/internal/obs"
)

// pass is one measured run of a workload on a fresh system.
type pass struct {
	setups []float64

	// Warm-up and window observations.
	settleS                              float64
	adaptPeriods                         int
	growMs, shrinkMs, growDip, shrinkDip []float64
	unackedMax                           uint64
	finalQueues                          int // scheduler queues when the window ends

	// Measured window.
	tps, cpuPerM   float64
	cpuUtil        float64 // process CPU / (window × GOMAXPROCS)
	genLagMs       float64
	latP50, latP99 float64 // ms, over the Seqs emitted in the window
	latSamples     uint64

	attempted, failed uint64
	note              string

	layers map[string]float64 // traced passes only
}

// runPass sets the workload up setupReps times, warms the last instance,
// measures it for window, then drains and checks it. With tr set the
// system runs with the tracing wrappers and the pass computes the
// per-layer metrics.
func runPass(w workloadDef, seed int64, window time.Duration, tr *tracer, setupReps int) (*pass, error) {
	p := &pass{}
	s, setups, err := setUp(setupReps, func() (*system, error) { return w.build(seed, tr) })
	if err != nil {
		return nil, fmt.Errorf("%s: set up: %w", w.name, err)
	}
	defer s.stop()
	p.setups = setups
	if err := w.warm(s, p); err != nil {
		return nil, fmt.Errorf("%s: warm up: %w", w.name, err)
	}

	lo, d0, c0 := s.gen.emitted.Load(), s.delivered(), cpuSeconds()
	s.latency().window(lo, math.MaxUint64)
	s.gen.resetLag()
	t0, w0 := time.Now(), nowNs()
	w.drive(s, p, window)
	el := time.Since(t0).Seconds()
	hi, d1, c1, w1 := s.gen.emitted.Load(), s.delivered(), cpuSeconds(), nowNs()
	s.latency().window(lo, hi)
	if s.eng != nil {
		p.finalQueues = s.eng.Queues()
	}
	p.genLagMs = float64(s.gen.resetLag()) / 1e6
	n := float64(d1 - d0)
	p.tps = n / el
	p.cpuPerM = (c1 - c0) / max(n, 1) * 1e6
	p.cpuUtil = (c1 - c0) / (el * float64(runtime.GOMAXPROCS(0)))
	p.cpuUtil = (c1 - c0) / (el * float64(runtime.GOMAXPROCS(0)))

	var c map[string]float64
	if tr != nil {
		c = s.counters()
		p.layers = systemLayers(s, p, c)
	}
	p.attempted, p.failed, p.note = s.finish(30 * time.Second)
	q, samples := s.latency().quantiles(0.50, 0.99)
	p.latP50, p.latP99, p.latSamples = q[0], q[1], samples
	if tr != nil {
		spanLayers(p.layers, tr, w0, w1)
	}
	return p, nil
}

// pollUnacked samples the wire's unacknowledged tuples (staged wire
// sequence high-water mark minus the acknowledged floor) on every stream
// of a pe job.
func (p *pass) pollUnacked(s *system) {
	if s.job == nil {
		return
	}
	for _, ce := range s.job.Streams() {
		exp := s.job.PEs[ce.FromPE].Plan.ExportEndpoint(ce.Stream)
		if exp == nil {
			continue
		}
		if hi, ack := exp.SeqHigh(), exp.Acked(); hi > ack && hi-ack > p.unackedMax {
			p.unackedMax = hi - ack
		}
	}
}

// layerUnits names the unit of every per-layer metric; a traced run reports
// all of them, 0 where the layer is idle on the workload.
var layerUnits = map[string]string{
	"core.adapt_periods":           "count",
	"core.placement_changes":       "count",
	"core.thread_changes":          "count",
	"core.final_threads":           "count",
	"core.final_queues":            "count",
	"core.speedup_vs_manual":       "ratio",
	"core.settle_s":                "s",
	"e2e.latency_p50_ms":           "ms",
	"e2e.latency_p99_ms":           "ms",
	"exec.apply_placement_ms_p50":  "ms",
	"exec.apply_placement_ms_max":  "ms",
	"exec.set_threads_ms_max":      "ms",
	"exec.fused_share":             "ratio",
	"queue.steal_share":            "ratio",
	"queue.overflow_share":         "ratio",
	"queue.injected_share":         "ratio",
	"queue.parks_per_ktuple":       "count",
	"spl.self_ns_per_tuple.heavy":  "ns",
	"spl.self_ns_per_tuple.medium": "ns",
	"spl.self_ns_per_tuple.light":  "ns",
	"spl.self_ns_per_tuple.keyed":  "ns",
	"spl.self_ns_per_tuple.sink":   "ns",
	"spl.busy_share":               "ratio",
	"pe.tuples_per_frame":          "count",
	"pe.frames_per_flush":          "count",
	"pe.bytes_per_tuple":           "bytes",
	"pe.hop_p50_ms":                "ms",
	"pe.hop_p99_ms":                "ms",
	"pe.unacked_max":               "count",
	"pe.retransmits":               "count",
	"pe.dups_dropped":              "count",
	"pe.dropped":                   "count",
	"state.checkpoints":            "count",
	"state.last_bytes":             "bytes",
	"state.errors":                 "count",
	"state.skipped":                "count",
	"cluster.migrations_completed": "count",
	"cluster.migrations_aborted":   "count",
	"cluster.replayed_tuples":      "count",
	"cluster.grow_dip_ratio":       "ratio",
	"cluster.shrink_dip_ratio":     "ratio",
	"cluster.grow_settle_ms":       "ms",
	"cluster.shrink_settle_ms":     "ms",
	"gen.lag_ms":                   "ms",
	"trace.tps_ratio":              "ratio",
	"trace.cpu_ratio":              "ratio",
	"trace.spans":                  "count",
}

// systemLayers computes the per-layer metrics read from the running
// system's public counters: the coordinator's engine wrapper, the engines'
// scheduler and transport counters (lifetime totals of the live engines),
// the checkpointers and the cluster manager.
func systemLayers(s *system, p *pass, c map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = 0
	}
	if s.te != nil {
		apply, threads := s.te.timings()
		m["exec.apply_placement_ms_p50"] = quantile(apply, 0.5)
		m["exec.apply_placement_ms_max"] = quantile(apply, 1)
		m["exec.set_threads_ms_max"] = quantile(threads, 1)
	}
	if s.coord != nil {
		_, placements, threadSets := s.te.counts()
		m["core.adapt_periods"] = float64(p.adaptPeriods)
		m["core.placement_changes"] = float64(placements)
		m["core.thread_changes"] = float64(threadSets)
		m["core.final_threads"] = float64(s.eng.ThreadCount())
		m["core.final_queues"] = float64(s.eng.Queues())
	}

	delivered := float64(s.delivered())
	pushes, pops := c[obs.MetricSchedLocalPushes], c[obs.MetricSchedLocalPops]
	stolen, overflows, injected := c[obs.MetricSchedStolenTuples], c[obs.MetricSchedOverflows], c[obs.MetricSchedInjected]
	m["exec.fused_share"] = ratio(c[obs.MetricSchedFusedTuples], delivered)
	m["queue.steal_share"] = ratio(stolen, pops+stolen)
	m["queue.overflow_share"] = ratio(overflows, pushes+overflows)
	m["queue.injected_share"] = ratio(injected, pushes+overflows+injected)
	m["queue.parks_per_ktuple"] = ratio(c[obs.MetricSchedParks]*1000, delivered)

	tuples, frames := c[obs.MetricTransportTuples], c[obs.MetricTransportFrames]
	m["pe.tuples_per_frame"] = ratio(tuples, frames)
	m["pe.frames_per_flush"] = ratio(frames, c[obs.MetricTransportFlushes])
	m["pe.bytes_per_tuple"] = ratio(c[obs.MetricTransportBytes], tuples)
	m["pe.unacked_max"] = float64(p.unackedMax)
	m["pe.retransmits"] = c[obs.MetricTransportRetransmits]
	m["pe.dups_dropped"] = c[obs.MetricTransportDups+"@import"]
	m["pe.dropped"] = c[obs.MetricTransportDropped]

	if s.job != nil {
		for _, st := range s.job.CheckpointStats() {
			m["state.checkpoints"] += float64(st.Checkpoints)
			m["state.last_bytes"] += float64(st.LastBytes)
			m["state.errors"] += float64(st.Errors)
			m["state.skipped"] += float64(st.Skipped)
		}
	}
	if s.mgr != nil {
		st := s.mgr.Status()
		m["cluster.migrations_completed"] = float64(st.MigrationsCompleted)
		m["cluster.migrations_aborted"] = float64(st.MigrationsAborted)
		m["cluster.replayed_tuples"] = float64(st.ReplayedTuples)
		m["cluster.grow_dip_ratio"] = mean(p.growDip)
		m["cluster.shrink_dip_ratio"] = mean(p.shrinkDip)
	}
	return m
}

// spanLayers adds the metrics computed from the spans of the measured
// window [from, to): operator self time per cost class, the busy share and
// the wire hop. Call it once the system has stopped.
func spanLayers(m map[string]float64, tr *tracer, from, to int64) {
	spans := tr.recorded()
	self := selfTimes(spans)
	perTuple, total := classSelf(tr, spans, self, from, to)
	m["spl.self_ns_per_tuple.heavy"] = perTuple[clsHeavy]
	m["spl.self_ns_per_tuple.medium"] = perTuple[clsMedium]
	m["spl.self_ns_per_tuple.light"] = perTuple[clsLight]
	m["spl.self_ns_per_tuple.keyed"] = perTuple[clsKeyed]
	m["spl.self_ns_per_tuple.sink"] = perTuple[clsSink]
	busy := 0.0
	for c := range total {
		busy += total[c]
	}
	m["spl.busy_share"] = busy / (float64(to-from) * float64(runtime.GOMAXPROCS(0)))
	if ctr, w2 := tr.nodeNamed("ctr"), tr.nodeNamed("w2"); ctr >= 0 && w2 >= 0 {
		hops := hopTimes(spans, ctr, w2)
		m["pe.hop_p50_ms"] = quantile(hops, 0.5)
		m["pe.hop_p99_ms"] = quantile(hops, 0.99)
	}
	m["trace.spans"] = float64(len(spans))
}
