package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/graph"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/spl"
	"streamelastic/internal/workload"
)

// system is one built and started instance of a workload: the generator
// feeding it, its sink, and the layer handles the measurements read. Only
// the handles of the layers a workload composes are set.
type system struct {
	gen    *generator
	ledger *ledgerSink // keyed chain sink
	probe  *probeSink  // closed-loop sink

	eng   *exec.Engine
	coord *core.Coordinator
	te    *timedEngine // coordinator's engine wrapper, traced runs only
	job   *pe.Job
	mgr   *cluster.Manager

	started  time.Time // when the engine was started
	cancel   context.CancelFunc
	coordEnd chan struct{}
	stopped  bool
}

// firstArrival is the nowNs of the first tuple at the sink, 0 before it.
func (s *system) firstArrival() int64 {
	if s.ledger != nil {
		return s.ledger.first.Load()
	}
	return s.probe.first.Load()
}

// delivered counts tuples delivered to the sink.
func (s *system) delivered() uint64 {
	if s.ledger != nil {
		return s.ledger.delivered.Load()
	}
	return s.eng.SinkCount()
}

// latency is the sink's latency histogram.
func (s *system) latency() *latencyHist {
	if s.ledger != nil {
		return &s.ledger.lat
	}
	return &s.probe.lat
}

// stop tears the system down; safe to call twice.
func (s *system) stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.gen.stop.Store(true)
	if s.cancel != nil {
		s.cancel()
	}
	if s.coordEnd != nil {
		<-s.coordEnd
	}
	switch {
	case s.mgr != nil:
		s.mgr.Stop()
	case s.job != nil:
		s.job.Stop()
	case s.eng != nil:
		s.eng.Stop()
	}
}

// finish stops the generator, waits until every emitted tuple has reached
// the sink (or the deadline passes), stops the system and checks the
// output. It returns the tuples offered and the failures found.
func (s *system) finish(timeout time.Duration) (attempted, failed uint64, note string) {
	s.gen.stop.Store(true)
	if s.eng != nil && s.job == nil && s.mgr == nil {
		s.eng.Drain()
	}
	deadline := time.Now().Add(timeout)
	stable := 0
	for time.Now().Before(deadline) && stable < 5 {
		if s.delivered() == s.gen.emitted.Load() {
			stable++
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Operator panics and wire drops count as failures on every workload.
	// A cluster reports them for its live members only.
	c := s.counters()
	panics := uint64(c[obs.MetricPanics])
	dropped := uint64(c[obs.MetricTransportDropped])
	if s.job != nil {
		dropped = 0
		for _, st := range s.job.StreamStats() {
			dropped += st.Dropped
		}
	}
	s.stop()
	emitted := s.gen.emitted.Load()
	if s.ledger != nil {
		r := s.ledger.verify(s.gen.keys, emitted)
		return emitted, r.failed() + dropped + panics, fmt.Sprintf("%v dropped=%d operator_panics=%d", r, dropped, panics)
	}
	got := s.eng.SinkCount()
	miss := emitted - got
	if got > emitted {
		miss = got - emitted
	}
	return emitted, miss + panics, fmt.Sprintf("emitted=%d delivered=%d operator_panics=%d", emitted, got, panics)
}

// waitFirst waits for the first tuple to reach the sink.
func (s *system) waitFirst(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.firstArrival() == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("no tuple reached the sink within %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// setUp builds and starts a system reps times, tearing down all but the
// last, and returns the last with every set-up time: from the start of
// graph construction until the first tuple reaches the sink.
func setUp(reps int, build func() (*system, error)) (*system, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := nowNs()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		if err := s.waitFirst(30 * time.Second); err != nil {
			s.stop()
			return nil, nil, err
		}
		times = append(times, float64(s.firstArrival()-t0)/1e9)
		if i == reps-1 {
			return s, times, nil
		}
		s.stop()
		// Collect the torn-down instance now, so repeated set-ups (an
		// artifact of timing set-up several times) do not pile garbage
		// into the workload's peak RSS.
		runtime.GC()
	}
	return nil, nil, fmt.Errorf("set up needs at least one repetition")
}

func median(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 0 {
		return 0
	}
	if len(ys)%2 == 1 {
		return ys[len(ys)/2]
	}
	return (ys[len(ys)/2-1] + ys[len(ys)/2]) / 2
}

// registries returns the telemetry registries of every live engine.
func (s *system) registries() []*obs.Registry {
	switch {
	case s.mgr != nil:
		return s.mgr.Registries()
	case s.job != nil:
		regs := make([]*obs.Registry, len(s.job.PEs))
		for i, rt := range s.job.PEs {
			regs[i] = rt.Reg
		}
		return regs
	}
	return []*obs.Registry{s.eng.Registry()}
}

// counters sums every counter and gauge across the live registries by
// name. A series labelled dir=import is summed under its name plus
// "@import", so a tuple crossing the wire counts once under the plain name.
func (s *system) counters() map[string]float64 {
	out := make(map[string]float64)
	for _, r := range s.registries() {
		for _, smp := range r.Gather() {
			if smp.Hist != nil {
				continue
			}
			name := smp.Name
			for _, l := range smp.Labels {
				if l.Key == "dir" && l.Value == "import" {
					name += "@import"
				}
			}
			out[name] += smp.Value
		}
	}
	return out
}

// --- graph construction ---

// closedLoopGraph turns a workload build into the benchmark's program: the
// stock source is replaced by the seeded closed-loop generator and the
// counting sink is wrapped in the latency probe.
func closedLoopGraph(b *workload.Build, seed int64, batch int) (*generator, *probeSink) {
	src := b.Graph.Node(b.Graph.Sources()[0])
	gen := newGenerator(seed, 0, batch, src.Op.(*spl.Generator).PayloadBytes)
	src.Op = gen
	probe := &probeSink{inner: b.Sink}
	for _, id := range b.Graph.Sinks() {
		if nd := b.Graph.Node(id); nd.Op == spl.Operator(b.Sink) {
			nd.Op = probe
		}
	}
	return gen, probe
}

// keyedChain builds the 6-operator keyed chain both wire workloads run:
// generator -> work -> KeyedCounter -> work -> work -> ledger sink, with
// 100-FLOP work operators.
func keyedChain(gen *generator) (*graph.Graph, *ledgerSink, error) {
	g := graph.New()
	ledger := &ledgerSink{}
	work := func(name string) graph.NodeID {
		cv := spl.NewCostVar(workload.MediumFLOPs)
		return g.AddOperator(spl.NewWork(name, cv), cv)
	}
	src := g.AddSource(gen, spl.NewCostVar(10))
	w1 := work("w1")
	ctr := g.AddOperator(spl.NewKeyedCounter("ctr", counterWindow, 1), spl.NewCostVar(60))
	w2 := work("w2")
	w3 := work("w3")
	snk := g.AddOperator(ledger, spl.NewCostVar(0))
	for _, e := range [][2]graph.NodeID{{src, w1}, {w1, ctr}, {ctr, w2}, {w2, w3}, {w3, snk}} {
		if err := g.Connect(e[0], 0, e[1], 0, 1); err != nil {
			return nil, nil, err
		}
	}
	if err := g.Finalize(); err != nil {
		return nil, nil, err
	}
	return g, ledger, nil
}
