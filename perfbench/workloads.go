package main

import (
	"context"
	"time"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/pe"
	"streamelastic/internal/workload"
)

// workloadDef is one benchmark workload. build constructs and starts a
// fresh instance (tr is nil in untraced passes); drive runs the measured
// window, which lasts about window, once the instance is warm.
type workloadDef struct {
	name string
	// openLoop workloads offer a fixed rate; closed-loop ones measure
	// capacity.
	openLoop bool
	build    func(seed int64, tr *tracer) (*system, error)
	warm     func(s *system, p *pass) error
	drive    func(s *system, p *pass, window time.Duration)
}

// offeredRate is the open-loop generator rate of both wire workloads, in
// tuples/s. It sits above the rate where checkpoint stalls begin to show in
// p99 latency, so the stall is measured, not hidden by slack.
const offeredRate = 120000

// openBatch caps how many overdue tuples the open-loop generator emits per
// Next call; closedBatch is the closed-loop generator's batch.
const (
	openBatch   = 256
	closedBatch = 16
)

// graphSeed fixes the placement of heavy, medium and light operators in
// pipeline-elastic: the graph is the program under test and stays the same
// on every run; --seed varies its input tuples.
const graphSeed = 1

var workloads = []workloadDef{
	// fanin-dynamic: workload.DataParallel(4), balanced 100-FLOP operators,
	// 64 B payload, contended sink, every non-source operator pinned dynamic
	// on 2 scheduler threads, elasticity off, closed loop. It exists because
	// it is the only workload whose per-tuple cost is dominated by exec
	// scheduling and the queue layer (deque, MPMC, steal, park); it isolates
	// exec and queue, and guards any change to work stealing.
	{name: "fanin-dynamic", build: buildFaninDynamic, warm: warmFor(time.Second), drive: holdWindow},

	// pipeline-elastic: the paper's Fig. 9 workload, a skewed 50-operator
	// workload.Pipeline (10% heavy, 30% medium, 60% light operators), 256 B
	// payload, both elastic controllers from minimum parallelism with
	// MaxThreads 4, closed loop. It exists because core's R1-R5 search and
	// exec reconfiguration do the work that matters here; it isolates core.
	// Work operators take almost all the CPU, so a scheduler change should
	// not move it. The controller does not reach the same configuration on
	// every instance (some settle with one queue or none, at roughly half to
	// three quarters of the usual throughput); the median over a run's
	// trials damps that, and the run reports how many trials ended
	// all-manual.
	{name: "pipeline-elastic", build: buildPipelineElastic, warm: warmUntilSettled, drive: holdWindow},

	// keyed-wire-ckpt: a 6-operator keyed chain (generator -> work ->
	// KeyedCounter -> work -> work -> sink) as 2 PEs over loopback TCP with
	// 1 s in-memory checkpoints, elasticity off, open loop at offeredRate.
	// It exists because the pe wire and the state checkpoint layer do almost
	// all the work while core and queue sit idle; it isolates pe and state,
	// and shows the ack-gated retransmit-window stall in latency.
	{name: "keyed-wire-ckpt", openLoop: true, build: buildKeyedWireCkpt, warm: warmFor(time.Second), drive: holdWindow},

	// cluster-resize: the same chain at the same rate under cluster.New with
	// width spec 2:4 and no checkpointing, cycling grow 2->4 and shrink 4->2
	// with a 1 s hold after each transition. It exists because it uses the
	// pe wire without ack gating (the contrast for keyed-wire-ckpt), and
	// cluster migration is the only layer that can move its settle times; it
	// isolates cluster.
	{name: "cluster-resize", openLoop: true, build: buildClusterResize, warm: warmFor(time.Second), drive: resizeCycles},
}

func workloadNamed(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// engineFor returns the core.Engine the coordinator drives: the live engine
// itself, or its timing wrapper in traced runs.
func engineFor(s *system, tr *tracer) core.Engine {
	if tr == nil {
		return s.eng
	}
	s.te = newTimedEngine(s.eng, tr)
	return s.te
}

func buildFaninDynamic(seed int64, tr *tracer) (*system, error) {
	b, err := workload.DataParallel(4, workload.Config{PayloadBytes: 64, BalancedFLOPs: workload.MediumFLOPs})
	if err != nil {
		return nil, err
	}
	s := &system{}
	s.gen, s.probe = closedLoopGraph(b, seed, closedBatch)
	if tr != nil {
		if err := wrapGraph(b.Graph, tr); err != nil {
			return nil, err
		}
	}
	if s.eng, err = exec.New(b.Graph, exec.Options{MaxThreads: 2}); err != nil {
		return nil, err
	}
	eng := engineFor(s, tr)
	if err := eng.ApplyPlacement(eng.Placeable()); err != nil {
		return nil, err
	}
	if err := eng.SetThreadCount(2); err != nil {
		return nil, err
	}
	return s, startEngine(s, nil)
}

// pipelineGraph builds pipeline-elastic's graph with the benchmark's source
// and sink.
func pipelineGraph(seed int64, tr *tracer) (*workload.Build, *system, error) {
	b, err := workload.Pipeline(50, workload.Config{PayloadBytes: 256, Skewed: true, Seed: graphSeed})
	if err != nil {
		return nil, nil, err
	}
	s := &system{}
	s.gen, s.probe = closedLoopGraph(b, seed, closedBatch)
	if tr != nil {
		if err := wrapGraph(b.Graph, tr); err != nil {
			return nil, nil, err
		}
	}
	return b, s, nil
}

func buildPipelineElastic(seed int64, tr *tracer) (*system, error) {
	b, s, err := pipelineGraph(seed, tr)
	if err != nil {
		return nil, err
	}
	if s.eng, err = exec.New(b.Graph, exec.Options{MaxThreads: 4}); err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.MaxThreads = 4
	if s.coord, err = core.NewCoordinator(engineFor(s, tr), cfg); err != nil {
		return nil, err
	}
	return s, startEngine(s, s.coord)
}

// buildPipelineManual is pipeline-elastic on one scheduler thread, all
// operators manual, no coordinator: the baseline of core.speedup_vs_manual.
func buildPipelineManual(seed int64) (*system, error) {
	b, s, err := pipelineGraph(seed, nil)
	if err != nil {
		return nil, err
	}
	if s.eng, err = exec.New(b.Graph, exec.Options{MaxThreads: 1}); err != nil {
		return nil, err
	}
	return s, startEngine(s, nil)
}

// startEngine starts a single engine, and its coordinator when given.
func startEngine(s *system, coord *core.Coordinator) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.started = time.Now()
	if err := s.eng.Start(ctx); err != nil {
		cancel()
		return err
	}
	if coord != nil {
		s.coordEnd = make(chan struct{})
		go func() {
			defer close(s.coordEnd)
			_ = coord.Run(ctx)
		}()
	}
	return nil
}

// wirePEOptions is the per-PE configuration of both wire workloads: one
// scheduler thread, all operators manual, elasticity off.
func wirePEOptions() pe.Options {
	return pe.Options{DisableElasticity: true, Exec: exec.Options{MaxThreads: 1}}
}

func buildKeyedWireCkpt(seed int64, tr *tracer) (*system, error) {
	s := &system{gen: newGenerator(seed, offeredRate, openBatch, 64)}
	g, ledger, err := keyedChain(s.gen)
	if err != nil {
		return nil, err
	}
	s.ledger = ledger
	if tr != nil {
		if err := wrapGraph(g, tr); err != nil {
			return nil, err
		}
	}
	assign, err := pe.AssignContiguous(g, 2)
	if err != nil {
		return nil, err
	}
	opts := wirePEOptions()
	opts.Checkpoint = pe.CheckpointOptions{Enabled: true, Interval: time.Second}
	if s.job, err = pe.Launch(g, assign, opts); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := s.job.Start(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func buildClusterResize(seed int64, tr *tracer) (*system, error) {
	s := &system{gen: newGenerator(seed, offeredRate, openBatch, 64)}
	g, ledger, err := keyedChain(s.gen)
	if err != nil {
		return nil, err
	}
	s.ledger = ledger
	if tr != nil {
		if err := wrapGraph(g, tr); err != nil {
			return nil, err
		}
	}
	spec, err := cluster.ParseWidthSpec("2:4:1:2")
	if err != nil {
		return nil, err
	}
	if s.mgr, err = cluster.New(g, cluster.Options{Spec: spec, PE: wirePEOptions()}); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	if err := s.mgr.Start(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// --- warm-up and measured windows ---

func warmFor(d time.Duration) func(*system, *pass) error {
	return func(*system, *pass) error {
		time.Sleep(d)
		return nil
	}
}

// settleCap bounds the wait for the coordinator to settle; a run that does
// not settle by then is measured as it is.
const settleCap = 20 * time.Second

// warmUntilSettled waits for the coordinator's first Settled, records the
// time since Start, then lets the settled configuration run briefly.
func warmUntilSettled(s *system, p *pass) error {
	start := s.started
	for !s.coord.Settled() && time.Since(start) < settleCap {
		time.Sleep(5 * time.Millisecond)
	}
	p.settleS = time.Since(start).Seconds()
	if s.te != nil {
		p.adaptPeriods, _, _ = s.te.counts()
	}
	time.Sleep(500 * time.Millisecond)
	return nil
}

// holdWindow lets the system run for the window, polling the wire's
// unacknowledged frames every 10 ms when it has one.
func holdWindow(s *system, p *pass, window time.Duration) {
	end := time.Now().Add(window)
	for time.Now().Before(end) {
		p.pollUnacked(s)
		time.Sleep(10 * time.Millisecond)
	}
}

// clusterHold is the hold after each width transition.
const clusterHold = time.Second

// resizeCycles cycles the fleet 2->4->2, holding after each transition,
// for as many whole cycles as fit in the window (at least one).
func resizeCycles(s *system, p *pass, window time.Duration) {
	end := time.Now().Add(window)
	for {
		grow, gdip := transition(s, 4)
		time.Sleep(clusterHold)
		shrink, sdip := transition(s, 2)
		time.Sleep(clusterHold)
		p.growMs = append(p.growMs, grow)
		p.shrinkMs = append(p.shrinkMs, shrink)
		p.growDip = append(p.growDip, gdip)
		p.shrinkDip = append(p.shrinkDip, sdip)
		if time.Until(end) < 2*clusterHold+300*time.Millisecond {
			return
		}
	}
}

// transition moves the fleet to width target and measures it: ms from
// SetDesired until the fleet reports allocated == target with nothing
// pending, and the deepest 50 ms sink-rate window while settling (plus one
// window after) as a share of the offered rate.
func transition(s *system, target int) (settleMs, dip float64) {
	const sample = 5 * time.Millisecond
	const window = 10 // samples per 50 ms window
	counts := []uint64{s.delivered()}
	t0 := time.Now()
	s.mgr.SetDesired(target)
	for time.Since(t0) < settleCap {
		st := s.mgr.Status()
		if st.Allocated == target && st.Pending == "" {
			break
		}
		time.Sleep(sample)
		counts = append(counts, s.delivered())
	}
	settleMs = float64(time.Since(t0)) / 1e6
	for i := 0; i < window; i++ {
		time.Sleep(sample)
		counts = append(counts, s.delivered())
	}
	dip = 1
	for i := 0; i+window < len(counts); i++ {
		r := float64(counts[i+window]-counts[i]) / (window * sample.Seconds()) / offeredRate
		if r < dip {
			dip = r
		}
	}
	return settleMs, dip
}
