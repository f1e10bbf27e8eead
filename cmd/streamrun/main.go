// Command streamrun executes a topology live on goroutines with multi-level
// elasticity and reports the adaptation as it happens. Every run is a job of
// one or more processing elements (PEs), each adapting independently; a
// single-engine run is a one-PE job.
//
// Usage:
//
//	streamrun -shape pipeline -ops 50 -flops 20000 -duration 5s
//	streamrun -shape mixed -width 4 -depth 8 -skewed -trace
//	streamrun -file topo.txt -pes 2 -checkpoint -streamstats
//	streamrun -shape pipeline -ops 12 -cluster 2:4 -clustercycle 3s -duration 12s
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"streamelastic"

	"streamelastic/internal/cluster"
	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/fault"
	"streamelastic/internal/graph"
	"streamelastic/internal/metrics"
	"streamelastic/internal/monitor"
	"streamelastic/internal/obs"
	"streamelastic/internal/pe"
	"streamelastic/internal/workload"
)

func main() {
	c := runConfig{}
	flag.StringVar(&c.shape, "shape", "pipeline", "graph shape: pipeline, dataparallel, mixed, bushy")
	flag.IntVar(&c.ops, "ops", 50, "operator count (pipeline)")
	flag.IntVar(&c.width, "width", 4, "parallel width (dataparallel, mixed)")
	flag.IntVar(&c.depth, "depth", 8, "chain depth (mixed)")
	flag.IntVar(&c.payload, "payload", 1024, "tuple payload bytes")
	flag.Float64Var(&c.flops, "flops", 10000, "per-operator FLOPs (balanced distribution)")
	flag.BoolVar(&c.skewed, "skewed", false, "use the skewed 10/30/60 cost distribution")
	flag.IntVar(&c.batch, "batch", 1, "source: tuples emitted per generator turn (larger batches feed the compiled-region path whole batches)")
	flag.StringVar(&c.file, "file", "", "run a topology description file instead of a generated shape")
	flag.IntVar(&c.maxThreads, "maxthreads", 16, "scheduler-thread cap")
	flag.DurationVar(&c.duration, "duration", 5*time.Second, "run time")
	flag.DurationVar(&c.period, "period", 200*time.Millisecond, "adaptation period")
	flag.BoolVar(&c.trace, "trace", false, "print every PE's adaptation trace at exit")
	flag.IntVar(&c.pes, "pes", 1, "split the graph across N processing elements connected by TCP")
	flag.StringVar(&c.clusterSpec, "cluster", "", "run under the cluster job manager with this malleable width spec min:max[:step[:desired]]; the PE fleet grows and shrinks live by region migration")
	flag.DurationVar(&c.clusterCycle, "clustercycle", 0, "with -cluster, alternate the desired width between the spec maximum and minimum at this interval (0 = hold the spec's desired width)")

	flag.IntVar(&c.transport.FlushBytes, "flushbytes", 0, "transport: flush a stream once this many encoded bytes are pending (0 = 32KiB default)")
	flag.DurationVar(&c.transport.MaxFlushDelay, "flushdelay", 0, "transport: flush deadline after the last flush; a trickling stream lingers up to this long to coalesce frames, an idle one flushes at once (0 = 1ms default)")
	flag.IntVar(&c.transport.RingCapacity, "streamring", 0, "transport: staging ring capacity per stream in tuples (0 = 1024 default)")
	flag.BoolVar(&c.transport.DropOnFull, "streamdrop", false, "transport: drop tuples when a stream backs up instead of blocking the PE (latency over completeness)")
	flag.BoolVar(&c.streamStats, "streamstats", false, "print per-stream transport counters at exit")

	flag.IntVar(&c.sched.localQ, "localq", 0, "scheduler: per-worker deque capacity, a power of two (0 = 256 default)")
	flag.BoolVar(&c.sched.stats, "schedstats", false, "print work-stealing scheduler counters (affinity pushes, steals, overflows, parks, fused batches) at exit")

	flag.BoolVar(&c.res.watchdog, "watchdog", false, "run a health watchdog per PE that freezes adaptation while the PE is unhealthy")
	flag.IntVar(&c.res.panicBudget, "panicbudget", 0, "quarantine an operator after this many recovered panics (0 = supervision off)")
	flag.BoolVar(&c.res.chaos, "chaos", false, "inject deterministic faults (connection kills, operator panics)")
	flag.Int64Var(&c.res.chaosSeed, "chaosseed", 1, "seed for -chaos fault injection")
	flag.BoolVar(&c.res.checkpoint, "checkpoint", false, "periodically snapshot keyed operator state (incremental, per PE) and recover quarantined stateful operators exactly-once")
	flag.StringVar(&c.res.ckptDir, "ckptdir", "", "directory for checkpoint logs (pe<N>.ckpt); empty keeps checkpoints in memory")
	flag.DurationVar(&c.res.ckptInterval, "ckptinterval", 0, "checkpoint interval (0 = 1s default)")

	flag.StringVar(&c.obs.metricsAddr, "metrics", "", "serve /metrics (Prometheus), /statusz, /flightz, /tracez.json and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
	flag.StringVar(&c.obs.flightPath, "flightrec", "", "write a flight-recorder dump to this file at exit")
	flag.StringVar(&c.obs.tracePath, "traceout", "", "write the first PE's adaptation trace as Chrome trace_event JSON to this file at exit")
	flag.IntVar(&c.obs.sample, "sample", 0, "latency-sample every Nth queued delivery per emitting loop into per-operator histograms (0 = off)")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "streamrun:", err)
		os.Exit(1)
	}
}

// runConfig is one streamrun invocation.
type runConfig struct {
	// The graph: a topology description file (see
	// streamelastic.ParseTopology) when file is set, else a generated shape.
	file                       string
	shape                      string
	ops, width, depth, payload int
	flops                      float64
	skewed                     bool
	batch                      int

	maxThreads   int
	duration     time.Duration
	period       time.Duration
	trace        bool
	pes          int
	clusterSpec  string
	clusterCycle time.Duration
	streamStats  bool

	transport pe.TransportConfig
	res       resilienceConfig
	sched     schedConfig
	obs       obsConfig
}

// resilienceConfig bundles the self-healing flags.
type resilienceConfig struct {
	watchdog     bool
	panicBudget  int
	chaos        bool
	chaosSeed    int64
	checkpoint   bool
	ckptDir      string
	ckptInterval time.Duration
}

// schedConfig bundles the work-stealing scheduler flags.
type schedConfig struct {
	localQ int
	stats  bool
}

// validate rejects a deque capacity the engine would refuse, so the error
// mentions the flag rather than an internal option.
func (c schedConfig) validate() error {
	if c.localQ != 0 && (c.localQ < 2 || c.localQ&(c.localQ-1) != 0) {
		return fmt.Errorf("-localq %d is not a power of two >= 2", c.localQ)
	}
	return nil
}

// app is what a run drives: a launched pe.Job or a cluster.Manager. Both
// serve the same observability surface.
type app interface {
	monitor.Provider
	Start(context.Context) error
	Stop()
}

// run builds the graph, launches it as a job of -pes PEs (or under the
// cluster manager with -cluster), reports once a second, and prints the
// exit report.
func run(c runConfig) error {
	if err := c.sched.validate(); err != nil {
		return err
	}
	g, name, err := c.graph()
	if err != nil {
		return err
	}
	delivered := sinkCounter(g)
	var inj *fault.Injector
	if c.res.chaos {
		inj = fault.New(c.res.chaosSeed)
	}
	opts := c.peOptions(inj)

	var (
		a      app
		lastPE int
		onTick func() // -clustercycle: move the desired width
	)
	if c.clusterSpec != "" {
		spec, err := cluster.ParseWidthSpec(c.clusterSpec)
		if err != nil {
			return fmt.Errorf("-cluster: %w", err)
		}
		mgr, err := cluster.New(g, cluster.Options{Spec: spec, PE: opts})
		if err != nil {
			return err
		}
		st := mgr.Status()
		a, lastPE = mgr, st.Allocated-1
		atMax := st.Desired == spec.Max // the first flip moves away from the start
		nextFlip := time.Now().Add(c.clusterCycle)
		onTick = func() {
			if c.clusterCycle > 0 && time.Now().After(nextFlip) {
				atMax = !atMax
				want := spec.Min
				if atMax {
					want = spec.Max
				}
				mgr.SetDesired(want)
				nextFlip = time.Now().Add(c.clusterCycle)
			}
		}
		fmt.Printf("running %s under the cluster manager (width %d:%d:%d, desired %d) for %s\n",
			name, spec.Min, spec.Max, spec.Step, spec.Desired, c.duration)
	} else {
		assign, err := pe.AssignContiguous(g, c.pes)
		if err != nil {
			return err
		}
		job, err := pe.Launch(g, assign, opts)
		if err != nil {
			return err
		}
		a, lastPE = job, c.pes-1
		fmt.Printf("running %s (%d operators, %d PEs, %d TCP streams) for %s\n",
			name, g.NumNodes(), c.pes, len(job.Streams()), c.duration)
	}
	if inj != nil {
		// A canned chaos plan: kill stream connections a few times (every
		// stream id below 16, so streams born of cluster migrations are hit
		// too) and panic an operator on the last PE. Kills resume from the
		// retransmit ring; the panics exercise supervision and quarantine.
		for sid := 0; sid < 16; sid++ {
			inj.Arm(fault.ConnKill, sid, fault.Plan{EveryN: 5000, MaxFires: 3})
		}
		inj.Arm(fault.OpPanic, fault.OpSite(lastPE, 1), fault.Plan{EveryN: 500, MaxFires: 8})
	}

	stopObs, err := c.obs.serve(monitor.ObservabilityHandler(a))
	if err != nil {
		return err
	}
	defer stopObs()
	if err := a.Start(context.Background()); err != nil {
		a.Stop()
		return err
	}
	defer a.Stop()

	start := time.Now()
	var last uint64
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	deadline := time.After(c.duration)
loop:
	for {
		select {
		case <-tick.C:
			if onTick != nil {
				onTick()
			}
			cur := delivered()
			line := fmt.Sprintf("t=%4.0fs  end-to-end=%8.0f tuples/s", time.Since(start).Seconds(), float64(cur-last))
			last = cur
			for _, st := range a.Statuses() {
				if w := st.Width; w != nil {
					line += fmt.Sprintf("  width=%d desired=%d migrations=%d", w.Allocated, w.Desired, st.Migrations.Completed)
					if w.Pending != "" {
						line += " [" + w.Pending + "]"
					}
					continue
				}
				line += fmt.Sprintf("  %s[T=%d Q=%d settled=%v]", st.Name, st.Threads, st.Queues, st.Settled)
			}
			fmt.Println(line)
		case <-deadline:
			break loop
		}
	}

	fmt.Printf("\nfinal: %d tuples end to end\n", delivered())
	statuses := a.Statuses()
	c.report(statuses)
	if inj != nil {
		fmt.Printf("chaos: %d faults fired (seed %d)\n", len(inj.Events()), c.res.chaosSeed)
		os.Stdout.Write(inj.LogBytes())
	}
	var first []core.TraceEvent
	for i, st := range statuses {
		tr := a.AdaptationTrace(i)
		if tr == nil {
			continue
		}
		if first == nil {
			first = tr
		}
		if c.trace {
			fmt.Printf("\n%s adaptation trace:\n", st.Name)
			for _, e := range tr {
				fmt.Printf("  %6.1fs thr=%9.0f threads=%2d queues=%3d  [%s] %s\n",
					e.Time.Seconds(), e.Throughput, e.Threads, e.Queues, e.Phase, e.Note)
			}
		}
	}
	return c.obs.writeArtifacts(a.FlightRecorder(), first)
}

// graph returns the run's finalized graph and a name for it: the parsed
// -file, or the generated -shape.
func (c runConfig) graph() (*graph.Graph, string, error) {
	if c.file != "" {
		f, err := os.Open(c.file)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		top, _, err := streamelastic.ParseTopology(f)
		if err != nil {
			return nil, "", err
		}
		g, err := top.Graph()
		return g, c.file, err
	}
	cfg := workload.DefaultConfig()
	cfg.PayloadBytes = c.payload
	cfg.BalancedFLOPs = c.flops
	cfg.Skewed = c.skewed
	cfg.SourceBatch = c.batch
	var (
		b   *workload.Build
		err error
	)
	switch c.shape {
	case "pipeline":
		b, err = workload.Pipeline(c.ops, cfg)
	case "dataparallel":
		b, err = workload.DataParallel(c.width, cfg)
	case "mixed":
		b, err = workload.Mixed(c.width, c.depth, cfg)
	case "bushy":
		b, err = workload.Bushy(cfg)
	default:
		return nil, "", fmt.Errorf("unknown shape %q", c.shape)
	}
	if err != nil {
		return nil, "", err
	}
	return b.Graph, b.Name, nil
}

// peOptions translates the flags into the options every PE is built with.
func (c runConfig) peOptions(inj *fault.Injector) pe.Options {
	ecfg := core.DefaultConfig()
	ecfg.MaxThreads = c.maxThreads
	opts := pe.Options{
		Exec: exec.Options{
			MaxThreads:         c.maxThreads,
			AdaptPeriod:        c.period,
			PanicBudget:        c.res.panicBudget,
			LocalQueueCapacity: c.sched.localQ,
		},
		Elastic:        ecfg,
		Transport:      c.transport,
		Fault:          inj,
		EnableWatchdog: c.res.watchdog,
		SampleEvery:    c.obs.sample,
		Checkpoint: pe.CheckpointOptions{
			Enabled:  c.res.checkpoint,
			Dir:      c.res.ckptDir,
			Interval: c.res.ckptInterval,
		},
	}
	if c.res.watchdog {
		// A watchdog trip dumps the flight recorder to stderr as it happens.
		opts.FlightDump = os.Stderr
	}
	return opts
}

// sinkCounter returns a reader of the tuples delivered end to end: the sum
// over the graph's terminal operators that count what they receive. The
// operators are shared with every PE plan, so the sum holds however the
// graph is split.
func sinkCounter(g *graph.Graph) func() uint64 {
	type counter interface{ Count() uint64 }
	var sinks []counter
	for i := 0; i < g.NumNodes(); i++ {
		nd := g.Node(graph.NodeID(i))
		if s, ok := nd.Op.(counter); ok && len(nd.Out) == 0 {
			sinks = append(sinks, s)
		}
	}
	return func() uint64 {
		var n uint64
		for _, s := range sinks {
			n += s.Count()
		}
		return n
	}
}

// report prints the exit report from the status rows /statusz serves: the
// cluster's width and migration ledger, scheduler and stream counters behind
// their flags, then checkpoint, watchdog and supervision state wherever it
// exists.
func (c runConfig) report(statuses []monitor.Status) {
	for _, st := range statuses {
		if w, m := st.Width, st.Migrations; w != nil && m != nil {
			fmt.Printf("cluster: width=%d migrations=%d aborted=%d replayed=%d\n",
				w.Allocated, m.Completed, m.Aborted, m.Replayed)
		}
		if c.sched.stats && st.Sched != nil {
			printSched(st.Name, *st.Sched)
		}
		if cs := st.Checkpoint; cs != nil {
			fmt.Printf("%s checkpoints: committed=%d errors=%d skipped=%d restores=%d lastBytes=%d watermark=%d epoch=%d\n",
				st.Name, cs.Checkpoints, cs.Errors, cs.Skipped, cs.Restores, cs.LastCkptBytes, cs.Watermark, cs.Epoch)
		}
		if h := st.Health; h != nil {
			fmt.Printf("watchdog %s: healthy=%v frozen=%v trips=%d recovers=%d lastCause=%q\n",
				h.Name, h.Healthy, h.Frozen, h.Trips, h.Recovers, h.LastCause)
		}
		if st.OperatorPanics > 0 || st.Quarantined > 0 {
			fmt.Printf("%s supervision: panics=%d quarantined=%d\n", st.Name, st.OperatorPanics, st.Quarantined)
		}
		if !c.streamStats {
			continue
		}
		for _, s := range st.Streams {
			framesPerFlush := 0.0
			if s.Flushes > 0 {
				framesPerFlush = float64(s.WireFrames) / float64(s.Flushes)
			}
			fmt.Printf("%s stream %d %s peer=pe%d: tuples=%d frames=%d bytes=%d dropped=%d flushes=%d framesPerFlush=%.1f drains=%v retrans=%d reconnects=%d unacked=%d dups=%d resumes=%d\n",
				st.Name, s.Stream, s.Dir, s.Peer, s.Tuples, s.WireFrames, s.Bytes, s.Dropped,
				s.Flushes, framesPerFlush, s.DrainSizes, s.Retransmits, s.Reconnects, s.Unacked,
				s.DupsDropped, s.Resumes)
		}
	}
}

// printSched renders one PE's scheduler counters.
func printSched(name string, s metrics.SchedSnapshot) {
	fmt.Printf("%s sched: local=%d pops=%d steals=%d stolen=%d overflow=%d injected=%d parks=%d wakes=%d fusedBatches=%d fusedTuples=%d\n",
		name, s.LocalPushes, s.LocalPops, s.Steals, s.StolenTuples,
		s.Overflows, s.Injected, s.Parks, s.Wakes, s.FusedBatches, s.FusedTuples)
}

// obsConfig bundles the observability flags.
type obsConfig struct {
	metricsAddr string // address for the HTTP observability surface; "" = off
	flightPath  string // flight-recorder dump file at exit; "" = off
	tracePath   string // Chrome trace_event JSON file at exit; "" = off
	sample      int    // latency sampling gate (every Nth delivery; 0 = off)
}

// serve starts the observability HTTP server when -metrics is set,
// returning a stop function (a no-op when off).
func (c obsConfig) serve(h http.Handler) (func(), error) {
	if c.metricsAddr == "" {
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", c.metricsAddr)
	if err != nil {
		return nil, fmt.Errorf("-metrics %s: %w", c.metricsAddr, err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("observability: http://%s (/metrics /statusz /flightz /tracez.json /debug/pprof)\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// writeArtifacts writes the exit artifacts: a flight-recorder dump and a
// Chrome trace_event JSON of the adaptation timeline.
func (c obsConfig) writeArtifacts(rec *obs.FlightRecorder, trace []core.TraceEvent) error {
	if c.flightPath != "" && rec != nil {
		f, err := os.Create(c.flightPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "=== flight-recorder dump (exit) ===\n")
		err = rec.DumpTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if c.tracePath != "" {
		f, err := os.Create(c.tracePath)
		if err != nil {
			return err
		}
		err = core.WriteChromeTrace(f, trace)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
