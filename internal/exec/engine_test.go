package exec

import (
	"context"
	"testing"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

var _ core.Engine = (*Engine)(nil)

// buildChain constructs a source -> n work ops -> sink pipeline with a
// bounded generator.
func buildChain(t *testing.T, n int, tuples uint64, flops float64) (*graph.Graph, *spl.CountingSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 8)
	gen.MaxTuples = tuples
	prev := g.AddSource(gen, spl.NewCostVar(0))
	for i := 0; i < n; i++ {
		cv := spl.NewCostVar(flops)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	sink := spl.NewCountingSink("snk")
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

func startEngine(t *testing.T, g *graph.Graph, opts Options) *Engine {
	t.Helper()
	e := newEngine(t, g, opts)
	start(t, e)
	return e
}

// newEngine builds an engine that t's cleanup stops. Tests place it and
// size its pool before start, so a bounded source's first tuple already
// runs under the configuration the test asserts on instead of racing it.
func newEngine(t *testing.T, g *graph.Graph, opts Options) *Engine {
	t.Helper()
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	return e
}

// start starts e, failing the test on error.
func start(t *testing.T, e *Engine) {
	t.Helper()
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// waitCount polls until the sink has seen want tuples or the timeout hits.
func waitCount(t *testing.T, sink *spl.CountingSink, want uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if sink.Count() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sink count %d, want %d", sink.Count(), want)
}

func TestNewValidatesGraph(t *testing.T) {
	g := graph.New()
	g.AddSource(spl.NewGenerator("s", 0), nil)
	if _, err := New(g, Options{}); err == nil {
		t.Fatal("unfinalized graph accepted")
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(g, Options{QueueCapacity: 3}); err == nil {
		t.Fatal("non-power-of-two queue capacity accepted")
	}

	// Missing operator.
	g2 := graph.New()
	g2.AddSource(nil, nil)
	if err := g2.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(g2, Options{}); err == nil {
		t.Fatal("graph with nil operator accepted")
	}

	// Source that is not an spl.Source.
	g3 := graph.New()
	g3.AddSource(spl.NewCountingSink("notasource"), nil)
	if err := g3.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(g3, Options{}); err == nil {
		t.Fatal("source without spl.Source accepted")
	}
}

func TestManualModeDeliversAllTuples(t *testing.T) {
	const n = 2000
	g, sink := buildChain(t, 5, n, 10)
	e := startEngine(t, g, Options{})
	waitCount(t, sink, n, 10*time.Second)
	if got := sink.Count(); got != n {
		t.Fatalf("sink received %d tuples, want exactly %d", got, n)
	}
	if e.Queues() != 0 {
		t.Fatalf("manual engine has %d queues", e.Queues())
	}
	if e.SinkCount() != n {
		t.Fatalf("meter counted %d, want %d", e.SinkCount(), n)
	}
}

func TestDynamicModeDeliversAllTuples(t *testing.T) {
	const n = 2000
	g, sink := buildChain(t, 5, n, 10)
	e := newEngine(t, g, Options{})
	place := make([]bool, g.NumNodes())
	for i := 1; i < len(place); i++ {
		place[i] = true
	}
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	start(t, e)
	if e.Queues() != 6 {
		t.Fatalf("queues = %d, want 6", e.Queues())
	}
	waitCount(t, sink, n, 10*time.Second)
	if got := sink.Count(); got != n {
		t.Fatalf("sink received %d tuples, want exactly %d", got, n)
	}
}

func TestReconfigurationPreservesTuples(t *testing.T) {
	const n = 5000
	g, sink := buildChain(t, 8, n, 50)
	e := startEngine(t, g, Options{})
	// Flip the placement repeatedly while the stream is in flight.
	for round := 0; round < 20; round++ {
		place := make([]bool, g.NumNodes())
		for i := 1; i < len(place); i++ {
			place[i] = (i+round)%2 == 0
		}
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, sink, n, 20*time.Second)
	if got := sink.Count(); got != n {
		t.Fatalf("sink received %d tuples after reconfigurations, want exactly %d", got, n)
	}
}

func TestThreadPoolResizeWhileRunning(t *testing.T) {
	const n = 5000
	g, sink := buildChain(t, 4, n, 50)
	e := startEngine(t, g, Options{MaxThreads: 16})
	place := make([]bool, g.NumNodes())
	for i := 1; i < len(place); i++ {
		place[i] = true
	}
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{8, 2, 12, 1, 6} {
		if err := e.SetThreadCount(c); err != nil {
			t.Fatal(err)
		}
		if got := e.ThreadCount(); got != c {
			t.Fatalf("thread count = %d, want %d", got, c)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, sink, n, 20*time.Second)
	if got := sink.Count(); got != n {
		t.Fatalf("sink received %d, want %d", got, n)
	}
}

func TestSetThreadCountValidation(t *testing.T) {
	g, _ := buildChain(t, 2, 10, 1)
	e, err := New(g, Options{MaxThreads: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.SetThreadCount(0); err == nil {
		t.Fatal("accepted 0 threads")
	}
	if err := e.SetThreadCount(5); err == nil {
		t.Fatal("accepted thread count above max")
	}
	if e.MaxThreads() != 4 {
		t.Fatalf("MaxThreads = %d", e.MaxThreads())
	}
}

func TestApplyPlacementValidation(t *testing.T) {
	g, _ := buildChain(t, 2, 10, 1)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.ApplyPlacement(make([]bool, 2)); err == nil {
		t.Fatal("accepted wrong-length placement")
	}
}

func TestPlacementIgnoresSources(t *testing.T) {
	g, _ := buildChain(t, 2, 10, 1)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	place := make([]bool, g.NumNodes())
	place[0] = true // source
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if e.Placement()[0] {
		t.Fatal("source became dynamic")
	}
	if e.Queues() != 0 {
		t.Fatalf("queues = %d, want 0", e.Queues())
	}
	able := e.Placeable()
	if able[0] || !able[1] {
		t.Fatalf("placeable = %v", able)
	}
}

func TestFanOutDeliversToAllConsumers(t *testing.T) {
	const n = 1000
	g := graph.New()
	gen := spl.NewGenerator("src", 4)
	gen.MaxTuples = n
	src := g.AddSource(gen, nil)
	sinkA := spl.NewCountingSink("a")
	sinkB := spl.NewCountingSink("b")
	a := g.AddOperator(sinkA, nil)
	b := g.AddOperator(sinkB, nil)
	if err := g.Connect(src, 0, a, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect(src, 0, b, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, Options{})
	// Make one consumer dynamic so both paths are exercised.
	place := make([]bool, g.NumNodes())
	place[b] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	start(t, e)
	waitCount(t, sinkA, n, 10*time.Second)
	waitCount(t, sinkB, n, 10*time.Second)
	if sinkA.Count() != n || sinkB.Count() != n {
		t.Fatalf("fan-out counts = %d/%d, want %d/%d", sinkA.Count(), sinkB.Count(), n, n)
	}
}

func TestStatefulOperatorSerialized(t *testing.T) {
	// A round-robin split under the dynamic model with several threads must
	// still distribute exactly evenly, which requires serialization.
	const n = 3000
	width := 3
	g := graph.New()
	gen := spl.NewGenerator("src", 4)
	gen.MaxTuples = n
	src := g.AddSource(gen, nil)
	split := g.AddOperator(spl.NewRoundRobinSplit("split", width), nil)
	if err := g.Connect(src, 0, split, 0, 1); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*spl.CountingSink, width)
	for i := 0; i < width; i++ {
		sinks[i] = spl.NewCountingSink("snk")
		id := g.AddOperator(sinks[i], nil)
		if err := g.Connect(split, i, id, 0, 1.0/float64(width)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, Options{})
	place := make([]bool, g.NumNodes())
	place[split] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	start(t, e)
	total := func() uint64 {
		var s uint64
		for _, snk := range sinks {
			s += snk.Count()
		}
		return s
	}
	deadline := time.Now().Add(15 * time.Second)
	for total() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if total() != n {
		t.Fatalf("total = %d, want %d", total(), n)
	}
	for i, snk := range sinks {
		if snk.Count() != n/uint64(width) {
			t.Fatalf("sink %d received %d, want %d", i, snk.Count(), n/uint64(width))
		}
	}
}

func TestObserveMeasuresThroughput(t *testing.T) {
	g, _ := buildChain(t, 2, 0 /* unbounded */, 10)
	e := startEngine(t, g, Options{AdaptPeriod: 30 * time.Millisecond})
	thr, err := e.Observe()
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatalf("observed throughput %v, want > 0", thr)
	}
	if e.Now() <= 0 {
		t.Fatal("engine clock did not advance")
	}
}

func TestCostMetricIdentifiesHeavyOperator(t *testing.T) {
	// Source -> light(10 FLOPs) -> heavy(2M FLOPs) -> sink; the profiler
	// must attribute far more samples to the heavy operator.
	g := graph.New()
	gen := spl.NewGenerator("src", 4)
	src := g.AddSource(gen, nil)
	lightCV := spl.NewCostVar(10)
	light := g.AddOperator(spl.NewWork("light", lightCV), lightCV)
	heavyCV := spl.NewCostVar(2_000_000)
	heavy := g.AddOperator(spl.NewWork("heavy", heavyCV), heavyCV)
	sink := g.AddOperator(spl.NewCountingSink("snk"), nil)
	for _, c := range [][2]graph.NodeID{{src, light}, {light, heavy}, {heavy, sink}} {
		if err := g.Connect(c[0], 0, c[1], 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	e := startEngine(t, g, Options{AdaptPeriod: 200 * time.Millisecond, ProfilePeriod: 200 * time.Microsecond})
	if _, err := e.Observe(); err != nil {
		t.Fatal(err)
	}
	m := e.CostMetric()
	if m[heavy] <= m[light] {
		t.Fatalf("cost metric heavy=%v <= light=%v", m[heavy], m[light])
	}
}

func TestStartTwiceFails(t *testing.T) {
	g, _ := buildChain(t, 1, 10, 1)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err == nil {
		t.Fatal("second Start succeeded")
	}
}

func TestStopIdempotent(t *testing.T) {
	g, _ := buildChain(t, 1, 10, 1)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	e.Stop()
	e.Stop()
}

func TestWaitIdleOnBoundedStream(t *testing.T) {
	const n = 500
	g, sink := buildChain(t, 3, n, 10)
	e := newEngine(t, g, Options{})
	place := make([]bool, g.NumNodes())
	place[2] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	start(t, e)
	waitCount(t, sink, n, 10*time.Second)
	if !e.WaitIdle(5 * time.Second) {
		t.Fatal("engine did not become idle after the bounded stream finished")
	}
}

// TestCoordinatorDrivesLiveEngine is the end-to-end test: the multi-level
// coordinator adapts a live pipeline with a genuinely hot operator and
// improves its throughput.
func TestCoordinatorDrivesLiveEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("live adaptation test skipped in -short mode")
	}
	g, _ := buildChain(t, 6, 0 /* unbounded */, 20_000)
	e := startEngine(t, g, Options{AdaptPeriod: 50 * time.Millisecond, MaxThreads: 8})
	cfg := core.DefaultConfig()
	cfg.MaxThreads = 8
	coord, err := core.NewCoordinator(e, cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps, settled, err := coord.RunUntilSettled(400)
	if err != nil {
		t.Fatal(err)
	}
	if !settled {
		t.Fatalf("coordinator did not settle on the live engine in %d steps", steps)
	}
	tr := coord.Trace()
	if len(tr) == 0 {
		t.Fatal("empty trace")
	}
	// On a loaded single-CPU host an individual observation window can
	// legitimately measure zero (the source may be descheduled for the
	// whole period), so assert that throughput was observed at all.
	maxThr := 0.0
	for _, e := range tr {
		if e.Throughput > maxThr {
			maxThr = e.Throughput
		}
	}
	if maxThr <= 0 {
		t.Fatal("no throughput recorded in any observation window")
	}
}

func TestWorkerChurnReleasesProfilerStates(t *testing.T) {
	g, _ := buildChain(t, 2, 0, 1)
	e := startEngine(t, g, Options{MaxThreads: 16})
	for i := 0; i < 50; i++ {
		if err := e.SetThreadCount(1 + i%8); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetThreadCount(2); err != nil {
		t.Fatal(err)
	}
	// Give exiting workers a moment to release their states.
	deadline := time.Now().Add(5 * time.Second)
	for e.profiler.RegisteredThreads() > 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// 2 workers + 1 source + 1 reconfig state, plus a small transient
	// allowance.
	if got := e.profiler.RegisteredThreads(); got > 8 {
		t.Fatalf("profiler retains %d thread states after churn", got)
	}
}

func TestDrainAndStop(t *testing.T) {
	// Unbounded source: DrainAndStop must stop emission, finish in-flight
	// tuples, and return cleanly.
	g, sink := buildChain(t, 6, 0, 100)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	place := make([]bool, g.NumNodes())
	for i := 1; i < len(place); i++ {
		place[i] = true
	}
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	if err := e.SetThreadCount(4); err != nil {
		t.Fatal(err)
	}
	waitCount(t, sink, 500, 10*time.Second)
	if !e.DrainAndStop(10 * time.Second) {
		t.Fatal("engine did not drain")
	}
	// After drain, the count must be stable (no tuples lost mid-queue and
	// none still flowing).
	final := sink.Count()
	time.Sleep(50 * time.Millisecond)
	if sink.Count() != final {
		t.Fatal("tuples still flowing after DrainAndStop returned")
	}
}

func TestQueueStats(t *testing.T) {
	g, _ := buildChain(t, 4, 0, 1)
	e, err := New(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	st := e.QueueStats()
	if st.Queues != 0 || st.TotalDepth != 0 {
		t.Fatalf("fresh engine stats %+v", st)
	}
	place := make([]bool, g.NumNodes())
	place[2] = true
	place[3] = true
	if err := e.ApplyPlacement(place); err != nil {
		t.Fatal(err)
	}
	st = e.QueueStats()
	if st.Queues != 2 {
		t.Fatalf("queues = %d, want 2", st.Queues)
	}
	if st.TotalDepth != 0 || st.MaxDepth != 0 {
		t.Fatalf("not-started engine has queued tuples: %+v", st)
	}
}
