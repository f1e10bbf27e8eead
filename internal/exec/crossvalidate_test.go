package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/sim"
	"streamelastic/internal/spl"
)

// measureLive runs the engine under a fixed configuration for window and
// returns the sink throughput. opts lets callers toggle execution-strategy
// knobs (e.g. DisableRegionCompile); MaxThreads defaults to 8.
func measureLive(t *testing.T, g *graph.Graph, place []bool, threads int, window time.Duration, opts Options) float64 {
	t.Helper()
	if opts.MaxThreads == 0 {
		opts.MaxThreads = 8
	}
	e, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if place != nil {
		if err := e.ApplyPlacement(place); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetThreadCount(threads); err != nil {
		t.Fatal(err)
	}
	time.Sleep(window / 4) // warm up
	start := e.SinkCount()
	time.Sleep(window)
	return float64(e.SinkCount()-start) / window.Seconds()
}

// TestSimPredictsLiveOrdering cross-validates the simulated machine against
// the live engine: on a single CPU the dynamic model's queue overheads
// cannot be repaid by parallelism, so manual threading must win — and a
// 1-core simulated machine must predict the same ordering. The live half
// runs at GOMAXPROCS=1 so it measures the machine the sim models, whatever
// the host's core count.
func TestSimPredictsLiveOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation timing test skipped in -short mode")
	}
	// Keep the per-operator compute small relative to the per-crossing copy
	// so the queue overhead the test is about stays a meaningful share of
	// the tuple cost; at compute-bound operating points the ordering sinks
	// into measurement noise.
	g := graph.New()
	gen := spl.NewGenerator("src", 1024)
	prev := g.AddSource(gen, spl.NewCostVar(0))
	for i := 0; i < 6; i++ {
		cv := spl.NewCostVar(500)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	snk := g.AddOperator(spl.NewCountingSink("snk"), nil)
	if err := g.Connect(prev, 0, snk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}

	allDyn := make([]bool, g.NumNodes())
	for i := 1; i < len(allDyn); i++ {
		allDyn[i] = true
	}

	// Simulated prediction on a 1-core machine.
	se, err := sim.New(g, sim.Xeon176().WithCores(1), sim.WithPayload(1024))
	if err != nil {
		t.Fatal(err)
	}
	simManual := se.Throughput()
	if err := se.ApplyPlacement(allDyn); err != nil {
		t.Fatal(err)
	}
	if err := se.SetThreadCount(2); err != nil {
		t.Fatal(err)
	}
	simDynamic := se.Throughput()
	if simManual <= simDynamic {
		t.Fatalf("1-core sim predicts dynamic (%v) >= manual (%v); queue overheads missing from the model",
			simDynamic, simManual)
	}

	// Live measurement on one CPU.
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	liveManual := measureLive(t, g, nil, 1, 400*time.Millisecond, Options{})
	liveDynamic := measureLive(t, g, allDyn, 2, 400*time.Millisecond, Options{})
	if liveManual == 0 || liveDynamic == 0 {
		t.Skip("host too loaded to measure throughput")
	}
	if liveManual < liveDynamic {
		t.Fatalf("live ordering contradicts the model on 1 CPU: manual %v < dynamic %v",
			liveManual, liveDynamic)
	}
}

// TestLiveFusedNotSlowerThanScalar cross-validates the region compiler's
// whole-system effect: the same all-manual chain, measured live with
// compilation on and off, must show the compiled path at least matching the
// interpreted one. The bar is deliberately loose (0.9x, with a noise skip)
// because this is a wall-clock test on a shared host — BenchmarkManualChain
// is where the real speedup is quantified.
func TestLiveFusedNotSlowerThanScalar(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation timing test skipped in -short mode")
	}
	g := graph.New()
	gen := spl.NewGenerator("src", 256)
	prev := g.AddSource(gen, spl.NewCostVar(0))
	for i := 0; i < 8; i++ {
		cv := spl.NewCostVar(100)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	snk := g.AddOperator(spl.NewCountingSink("snk"), nil)
	if err := g.Connect(prev, 0, snk, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	gen.Batch = 64

	scalar := measureLive(t, g, nil, 1, 400*time.Millisecond, Options{DisableRegionCompile: true})
	fused := measureLive(t, g, nil, 1, 400*time.Millisecond, Options{})
	if scalar == 0 || fused == 0 {
		t.Skip("host too loaded to measure throughput")
	}
	if fused < 0.9*scalar {
		t.Fatalf("compiled path slower than interpreted live: fused %v < 0.9 * scalar %v", fused, scalar)
	}
	t.Logf("live tuples/s: fused %.0f, scalar %.0f (%.2fx)", fused, scalar, fused/scalar)
}
