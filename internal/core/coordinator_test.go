package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func settleCoordinator(t *testing.T, f *fakeEngine, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.RunUntilSettled(2000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("coordinator did not settle within 2000 steps")
	}
	return c
}

func TestCoordinatorResetsEngineToMinimum(t *testing.T) {
	f := heavyLightEngine()
	if err := f.SetThreadCount(16); err != nil {
		t.Fatal(err)
	}
	all := make([]bool, f.NumOperators())
	for i := 1; i < len(all); i++ {
		all[i] = true
	}
	if err := f.ApplyPlacement(all); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(f, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if f.ThreadCount() != 2 {
		t.Fatalf("thread count after reset = %d, want 2", f.ThreadCount())
	}
	if f.dynCount() != 0 {
		t.Fatalf("placement after reset has %d dynamic ops, want 0", f.dynCount())
	}
}

func TestCoordinatorRejectsBadConfig(t *testing.T) {
	f := heavyLightEngine()
	bad := []Config{
		{Sens: -1, GroupBase: 10, MinThreads: 1},
		{Sens: 0.05, GroupBase: 1, MinThreads: 1},
		{Sens: 0.05, GroupBase: 10, MinThreads: 0},
		{Sens: 0.05, GroupBase: 10, MinThreads: 1, MaxThreads: -1},
		{Sens: 0.05, GroupBase: 10, MinThreads: 1, SatisfactionThreshold: 2},
		{Sens: 0.05, GroupBase: 10, MinThreads: 1, WorkloadChangeSens: -0.1},
	}
	for i, cfg := range bad {
		if _, err := NewCoordinator(f, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestCoordinatorSettlesAndImproves(t *testing.T) {
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())

	trace := c.Trace()
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	first := trace[0].Throughput
	final := trace[len(trace)-1].Throughput
	if final < first*2 {
		t.Fatalf("converged throughput %v is not at least 2x initial %v", final, first)
	}
	// The heavy operators must have been made dynamic.
	place := f.Placement()
	for op := 1; op <= 4; op++ {
		if !place[op] {
			t.Fatalf("heavy op %d manual at convergence: %v", op, place)
		}
	}
	if f.ThreadCount() < 2 {
		t.Fatalf("thread count %d at convergence, want > 1", f.ThreadCount())
	}
	if !c.Settled() {
		t.Fatal("Settled() = false after RunUntilSettled succeeded")
	}
	if c.SettleTime() <= 0 {
		t.Fatal("settle time not recorded")
	}
}

func TestCoordinatorAccuracyNearOptimum(t *testing.T) {
	// Accuracy (SASO): the converged throughput must be close to the best
	// achievable configuration, found here by exhaustive search over
	// (heavy-dynamic-count, light-dynamic-count, threads).
	f := heavyLightEngine()
	best := 0.0
	for h := 0; h <= 4; h++ {
		for l := 0; l <= 8; l++ {
			for threads := 1; threads <= 32; threads++ {
				p := make([]bool, f.NumOperators())
				for i := 1; i <= h; i++ {
					p[i] = true
				}
				for i := 5; i < 5+l; i++ {
					p[i] = true
				}
				copy(f.placement, p)
				f.threads = threads
				if thr := f.throughput(); thr > best {
					best = thr
				}
			}
		}
	}
	f2 := heavyLightEngine()
	c := settleCoordinator(t, f2, DefaultConfig())
	tr := c.Trace()
	final := tr[len(tr)-1].Throughput
	if final < 0.8*best {
		t.Fatalf("converged throughput %v < 80%% of optimum %v", final, best)
	}
}

func TestCoordinatorNoOvershootAtConvergence(t *testing.T) {
	// Avoiding overshoot (SASO): once settled, the thread count must not
	// exceed the maximum explored during adaptation, and must be at most
	// what the pool can use.
	f := poolEngine(32, 9, 128)
	c := settleCoordinator(t, f, DefaultConfig())
	maxExplored := 0
	for _, e := range c.Trace() {
		if e.Threads > maxExplored {
			maxExplored = e.Threads
		}
	}
	if f.ThreadCount() > maxExplored {
		t.Fatalf("converged threads %d exceed explored max %d", f.ThreadCount(), maxExplored)
	}
	if f.ThreadCount() > 16 {
		t.Fatalf("converged threads %d overshoot the 8-thread saturation", f.ThreadCount())
	}
}

func TestCoordinatorStability(t *testing.T) {
	// Stability (SASO): after settling, continued steps must not change
	// the configuration when the workload is steady.
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	place := f.Placement()
	threads := f.ThreadCount()
	for i := 0; i < 50; i++ {
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !placementsEqual(place, f.Placement()) || threads != f.ThreadCount() {
		t.Fatal("configuration changed while settled under steady workload")
	}
}

func TestCoordinatorWorkloadChangeTriggersReadaptation(t *testing.T) {
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	settledThreads := f.ThreadCount()

	// Halve the throughput of every configuration: a workload phase
	// change. The coordinator must detect it and re-adapt.
	f.perturb = func(thr float64) float64 { return thr * 0.4 }
	resettled := false
	for i := 0; i < 2000; i++ {
		settled, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !settled {
			resettled = true // left the settled state at least once
		}
		if resettled && settled {
			break
		}
	}
	if !resettled {
		t.Fatal("workload change did not trigger re-adaptation")
	}
	if !c.Settled() {
		t.Fatal("coordinator did not re-settle after workload change")
	}
	_ = settledThreads
}

func TestCoordinatorSatisfactionSkipsTMRuns(t *testing.T) {
	f1 := poolEngine(64, 128, 128)
	cfgNoSat := DefaultConfig()
	cfgNoSat.UseSatisfaction = false
	cfgNoSat.UseHistory = false
	c1 := settleCoordinator(t, f1, cfgNoSat)

	f2 := poolEngine(64, 128, 128)
	cfgSat := DefaultConfig()
	cfgSat.UseSatisfaction = true
	cfgSat.UseHistory = false
	cfgSat.SatisfactionThreshold = 0
	c2 := settleCoordinator(t, f2, cfgSat)

	if c2.Stats().TMRuns >= c1.Stats().TMRuns {
		t.Fatalf("satisfaction factor did not reduce TM runs: %d vs %d",
			c2.Stats().TMRuns, c1.Stats().TMRuns)
	}
	if c2.Stats().TMRunsSkipped == 0 {
		t.Fatal("no skips recorded with satisfaction factor enabled")
	}
}

func TestCoordinatorHistoryShortensAdaptation(t *testing.T) {
	f1 := heavyLightEngine()
	cfgNo := DefaultConfig()
	cfgNo.UseHistory = false
	cfgNo.UseSatisfaction = false
	c1, err := NewCoordinator(f1, cfgNo)
	if err != nil {
		t.Fatal(err)
	}
	steps1, ok, err := c1.RunUntilSettled(2000)
	if err != nil || !ok {
		t.Fatalf("baseline did not settle: %v", err)
	}

	f2 := heavyLightEngine()
	cfgHist := DefaultConfig()
	cfgHist.UseHistory = true
	cfgHist.UseSatisfaction = false
	c2, err := NewCoordinator(f2, cfgHist)
	if err != nil {
		t.Fatal(err)
	}
	steps2, ok, err := c2.RunUntilSettled(2000)
	if err != nil || !ok {
		t.Fatalf("history run did not settle: %v", err)
	}
	if steps2 > steps1 {
		t.Fatalf("history lengthened adaptation: %d vs %d steps", steps2, steps1)
	}
	if c2.Stats().HistoryEntries == 0 {
		t.Fatal("no history entries recorded")
	}
}

func TestCoordinatorObserveErrorPropagates(t *testing.T) {
	f := heavyLightEngine()
	c, err := NewCoordinator(f, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f.failObserve = true
	if _, err := c.Step(); err == nil {
		t.Fatal("observe failure did not propagate")
	}
}

func TestCoordinatorRunHonorsContext(t *testing.T) {
	f := heavyLightEngine()
	c, err := NewCoordinator(f, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.Run(ctx); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

func TestCoordinatorTraceCSV(t *testing.T) {
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	var buf bytes.Buffer
	var tr Trace
	for _, e := range c.Trace() {
		tr.add(e)
	}
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != tr.Len()+1 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), tr.Len()+1)
	}
	if !strings.HasPrefix(lines[0], "time_s,") {
		t.Fatalf("missing header: %q", lines[0])
	}
}

func TestHistoryDirection(t *testing.T) {
	var h history
	p := []bool{true, false}
	if h.direction(p, 8) != DirUp {
		t.Fatal("empty history must default to DirUp")
	}
	h.noteChange(p, 8)
	h.noteStay(p, 16)
	if d := h.direction(p, 12); d != DirNone {
		t.Fatalf("direction inside [8,16] = %v, want none", d)
	}
	if d := h.direction(p, 32); d != DirUp {
		t.Fatalf("direction above range = %v, want up", d)
	}
	if d := h.direction(p, 4); d != DirDown {
		t.Fatalf("direction below range = %v, want down", d)
	}
	other := []bool{false, true}
	if d := h.direction(other, 12); d != DirUp {
		t.Fatalf("direction for unknown placement = %v, want up", d)
	}
	h.noteStay(other, 4) // creates a new entry since placement differs
	if h.Len() != 2 {
		t.Fatalf("history length = %d, want 2", h.Len())
	}
	h.clear()
	if h.Len() != 0 {
		t.Fatal("clear left entries behind")
	}
}

func TestRelDeviation(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{0, 0, 0},
		{5, 0, 1},
	}
	for _, c := range cases {
		if got := relDeviation(c.a, c.b); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Fatalf("relDeviation(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Sens != 0.05 {
		t.Fatalf("default SENS = %v, want 0.05 (§3.1.1)", cfg.Sens)
	}
	if !cfg.UseHistory || !cfg.UseSatisfaction {
		t.Fatal("default config must enable both §3.3 optimizations")
	}
	if cfg.MinThreads != 2 {
		t.Fatalf("default MinThreads = %d, want 2 (Fig. 5a: two initially idle scheduler threads)", cfg.MinThreads)
	}
}

func TestCoordinatorSettleTimeMonotonicClock(t *testing.T) {
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	tr := c.Trace()
	var prev time.Duration = -1
	for i, e := range tr {
		if e.Time <= prev {
			t.Fatalf("trace time not strictly increasing at %d: %v <= %v", i, e.Time, prev)
		}
		prev = e.Time
	}
}

func TestConfigSnapshotWarmStart(t *testing.T) {
	// Converge once and capture the configuration.
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	snap := c.ConfigSnapshot()
	if snap.Threads != f.ThreadCount() || len(snap.Placement) != f.NumOperators() {
		t.Fatalf("snapshot %+v does not match engine", snap)
	}
	if snap.Throughput <= 0 {
		t.Fatal("snapshot throughput not recorded")
	}

	// Warm-start a fresh engine from the snapshot: it must be settled
	// after a single observation, at the converged configuration.
	f2 := heavyLightEngine()
	c2, err := NewCoordinator(f2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	settled, err := c2.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !settled {
		t.Fatal("warm-started coordinator not settled after one observation")
	}
	if f2.ThreadCount() != snap.Threads {
		t.Fatalf("threads = %d, want %d", f2.ThreadCount(), snap.Threads)
	}
	if !placementsEqual(f2.Placement(), snap.Placement) {
		t.Fatal("placement not restored")
	}
	// Workload-change monitoring still works from the warm state.
	f2.perturb = func(thr float64) float64 { return thr * 0.3 }
	left := false
	for i := 0; i < 500; i++ {
		s, err := c2.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !s {
			left = true
			break
		}
	}
	if !left {
		t.Fatal("warm-started coordinator ignored a workload change")
	}
}

func TestConfigSnapshotRoundTripsJSON(t *testing.T) {
	f := heavyLightEngine()
	c := settleCoordinator(t, f, DefaultConfig())
	snap := c.ConfigSnapshot()
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back ConfigSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Threads != snap.Threads || !placementsEqual(back.Placement, snap.Placement) {
		t.Fatalf("JSON round trip mismatch: %+v vs %+v", back, snap)
	}
}

func TestRestoreValidation(t *testing.T) {
	f := heavyLightEngine()
	c, err := NewCoordinator(f, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := f.NumOperators()
	for _, bad := range []struct {
		name string
		snap ConfigSnapshot
	}{
		{"short placement", ConfigSnapshot{Placement: make([]bool, 2), Threads: 1}},
		{"long placement", ConfigSnapshot{Placement: make([]bool, n+1), Threads: 1}},
		{"zero threads", ConfigSnapshot{Placement: make([]bool, n), Threads: 0}},
		{"threads above engine max", ConfigSnapshot{Placement: make([]bool, n), Threads: f.MaxThreads() + 1}},
	} {
		if err := c.Restore(bad.snap); err == nil {
			t.Fatalf("%s: snapshot accepted", bad.name)
		}
	}
	// A rejected snapshot leaves the coordinator usable: a valid one is
	// still accepted, and the first observation settles on it.
	placement := make([]bool, n)
	placement[n-1] = true
	if err := c.Restore(ConfigSnapshot{Placement: placement, Threads: 2}); err != nil {
		t.Fatal(err)
	}
	settled, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !settled {
		t.Fatal("restored coordinator not settled after its first observation")
	}
	if tr := c.Trace(); len(tr) != 1 || tr[0].Phase != PhaseSettled {
		t.Fatalf("first observation trace = %+v, want one settled event", tr)
	}
	if f.ThreadCount() != 2 || !placementsEqual(f.Placement(), placement) {
		t.Fatalf("restored configuration T=%d placement=%v", f.ThreadCount(), f.Placement())
	}
	// Once adaptation has begun, restoring is refused.
	if err := c.Restore(ConfigSnapshot{Placement: make([]bool, n), Threads: 1}); err == nil {
		t.Fatal("restore after the first step accepted")
	}
}
