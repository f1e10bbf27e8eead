package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamelastic/internal/pe"
)

// short returns a run of a generated shape with the small sizes the tests
// share: 64-byte payloads, four scheduler threads, 100ms adaptation periods,
// one PE.
func short(shape string, ops int, flops float64, d time.Duration) runConfig {
	return runConfig{
		shape: shape, ops: ops, width: 4, depth: 8, payload: 64, flops: flops, batch: 1,
		maxThreads: 4, duration: d, period: 100 * time.Millisecond, pes: 1,
	}
}

func TestRunPipelineLive(t *testing.T) {
	c := short("pipeline", 10, 5000, 1500*time.Millisecond)
	c.batch = 8
	c.trace = true
	c.sched = schedConfig{localQ: 128, stats: true}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunSkewedBushy(t *testing.T) {
	c := short("bushy", 0, 100, 1200*time.Millisecond)
	c.skewed = true
	c.maxThreads = 2
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiPE(t *testing.T) {
	c := short("pipeline", 8, 5000, 1500*time.Millisecond)
	c.batch = 4
	c.pes = 2
	c.transport = pe.TransportConfig{FlushBytes: 8 << 10, MaxFlushDelay: 500 * time.Microsecond}
	c.res = resilienceConfig{watchdog: true, panicBudget: 2}
	c.streamStats = true
	c.sched.stats = true
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunCluster(t *testing.T) {
	c := short("pipeline", 8, 2000, 2500*time.Millisecond)
	c.batch = 4
	c.maxThreads = 2
	c.clusterSpec = "2:4"
	c.clusterCycle = time.Second
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunClusterBadSpec(t *testing.T) {
	c := short("pipeline", 8, 2000, time.Second)
	c.clusterSpec = "4:2"
	if err := run(c); err == nil {
		t.Fatal("inverted width spec accepted")
	}
}

func TestRunUnknownShape(t *testing.T) {
	if err := run(short("triangle", 10, 100, time.Second)); err == nil {
		t.Fatal("unknown shape accepted")
	}
}

func TestSchedConfigValidate(t *testing.T) {
	for _, bad := range []int{1, 3, 100, -4} {
		if err := (schedConfig{localQ: bad}).validate(); err == nil {
			t.Fatalf("-localq %d accepted", bad)
		}
		c := short("pipeline", 4, 100, 300*time.Millisecond)
		c.sched.localQ = bad
		if err := run(c); err == nil {
			t.Fatalf("run accepted -localq %d", bad)
		}
	}
	for _, good := range []int{0, 2, 256, 1 << 12} {
		if err := (schedConfig{localQ: good}).validate(); err != nil {
			t.Fatalf("-localq %d rejected: %v", good, err)
		}
	}
	// Validation guards the engine's own check: a capacity that passes here
	// must be accepted by run too.
	c := short("pipeline", 4, 100, 300*time.Millisecond)
	c.maxThreads = 2
	c.sched.localQ = 64
	if err := run(c); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithObs(t *testing.T) {
	dir := t.TempDir()
	c := short("pipeline", 6, 2000, 1200*time.Millisecond)
	c.batch = 4
	c.maxThreads = 2
	c.obs = obsConfig{
		metricsAddr: "127.0.0.1:0",
		flightPath:  dir + "/flight.txt",
		tracePath:   dir + "/trace.json",
		sample:      8,
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	flight, err := os.ReadFile(c.obs.flightPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(flight), "=== flight-recorder dump (exit) ===") {
		t.Fatalf("flight dump malformed:\n%s", flight)
	}
	trace, err := os.ReadFile(c.obs.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace output carries no events")
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/topo.txt"
	src := "source s generator payload=64 cost=100\nop w work flops=5000\nop k sink\nedge s -> w\nedge w -> k\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	file := func(p string, d time.Duration) runConfig {
		return runConfig{file: p, maxThreads: 4, duration: d, period: 100 * time.Millisecond, pes: 1}
	}
	c := file(path, 1200*time.Millisecond)
	c.trace = true
	c.sched.stats = true
	if err := run(c); err != nil {
		t.Fatal(err)
	}

	// The file runs through the same launch path as a generated shape, so
	// it splits across PEs and checkpoints like one.
	ckpt := t.TempDir()
	c = file(path, 1200*time.Millisecond)
	c.pes = 2
	c.res = resilienceConfig{checkpoint: true, ckptDir: ckpt, ckptInterval: 200 * time.Millisecond}
	c.streamStats = true
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	for _, log := range []string{"pe0.ckpt", "pe1.ckpt"} {
		if _, err := os.Stat(filepath.Join(ckpt, log)); err != nil {
			t.Fatalf("checkpoint log %s: %v", log, err)
		}
	}

	if err := run(file(dir+"/missing.txt", time.Second)); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := dir + "/bad.txt"
	if err := os.WriteFile(bad, []byte("gibberish"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(file(bad, time.Second)); err == nil {
		t.Fatal("bad topology accepted")
	}
	c = file(path, time.Second)
	c.pes = 4
	if err := run(c); err == nil {
		t.Fatal("more PEs than operators accepted")
	}
}
