// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the composed system (generator -> engine / PEs / cluster ->
// sink) in this process, checks every delivered tuple, and prints the
// end-to-end metrics; with --trace 1 it instead runs the workload untraced
// and traced and prints the per-layer table, writing the spans as a Chrome
// trace.
//
//	bash perfbench/run.sh --workload fanin-dynamic --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// outDir holds the per-run result files and trace files, relative to the
// working directory.
const outDir = ".perfbench-out"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fanin-dynamic, pipeline-elastic, keyed-wire-ckpt or cluster-resize")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadNamed(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	window := time.Duration(*seconds) * time.Second

	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, window)
	} else {
		res, err = runUntraced(w, *seed, window)
	}
	if err != nil {
		return err
	}
	res.Provenance = provenance(w.name, *seed, *trace)
	return report(res)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Metrics go on the last output line; Extra
// (metrics that apply to only some workloads, or counts behind a metric)
// and Provenance are printed above it and kept in the result file.
type result struct {
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Extra      map[string]metric `json:"extra,omitempty"`
	Check      string            `json:"check"`
	Provenance map[string]string `json:"provenance"`
}

// An untraced run measures trials fresh instances of its workload, each for
// an equal share of the window, and times setupReps set-ups spread over
// them. Medians over fresh instances damp what varies per instance: the
// elastic controller's outcome, the fleet layout a cluster resize picks,
// GC pacing, and the swings a shared host adds to a CPU-bound closed loop.
const (
	trials    = 5
	setupReps = 25
)

// runUntraced measures the end-to-end metrics with no benchmark wrapper in
// the system: the median throughput, CPU cost and set-up time over the
// trials, the process's peak RSS, and the other figures of the
// median-throughput trial.
func runUntraced(w workloadDef, seed int64, window time.Duration) (result, error) {
	var passes []*pass
	var setups, tps, cpu []float64
	var attempted, failed uint64
	var notes []string
	for i := 0; i < trials; i++ {
		p, err := runPass(w, seed, window/time.Duration(trials), nil, setupReps/trials)
		if err != nil {
			return result{}, err
		}
		// Collect the finished instance before the next trial starts, so
		// trials do not pile garbage into the run's peak RSS.
		runtime.GC()
		passes = append(passes, p)
		setups = append(setups, p.setups...)
		tps = append(tps, p.tps)
		cpu = append(cpu, p.cpuPerM)
		attempted += p.attempted
		failed += p.failed
		notes = append(notes, p.note)
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].tps < passes[j].tps })
	p := passes[len(passes)/2]
	res := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Check: strings.Join(notes, "; "),
		Metrics: map[string]metric{
			"throughput_tps":   {median(tps), "tuples/s"},
			"cpu_s_per_mtuple": {median(cpu), "s"},
			"peak_rss_mb":      {peakRSSMiB(), "MiB"},
			"setup_s":          {median(setups), "s"},
		},
		Extra: map[string]metric{
			"latency_p50_ms":  {p.latP50, "ms"},
			"latency_p99_ms":  {p.latP99, "ms"},
			"latency_samples": {float64(p.latSamples), "count"},
			"failed_ratio":    {float64(failed) / float64(max(attempted, 1)), "ratio"},
			// How much of the machine the process got: a closed loop far
			// below 1 was starved by something outside the benchmark.
			"cpu_util": {p.cpuUtil, "ratio"},
		},
	}
	for i, tp := range passes {
		fmt.Printf("# trial %d: throughput_tps=%.0f cpu_s_per_mtuple=%.4f\n", i, tp.tps, tp.cpuPerM)
	}
	res.Extra["throughput_tps_min"] = metric{passes[0].tps, "tuples/s"}
	if w.openLoop {
		res.Extra["gen_lag_ms"] = metric{p.genLagMs, "ms"}
	}
	if p.settleS > 0 {
		// The coordinator's outcome: a trial that ends with no scheduler
		// queue settled all-manual.
		allManual := 0
		for i, tp := range passes {
			fmt.Printf("# trial %d: final_queues=%d settle_s=%.3f\n", i, tp.finalQueues, tp.settleS)
			if tp.finalQueues == 0 {
				allManual++
			}
		}
		res.Extra["settle_s"] = metric{p.settleS, "s"}
		res.Extra["final_queues"] = metric{float64(p.finalQueues), "count"}
		res.Extra["all_manual_trials"] = metric{float64(allManual), "count"}
	}
	if len(p.growMs) > 0 {
		res.Extra["grow_settle_ms"] = metric{mean(p.growMs), "ms"}
		res.Extra["shrink_settle_ms"] = metric{mean(p.shrinkMs), "ms"}
		res.Extra["resize_cycles"] = metric{float64(len(p.growMs)), "count"}
	}
	return res, nil
}

// runTraced runs the workload untraced and then traced, each for half the
// window, and reports the per-layer metrics from the traced pass, the
// tracing overhead (traced vs untraced pass), and from the untraced pass
// the end-to-end figures that exist on only some workloads (latency, lag,
// settle times). pipeline-elastic adds a one-thread all-manual pass, the
// baseline of core.speedup_vs_manual.
func runTraced(w workloadDef, seed int64, window time.Duration) (result, error) {
	half := window / 2
	plain, err := runPass(w, seed, half, nil, 1)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	traced, err := runPass(w, seed, half, tr, 1)
	if err != nil {
		return result{}, err
	}
	layers := traced.layers
	layers["trace.tps_ratio"] = ratio(traced.tps, plain.tps)
	layers["trace.cpu_ratio"] = ratio(traced.cpuPerM, plain.cpuPerM)
	layers["core.settle_s"] = plain.settleS
	layers["e2e.latency_p50_ms"] = plain.latP50
	layers["e2e.latency_p99_ms"] = plain.latP99
	if w.openLoop {
		layers["gen.lag_ms"] = plain.genLagMs
	}
	layers["cluster.grow_settle_ms"] = mean(plain.growMs)
	layers["cluster.shrink_settle_ms"] = mean(plain.shrinkMs)
	attempted, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	check := "untraced: " + plain.note + "; traced: " + traced.note
	if w.name == "pipeline-elastic" {
		manual, err := runPass(workloadDef{
			name:  "pipeline-manual",
			build: func(seed int64, _ *tracer) (*system, error) { return buildPipelineManual(seed) },
			warm:  warmFor(500 * time.Millisecond),
			drive: holdWindow,
		}, seed, half, nil, 1)
		if err != nil {
			return result{}, err
		}
		layers["core.speedup_vs_manual"] = ratio(plain.tps, manual.tps)
		attempted, failed = attempted+manual.attempted, failed+manual.failed
		check += "; manual: " + manual.note
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	if err := writeChromeTrace(path, tr, tr.recorded()); err != nil {
		return result{}, fmt.Errorf("write trace: %w", err)
	}
	res := result{
		Correct: failed == 0, Attempted: attempted, Failed: failed, Check: check,
		Metrics: make(map[string]metric, len(layers)),
		Extra: map[string]metric{
			"untraced_throughput_tps":   {plain.tps, "tuples/s"},
			"traced_throughput_tps":     {traced.tps, "tuples/s"},
			"untraced_cpu_s_per_mtuple": {plain.cpuPerM, "s"},
			"traced_cpu_s_per_mtuple":   {traced.cpuPerM, "s"},
		},
	}
	for name, v := range layers {
		res.Metrics[name] = metric{v, layerUnits[name]}
	}
	fmt.Printf("# spans written to %s\n", path)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func provenance(workload string, seed int64, trace int) map[string]string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]string{
		"workload":   workload,
		"seed":       fmt.Sprint(seed),
		"trace":      fmt.Sprint(trace),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// report prints the metrics table, writes the result file and prints the
// last-line JSON.
func report(res result) error {
	pv := res.Provenance
	fmt.Printf("# workload=%s seed=%s trace=%s gomaxprocs=%s nproc=%s go=%s commit=%s\n",
		pv["workload"], pv["seed"], pv["trace"], pv["gomaxprocs"], pv["nproc"], pv["go"], pv["commit"])
	fmt.Printf("# check: correct=%v attempted=%d failed=%d (%s)\n", res.Correct, res.Attempted, res.Failed, res.Check)
	for _, group := range []map[string]metric{res.Metrics, res.Extra} {
		for _, name := range sortedKeys(group) {
			fmt.Printf("%-32s %16.6f %s\n", name, group[name].Value, group[name].Unit)
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s-seed%s-trace%s.json", pv["workload"], pv["seed"], pv["trace"]))
	if err := os.WriteFile(file, append(full, '\n'), 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
