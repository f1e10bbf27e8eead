package experiments

import (
	"fmt"
	"io"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/sim"
	"streamelastic/internal/workload"
)

// WarmRestartResult compares cold adaptation against a warm start from a
// configuration snapshot.
type WarmRestartResult struct {
	// ColdSettle is the settle time of full adaptation from scratch.
	ColdSettle time.Duration
	// ColdThroughput is the cold run's converged throughput.
	ColdThroughput float64
	// WarmSettle is the settle time when restoring the cold run's
	// snapshot (one observation period).
	WarmSettle time.Duration
	// WarmThroughput is the warm-started configuration's throughput.
	WarmThroughput float64
}

// WarmRestart demonstrates configuration snapshots (an extension beyond the
// paper): a PE restart that restores the learned placement and thread count
// skips the entire adaptation period. The paper's premise — long-running
// applications amortize adaptation — gets even stronger when restarts don't
// pay it again.
func WarmRestart() (*WarmRestartResult, error) {
	wcfg := workload.DefaultConfig()
	wcfg.Skewed = true
	wcfg.PayloadBytes = 1024
	b, err := workload.Pipeline(500, wcfg)
	if err != nil {
		return nil, err
	}
	m := sim.Xeon176().WithCores(88)

	cold, err := sim.New(b.Graph, m, sim.WithPayload(1024))
	if err != nil {
		return nil, err
	}
	coord, err := core.NewCoordinator(cold, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if _, ok, err := coord.RunUntilSettled(maxSteps); err != nil || !ok {
		return nil, fmt.Errorf("warmrestart: cold run failed: %v", err)
	}
	tr := coord.Trace()
	res := &WarmRestartResult{
		ColdSettle:     coord.SettleTime(),
		ColdThroughput: tr[len(tr)-1].Throughput,
	}
	snap := coord.ConfigSnapshot()

	warm, err := sim.New(b.Graph, m, sim.WithPayload(1024))
	if err != nil {
		return nil, err
	}
	wcoord, err := core.NewCoordinator(warm, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	if err := wcoord.Restore(snap); err != nil {
		return nil, err
	}
	if _, ok, err := wcoord.RunUntilSettled(10); err != nil || !ok {
		return nil, fmt.Errorf("warmrestart: warm run did not settle immediately: %v", err)
	}
	wtr := wcoord.Trace()
	res.WarmSettle = wcoord.SettleTime()
	res.WarmThroughput = wtr[len(wtr)-1].Throughput
	return res, nil
}

// Fprint renders the comparison.
func (r *WarmRestartResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Warm restart from a configuration snapshot (extension)")
	fmt.Fprintf(w, "cold adaptation: settle %.0fs at %.0f/s\n", r.ColdSettle.Seconds(), r.ColdThroughput)
	fmt.Fprintf(w, "warm restart:    settle %.0fs at %.0f/s (%.0fx faster)\n",
		r.WarmSettle.Seconds(), r.WarmThroughput, r.ColdSettle.Seconds()/r.WarmSettle.Seconds())
}
