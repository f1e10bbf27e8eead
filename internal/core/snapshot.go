package core

import "fmt"

// ConfigSnapshot captures a converged elastic configuration so a restarted
// PE can warm-start with its learned threading model and thread count
// instead of re-exploring from scratch. Long-running streaming applications
// restart for upgrades and failures; re-learning a configuration that took
// minutes to find is wasted adaptation.
type ConfigSnapshot struct {
	// Placement is the threading-model choice per operator.
	Placement []bool `json:"placement"`
	// Threads is the scheduler-thread count.
	Threads int `json:"threads"`
	// Throughput is the settled throughput when the snapshot was taken,
	// informational only.
	Throughput float64 `json:"throughput"`
}

// ConfigSnapshot captures the engine's current configuration together with
// the last settled throughput.
func (c *Coordinator) ConfigSnapshot() ConfigSnapshot {
	c.mu.Lock()
	thr := c.settledThr
	c.mu.Unlock()
	return ConfigSnapshot{
		Placement:  c.eng.Placement(),
		Threads:    c.eng.ThreadCount(),
		Throughput: thr,
	}
}

// Restore applies a snapshot to the engine and puts the coordinator in the
// settled state: the next observation measures the restored configuration
// and settles on it, and from then on the coordinator re-adapts only when
// the workload deviates, exactly as if it had converged to the snapshot
// itself. It must be called before the first Step.
func (c *Coordinator) Restore(snap ConfigSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.trace.Len() > 0 {
		return fmt.Errorf("core: restore after adaptation began")
	}
	if len(snap.Placement) != c.eng.NumOperators() {
		return fmt.Errorf("core: snapshot covers %d operators, engine has %d",
			len(snap.Placement), c.eng.NumOperators())
	}
	if snap.Threads < 1 || snap.Threads > c.eng.MaxThreads() {
		return fmt.Errorf("core: snapshot thread count %d outside [1, %d]",
			snap.Threads, c.eng.MaxThreads())
	}
	if err := c.eng.ApplyPlacement(snap.Placement); err != nil {
		return fmt.Errorf("restore placement: %w", err)
	}
	if err := c.eng.SetThreadCount(snap.Threads); err != nil {
		return fmt.Errorf("restore thread count: %w", err)
	}
	c.initialTMDone = true
	c.settleNext = true
	return nil
}
