package metrics

import "sync/atomic"

// SchedCounters is one party's view of the work-stealing scheduler: every
// engine worker, source loop, and the reconfiguration emitter owns a private
// group, so the hot path increments plain atomics with no sharing. The
// engine sums groups on demand into a SchedSnapshot.
//
// The struct is padded to its own cache line so adjacent workers' counters
// never false-share.
type SchedCounters struct {
	// LocalPushes counts tuples a worker pushed onto its own deque (the
	// emit-affinity fast path).
	LocalPushes atomic.Uint64
	// LocalPops counts tuples a worker popped back off its own deque.
	LocalPops atomic.Uint64
	// Steals counts successful StealHalf calls; StolenTuples counts the
	// tuples they moved.
	Steals       atomic.Uint64
	StolenTuples atomic.Uint64
	// Overflows counts tuples a worker diverted to the shared MPMC queue
	// because its deque was full.
	Overflows atomic.Uint64
	// Injected counts tuples entering through the shared queues from outside
	// the worker pool: sources, imports, and reconfiguration drains.
	Injected atomic.Uint64
	// Parks counts times a worker went to sleep; Wakes counts wake tokens
	// granted to parked workers.
	Parks atomic.Uint64
	Wakes atomic.Uint64
	// FusedBatches counts batches executed through a compiled region
	// program; FusedTuples counts the tuples that entered those batches.
	FusedBatches atomic.Uint64
	FusedTuples  atomic.Uint64
	// SourceFlips is a source loop's activity marker: it is bumped when
	// the source starts emitting and again when a turn of it emits nothing
	// (an import polling a quiet stream) or its loop exits, so an odd value
	// means the source is still producing. Not part of SchedSnapshot.
	SourceFlips atomic.Uint64

	_ [64]byte
}

// SchedSnapshot is a point-in-time sum of scheduler counters, cumulative
// since engine construction.
type SchedSnapshot struct {
	LocalPushes  uint64 `json:"local_pushes"`
	LocalPops    uint64 `json:"local_pops"`
	Steals       uint64 `json:"steals"`
	StolenTuples uint64 `json:"stolen_tuples"`
	Overflows    uint64 `json:"overflows"`
	Injected     uint64 `json:"injected"`
	Parks        uint64 `json:"parks"`
	Wakes        uint64 `json:"wakes"`
	FusedBatches uint64 `json:"fused_batches"`
	FusedTuples  uint64 `json:"fused_tuples"`
}

// Snapshot reads the counter group. Each load is individually atomic; the
// group as a whole is a racy-but-monotonic view, which is all the status
// surfaces need.
func (c *SchedCounters) Snapshot() SchedSnapshot {
	return SchedSnapshot{
		LocalPushes:  c.LocalPushes.Load(),
		LocalPops:    c.LocalPops.Load(),
		Steals:       c.Steals.Load(),
		StolenTuples: c.StolenTuples.Load(),
		Overflows:    c.Overflows.Load(),
		Injected:     c.Injected.Load(),
		Parks:        c.Parks.Load(),
		Wakes:        c.Wakes.Load(),
		FusedBatches: c.FusedBatches.Load(),
		FusedTuples:  c.FusedTuples.Load(),
	}
}

// Merge adds o into s.
func (s *SchedSnapshot) Merge(o SchedSnapshot) {
	s.LocalPushes += o.LocalPushes
	s.LocalPops += o.LocalPops
	s.Steals += o.Steals
	s.StolenTuples += o.StolenTuples
	s.Overflows += o.Overflows
	s.Injected += o.Injected
	s.Parks += o.Parks
	s.Wakes += o.Wakes
	s.FusedBatches += o.FusedBatches
	s.FusedTuples += o.FusedTuples
}
