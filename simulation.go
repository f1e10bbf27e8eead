package streamelastic

import (
	"fmt"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/sim"
)

// Machine describes a simulated host: core count and the cost constants of
// the performance model (copy bandwidth, queue synchronization, scan and
// contention costs).
type Machine = sim.Machine

// Xeon176 models the paper's 176-logical-core Xeon system.
func Xeon176() Machine { return sim.Xeon176() }

// Power8 models the paper's 184-logical-core Power8 system.
func Power8() Machine { return sim.Power8() }

// SimOptions configure a simulation.
type SimOptions struct {
	// PayloadBytes is the tuple payload size the model charges for queue
	// copies.
	PayloadBytes int
	// Period is the virtual adaptation period (default 5s, the paper's).
	Period time.Duration
	// MaxThreads caps the thread exploration (default 2x cores).
	MaxThreads int
	// Seed drives the deterministic measurement noise.
	Seed uint64
	// Elastic tunes the controllers; zero value means
	// DefaultElasticConfig.
	Elastic ElasticConfig
	// WarmStart restores a previously captured configuration; the
	// simulation starts settled there (see RuntimeOptions.WarmStart).
	WarmStart *ConfigSnapshot
}

// Simulation adapts a topology on a simulated machine: a thousand-second
// adaptation on a hundred-core host replays in microseconds,
// deterministically. Use it for capacity planning, controller tuning and
// reproducing the paper's experiments.
type Simulation struct {
	eng   *sim.Engine
	coord *core.Coordinator
}

// NewSimulation validates the topology and prepares a simulation on m.
func NewSimulation(t *Topology, m Machine, opts SimOptions) (*Simulation, error) {
	g, err := t.freeze()
	if err != nil {
		return nil, err
	}
	var simOpts []sim.Option
	if opts.PayloadBytes > 0 {
		simOpts = append(simOpts, sim.WithPayload(opts.PayloadBytes))
	}
	if opts.Period > 0 {
		simOpts = append(simOpts, sim.WithPeriod(opts.Period))
	}
	if opts.MaxThreads > 0 {
		simOpts = append(simOpts, sim.WithMaxThreads(opts.MaxThreads))
	}
	if opts.Seed != 0 {
		simOpts = append(simOpts, sim.WithSeed(opts.Seed))
	}
	eng, err := sim.New(g, m, simOpts...)
	if err != nil {
		return nil, err
	}
	cfg := opts.Elastic
	if cfg == (ElasticConfig{}) {
		cfg = DefaultElasticConfig()
	}
	coord, err := core.NewCoordinator(eng, cfg)
	if err == nil && opts.WarmStart != nil {
		err = coord.Restore(*opts.WarmStart)
	}
	if err != nil {
		return nil, fmt.Errorf("streamelastic: %w", err)
	}
	return &Simulation{eng: eng, coord: coord}, nil
}

// ConfigSnapshot captures the current elastic configuration for a warm
// start (for example of the live Runtime that the simulation modeled).
func (s *Simulation) ConfigSnapshot() ConfigSnapshot {
	return s.coord.ConfigSnapshot()
}

// Explanation describes which performance-model constraint limits the
// current configuration (source thread, scheduler pool, memory bandwidth,
// lock contention, queue serialization, or cores).
type Explanation = sim.Explanation

// Explain reports the binding bottleneck of the current configuration.
func (s *Simulation) Explain() Explanation {
	return s.eng.Explain()
}

// EstimateLatency predicts the mean end-to-end tuple latency of the
// current configuration when offered the given fraction (0,1] of its
// maximum throughput, using an M/M/1-style queueing approximation per
// region.
func (s *Simulation) EstimateLatency(loadFraction float64) time.Duration {
	return s.eng.EstimateLatency(loadFraction)
}

// RunUntilSettled advances adaptation until it converges or maxSteps
// virtual periods elapse, reporting the steps taken and whether it settled.
func (s *Simulation) RunUntilSettled(maxSteps int) (int, bool, error) {
	return s.coord.RunUntilSettled(maxSteps)
}

// Step advances one virtual adaptation period; it reports whether the
// system is settled afterwards. Use it to keep monitoring after
// convergence (for example across a workload change).
func (s *Simulation) Step() (bool, error) { return s.coord.Step() }

// Throughput returns the modeled steady-state sink throughput of the
// current configuration in tuples per second.
func (s *Simulation) Throughput() float64 { return s.eng.Throughput() }

// Threads returns the current scheduler-thread count.
func (s *Simulation) Threads() int { return s.eng.ThreadCount() }

// Queues returns the current number of scheduler queues.
func (s *Simulation) Queues() int { return s.eng.Queues() }

// Placement returns the threading-model choice per operator.
func (s *Simulation) Placement() []bool { return s.eng.Placement() }

// Now returns the virtual clock.
func (s *Simulation) Now() time.Duration { return s.eng.Now() }

// Settled reports whether adaptation has converged.
func (s *Simulation) Settled() bool { return s.coord.Settled() }

// Trace returns the adaptation trace.
func (s *Simulation) Trace() []TraceEvent { return s.coord.Trace() }
