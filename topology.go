package streamelastic

import (
	"errors"

	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// Core data-model types, re-exported from the runtime's operator model.
// Users implement Operator (and Source for graph roots) to add custom
// logic; see the examples directory.
type (
	// Tuple is the unit of data flowing between operators.
	Tuple = spl.Tuple
	// Operator processes tuples arriving on its input ports.
	Operator = spl.Operator
	// Source produces tuples when driven by a dedicated operator thread.
	Source = spl.Source
	// Emitter delivers an operator's output tuples downstream.
	Emitter = spl.Emitter
	// EmitterFunc adapts a function to the Emitter interface.
	EmitterFunc = spl.EmitterFunc
	// NodeID identifies an operator within a Topology.
	NodeID = graph.NodeID
)

// Topology is an operator graph under construction. Build it with
// AddSource, AddOperator and Connect, then hand it to NewRuntime or
// NewSimulation (which validate and freeze it).
type Topology struct {
	g      *graph.Graph
	frozen bool
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{g: graph.New()}
}

// AddSource adds a source operator. flopsPerTuple is the estimated per-tuple
// compute cost, used by the simulated machine and as a profiling hint; pass
// 0 when unknown (the live engine measures real costs regardless).
func (t *Topology) AddSource(op Source, flopsPerTuple float64) NodeID {
	return t.g.AddSource(op, spl.NewCostVar(flopsPerTuple))
}

// AddOperator adds a non-source operator with the given estimated per-tuple
// cost in FLOPs.
func (t *Topology) AddOperator(op Operator, flopsPerTuple float64) NodeID {
	return t.g.AddOperator(op, spl.NewCostVar(flopsPerTuple))
}

// Connect wires output port fromPort of from to input port toPort of to,
// with an expected rate of one tuple out per tuple in.
func (t *Topology) Connect(from NodeID, fromPort int, to NodeID, toPort int) error {
	return t.g.Connect(from, fromPort, to, toPort, 1)
}

// ConnectRate is Connect with an explicit rate factor: the expected number
// of tuples emitted on this edge per tuple processed by from (a tokenizer
// might use 8, one branch of a width-W round-robin split 1/W). The factor
// only guides the simulated machine and cost attribution.
func (t *Topology) ConnectRate(from NodeID, fromPort int, to NodeID, toPort int, rate float64) error {
	return t.g.Connect(from, fromPort, to, toPort, rate)
}

// MarkContended declares that the operator serializes internally on a lock,
// so the simulated machine charges it contention that grows with the
// number of threads executing it.
func (t *Topology) MarkContended(id NodeID) {
	t.g.SetContended(id)
}

// NumOperators returns the number of operators added so far.
func (t *Topology) NumOperators() int { return t.g.NumNodes() }

// Graph validates and freezes the topology, like NewRuntime, and returns
// its operator graph for the internal launchers (pe.Launch, cluster.New).
func (t *Topology) Graph() (*graph.Graph, error) { return t.freeze() }

// freeze validates the topology and marks it immutable.
func (t *Topology) freeze() (*graph.Graph, error) {
	if t.frozen {
		if !t.g.Finalized() {
			return nil, errors.New("streamelastic: topology was modified after use")
		}
		return t.g, nil
	}
	if err := t.g.Finalize(); err != nil {
		return nil, err
	}
	t.frozen = true
	return t.g, nil
}
