package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamelastic/internal/core"
	"streamelastic/internal/exec"
	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
	"streamelastic/internal/state"
)

// Tracing: the traced run wraps every operator and the coordinator's engine
// in the timing wrappers below. Operator spans are recorded for one Seq in
// sampleEvery (a batch span when the batch holds a sampled Seq); engine
// spans for every call. Spans stay in memory until the run ends.

// sampled reports whether seq is traced: one Seq in sampleEvery, picked by
// hash so the sample does not line up with batch or buffer boundaries, and
// the same Seq at every operator so one tuple's spans nest.
func sampled(seq uint64) bool { return splitmix64(seq)%sampleEvery == 0 }

const (
	sampleEvery = 512
	maxSpans    = 1 << 20
)

// Cost classes an operator span is attributed to.
const (
	clsOther = iota
	clsHeavy
	clsMedium
	clsLight
	clsKeyed
	clsSink
	clsSource
	clsEngine
	numClasses
)

var classNames = [numClasses]string{"other", "heavy", "medium", "light", "keyed", "sink", "source", "engine"}

// span is one timed call. seq is the sampled Seq (-1 for calls not tied to
// a tuple); n is the tuples the call covered and k the sampled ones among
// them.
type span struct {
	name       int32
	seq        int64
	start, end int64
	n, k       int32
}

type tracer struct {
	spans []span
	next  atomic.Int64

	mu    sync.Mutex
	names []string
	class []int
}

func newTracer() *tracer { return &tracer{spans: make([]span, maxSpans)} }

// register names a span source and returns its id.
func (tr *tracer) register(name string, cls int) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.names = append(tr.names, name)
	tr.class = append(tr.class, cls)
	return int32(len(tr.names) - 1)
}

func (tr *tracer) add(s span) {
	if i := tr.next.Add(1) - 1; i < maxSpans {
		tr.spans[i] = s
	}
}

// recorded returns the spans kept so far. Call it once the traced system
// has stopped.
func (tr *tracer) recorded() []span {
	n := tr.next.Load()
	if n > maxSpans {
		n = maxSpans
	}
	return tr.spans[:n]
}

// --- operator wrappers ---

// tracedOp times Process. The wrappers built on it forward every optional
// interface of the wrapped operator, so the traced run executes the same
// program; wrapOp refuses an operator whose interface set no wrapper
// reproduces.
type tracedOp struct {
	inner spl.Operator
	tr    *tracer
	id    int32
}

func (o *tracedOp) Name() string { return o.inner.Name() }

func (o *tracedOp) Process(port int, t *spl.Tuple, out spl.Emitter) {
	seq := t.Seq
	if !sampled(seq) {
		o.inner.Process(port, t, out)
		return
	}
	t0 := nowNs()
	o.inner.Process(port, t, out)
	o.tr.add(span{name: o.id, seq: int64(seq), start: t0, end: nowNs(), n: 1, k: 1})
}

type tracedBatch struct {
	*tracedOp
	b spl.BatchProcessor
}

func (o tracedBatch) ProcessBatch(port int, ts []*spl.Tuple, out spl.Emitter) {
	first, k := int64(-1), int32(0)
	for _, t := range ts {
		if sampled(t.Seq) {
			if k == 0 {
				first = int64(t.Seq)
			}
			k++
		}
	}
	if k == 0 {
		o.b.ProcessBatch(port, ts, out)
		return
	}
	n := int32(len(ts))
	t0 := nowNs()
	o.b.ProcessBatch(port, ts, out)
	o.tr.add(span{name: o.id, seq: first, start: t0, end: nowNs(), n: n, k: k})
}

type tracedSource struct {
	*tracedOp
	src   spl.Source
	calls uint64 // touched only by the source thread
}

// Next spans are kept for one call in sampleEvery; a Next call is not tied
// to one Seq, so they appear in the trace file but not in self times.
func (o *tracedSource) Next(out spl.Emitter) bool {
	o.calls++
	if o.calls%sampleEvery != 0 {
		return o.src.Next(out)
	}
	t0 := nowNs()
	more := o.src.Next(out)
	o.tr.add(span{name: o.id, seq: -1, start: t0, end: nowNs()})
	return more
}

type stateful struct{}

func (stateful) Stateful() {}

type recycles struct{}

func (recycles) RecyclesTuples() {}

type resets struct{ r spl.Resettable }

func (x resets) Reset() { x.r.Reset() }

// Optional interfaces an operator may implement.
const (
	ifSource = 1 << iota
	ifBatch
	ifStateful
	ifRecyclable
	ifResettable
	ifSnapshotter
	ifReplayFilter
	ifDrainExempt
)

func shapeOf(op spl.Operator) int {
	s := 0
	if _, ok := op.(spl.Source); ok {
		s |= ifSource
	}
	if _, ok := op.(spl.BatchProcessor); ok {
		s |= ifBatch
	}
	if _, ok := op.(spl.Stateful); ok {
		s |= ifStateful
	}
	if _, ok := op.(spl.Recyclable); ok {
		s |= ifRecyclable
	}
	if _, ok := op.(spl.Resettable); ok {
		s |= ifResettable
	}
	if _, ok := op.(state.Snapshotter); ok {
		s |= ifSnapshotter
	}
	if _, ok := op.(state.ReplayFilter); ok {
		s |= ifReplayFilter
	}
	if _, ok := op.(spl.DrainExempt); ok {
		s |= ifDrainExempt
	}
	return s
}

// wrapOp returns op wrapped for tracing, with exactly op's optional
// interfaces.
func wrapOp(op spl.Operator, cls int, tr *tracer) (spl.Operator, error) {
	base := &tracedOp{inner: op, tr: tr, id: tr.register(op.Name(), cls)}
	var w spl.Operator
	switch sh := shapeOf(op); sh {
	case ifSource:
		w = &tracedSource{tracedOp: base, src: op.(spl.Source)}
	case ifBatch:
		w = tracedBatch{base, op.(spl.BatchProcessor)}
	case ifStateful:
		w = struct {
			*tracedOp
			stateful
		}{base, stateful{}}
	case ifRecyclable:
		w = struct {
			*tracedOp
			recycles
		}{base, recycles{}}
	case ifBatch | ifRecyclable | ifResettable:
		w = struct {
			tracedBatch
			recycles
			resets
		}{tracedBatch{base, op.(spl.BatchProcessor)}, recycles{}, resets{op.(spl.Resettable)}}
	case ifStateful | ifRecyclable | ifResettable | ifSnapshotter:
		w = struct {
			*tracedOp
			stateful
			recycles
			resets
			state.Snapshotter
		}{base, stateful{}, recycles{}, resets{op.(spl.Resettable)}, op.(state.Snapshotter)}
	default:
		return nil, fmt.Errorf("trace: no wrapper forwards interface set %#x of operator %q", sh, op.Name())
	}
	if shapeOf(w) != shapeOf(op) {
		return nil, fmt.Errorf("trace: wrapper of %q has interface set %#x, want %#x", op.Name(), shapeOf(w), shapeOf(op))
	}
	return w, nil
}

// costClass classifies an operator for per-class self times.
func costClass(nd *graph.Node) int {
	switch op := nd.Op.(type) {
	case *generator:
		return clsSource
	case *ledgerSink, *probeSink:
		return clsSink
	case *spl.KeyedCounter:
		return clsKeyed
	case *spl.Work:
		switch f := op.Cost().FLOPs(); {
		case f >= 10000:
			return clsHeavy
		case f >= 100:
			return clsMedium
		default:
			return clsLight
		}
	}
	return clsOther
}

// wrapGraph replaces every operator of g with its traced wrapper. Call it
// before the graph is handed to an engine, job or cluster.
func wrapGraph(g *graph.Graph, tr *tracer) error {
	for i := 0; i < g.NumNodes(); i++ {
		nd := g.Node(graph.NodeID(i))
		w, err := wrapOp(nd.Op, costClass(nd), tr)
		if err != nil {
			return err
		}
		nd.Op = w
	}
	return nil
}

// nodeNamed returns the span id of the traced operator called name, -1 if
// there is none.
func (tr *tracer) nodeNamed(name string) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i, n := range tr.names {
		if n == name {
			return int32(i)
		}
	}
	return -1
}

// --- engine wrapper ---

// timedEngine is the core.Engine the coordinator drives in the traced run:
// it forwards to the live engine, counts the calls, and times
// ApplyPlacement and SetThreadCount.
type timedEngine struct {
	e  *exec.Engine
	tr *tracer

	applyID, threadsID, observeID int32

	mu        sync.Mutex
	applyMs   []float64
	threadsMs []float64
	observes  int
}

var (
	_ core.Engine       = (*timedEngine)(nil)
	_ core.SchedSampler = (*timedEngine)(nil)
)

func newTimedEngine(e *exec.Engine, tr *tracer) *timedEngine {
	return &timedEngine{
		e: e, tr: tr,
		applyID:   tr.register("exec.ApplyPlacement", clsEngine),
		threadsID: tr.register("exec.SetThreadCount", clsEngine),
		observeID: tr.register("exec.Observe", clsEngine),
	}
}

func (t *timedEngine) NumOperators() int                             { return t.e.NumOperators() }
func (t *timedEngine) Placeable() []bool                             { return t.e.Placeable() }
func (t *timedEngine) CostMetric() []float64                         { return t.e.CostMetric() }
func (t *timedEngine) Placement() []bool                             { return t.e.Placement() }
func (t *timedEngine) ThreadCount() int                              { return t.e.ThreadCount() }
func (t *timedEngine) MaxThreads() int                               { return t.e.MaxThreads() }
func (t *timedEngine) Now() time.Duration                            { return t.e.Now() }
func (t *timedEngine) SchedCounts() (uint64, uint64, uint64, uint64) { return t.e.SchedCounts() }

func (t *timedEngine) ApplyPlacement(dynamic []bool) error {
	t0 := nowNs()
	err := t.e.ApplyPlacement(dynamic)
	t1 := nowNs()
	t.tr.add(span{name: t.applyID, seq: -1, start: t0, end: t1})
	t.mu.Lock()
	t.applyMs = append(t.applyMs, float64(t1-t0)/1e6)
	t.mu.Unlock()
	return err
}

func (t *timedEngine) SetThreadCount(n int) error {
	t0 := nowNs()
	err := t.e.SetThreadCount(n)
	t1 := nowNs()
	t.tr.add(span{name: t.threadsID, seq: -1, start: t0, end: t1})
	t.mu.Lock()
	t.threadsMs = append(t.threadsMs, float64(t1-t0)/1e6)
	t.mu.Unlock()
	return err
}

func (t *timedEngine) Observe() (float64, error) {
	t0 := nowNs()
	thr, err := t.e.Observe()
	t.tr.add(span{name: t.observeID, seq: -1, start: t0, end: nowNs()})
	t.mu.Lock()
	t.observes++
	t.mu.Unlock()
	return thr, err
}

// counts returns the Observe, ApplyPlacement and SetThreadCount call
// counts so far.
func (t *timedEngine) counts() (observes, placements, threadSets int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.observes, len(t.applyMs), len(t.threadsMs)
}

// timings returns copies of the ApplyPlacement and SetThreadCount
// durations in ms.
func (t *timedEngine) timings() (apply, threads []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.applyMs...), append([]float64(nil), t.threadsMs...)
}

// --- analysis ---

// selfTimes returns, per span index, the span's duration minus the spans of
// the same Seq nested directly inside it: manual threading runs the next
// operator inside Emit, so a parent span covers its children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	bySeq := make(map[int64][]int)
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.seq >= 0 {
			bySeq[s.seq] = append(bySeq[s.seq], i)
		}
	}
	for _, idx := range bySeq {
		if len(idx) < 2 {
			continue
		}
		sort.Slice(idx, func(a, b int) bool {
			sa, sb := spans[idx[a]], spans[idx[b]]
			if sa.start != sb.start {
				return sa.start < sb.start
			}
			return sa.end > sb.end
		})
		var stack []int
		for _, i := range idx {
			s := spans[i]
			for len(stack) > 0 && spans[stack[len(stack)-1]].end < s.end {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				self[stack[len(stack)-1]] -= s.end - s.start
			}
			stack = append(stack, i)
		}
	}
	return self
}

// classSelf summarizes operator self time per cost class over spans that
// started in [from, to): the sampled per-tuple self time in ns, and the
// estimated total self time in ns (each sampled tuple stands for
// sampleEvery tuples).
func classSelf(tr *tracer, spans []span, self []int64, from, to int64) (perTuple, total [numClasses]float64) {
	var weight [numClasses]float64
	for i, s := range spans {
		if s.seq < 0 || s.n == 0 || s.start < from || s.start >= to {
			continue
		}
		cls := tr.class[s.name]
		per := float64(self[i]) / float64(s.n)
		perTuple[cls] += per * float64(s.k)
		weight[cls] += float64(s.k)
		total[cls] += per * float64(s.k) * sampleEvery
	}
	for c := range perTuple {
		if weight[c] > 0 {
			perTuple[c] /= weight[c]
		}
	}
	return perTuple, total
}

// hopTimes returns, for every sampled Seq that has both, the gap in ms
// between the end of the last span of operator from and the start of the
// first span of operator to.
func hopTimes(spans []span, from, to int32) []float64 {
	ends := make(map[int64]int64)
	for _, s := range spans {
		if s.name == from && s.seq >= 0 && s.end > ends[s.seq] {
			ends[s.seq] = s.end
		}
	}
	starts := make(map[int64]int64)
	for _, s := range spans {
		if s.name != to || s.seq < 0 {
			continue
		}
		if cur, ok := starts[s.seq]; !ok || s.start < cur {
			starts[s.seq] = s.start
		}
	}
	var out []float64
	for seq, st := range starts {
		if e, ok := ends[seq]; ok && st >= e {
			out = append(out, float64(st-e)/1e6)
		}
	}
	return out
}

// writeChromeTrace writes spans as Chrome trace-event JSON ("X" complete
// events, microseconds); each span's tid is its Seq so one tuple's spans
// share a row.
func writeChromeTrace(path string, tr *tracer, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int64          `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	if _, err := w.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, s := range spans {
		if i > 0 {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		ev := event{
			Name: tr.names[s.name], Cat: classNames[tr.class[s.name]], Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.seq,
		}
		if s.n > 1 {
			ev.Args = map[string]any{"tuples": s.n, "sampled": s.k}
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}
