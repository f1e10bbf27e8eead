package main

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"streamelastic/internal/spl"
)

// counterWindow is the KeyedCounter window of the keyed chain.
const counterWindow = 1024

// ledgerSink is the keyed chain's sink. It records, per delivered Seq, the
// KeyedCounter value it carries and its source-to-sink latency, counts
// duplicates, and stamps the first arrival for setup_s. Under cluster
// migration the same object may briefly be reached from two engines, so
// everything behind mu.
type ledgerSink struct {
	mu     sync.Mutex
	chunks []*ledgerChunk // chunks[seq/chunkLen] holds seq's entry
	dups   uint64

	lat       latencyHist
	delivered atomic.Uint64
	first     atomic.Int64 // nowNs of the first arrival, 0 before it
}

// chunkLen is the Seqs per ledger chunk. The ledger grows a chunk at a
// time, so its memory rises steadily with the run and never doubles.
const chunkLen = 1 << 16

// ledgerChunk holds counter value + 1 per Seq, 0 for not delivered; the
// value never exceeds counterWindow, so 16 bits keep the ledger small.
type ledgerChunk [chunkLen]uint16

var _ spl.Recyclable = (*ledgerSink)(nil)

// entry returns the chunk and index of seq, nil when seq lies beyond every
// chunk. The caller holds mu.
func (s *ledgerSink) entry(seq uint64) (*ledgerChunk, int) {
	if c := seq / chunkLen; c < uint64(len(s.chunks)) {
		return s.chunks[c], int(seq % chunkLen)
	}
	return nil, 0
}

// count returns the recorded counter value + 1 of seq, 0 if undelivered.
// The caller holds mu.
func (s *ledgerSink) count(seq uint64) uint16 {
	if c, i := s.entry(seq); c != nil {
		return c[i]
	}
	return 0
}

func (s *ledgerSink) Name() string { return "ledger" }

// RecyclesTuples: Process keeps nothing of the tuple.
func (s *ledgerSink) RecyclesTuples() {}

func (s *ledgerSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	now := nowNs()
	s.first.CompareAndSwap(0, now)
	seq := t.Seq
	s.mu.Lock()
	for uint64(len(s.chunks)) <= seq/chunkLen {
		s.chunks = append(s.chunks, new(ledgerChunk))
	}
	c, i := s.entry(seq)
	if c[i] != 0 {
		s.dups++
	} else {
		c[i] = uint16(t.Num1) + 1
		s.lat.observe(seq, now-t.Time)
	}
	s.mu.Unlock()
	s.delivered.Add(1)
}

// ledgerReport is the outcome of checking a ledger against the reference.
type ledgerReport struct {
	missing, dups, wrong, extra uint64
}

func (r ledgerReport) failed() uint64 { return r.missing + r.dups + r.wrong + r.extra }

func (r ledgerReport) String() string {
	return fmt.Sprintf("missing=%d duplicated=%d wrong=%d unexpected=%d", r.missing, r.dups, r.wrong, r.extra)
}

// verify checks every Seq in [0, emitted) was delivered exactly once with
// the count a sliding window of counterWindow keys over the generator's key
// sequence gives, and that nothing beyond emitted arrived. Call it only
// after the pipeline has stopped delivering.
func (s *ledgerSink) verify(keys *keyDist, emitted uint64) ledgerReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := ledgerReport{dups: s.dups}
	var window [numKeys]uint32
	ring := make([]uint64, counterWindow)
	for seq := uint64(0); seq < emitted; seq++ {
		k := keys.at(seq)
		if seq >= counterWindow {
			window[ring[seq%counterWindow]]--
		}
		ring[seq%counterWindow] = k
		window[k]++
		switch got := s.count(seq); {
		case got == 0:
			r.missing++
		case uint32(got-1) != window[k]:
			r.wrong++
		}
	}
	for seq := emitted; seq < uint64(len(s.chunks))*chunkLen; seq++ {
		if s.count(seq) != 0 {
			r.extra++
		}
	}
	return r
}

// probeSink wraps the closed-loop workloads' counting sink. It forwards
// every tuple to the wrapped sink, so the graph keeps its contended sink,
// and records the latency of one Seq in probeEvery.
type probeSink struct {
	inner *spl.CountingSink
	lat   latencyHist
	first atomic.Int64
}

const probeEvery = 64

var (
	_ spl.BatchProcessor = (*probeSink)(nil)
	_ spl.Recyclable     = (*probeSink)(nil)
	_ spl.Resettable     = (*probeSink)(nil)
)

func (p *probeSink) Name() string { return p.inner.Name() }

// RecyclesTuples: neither the probe nor the counting sink keeps the tuple.
func (p *probeSink) RecyclesTuples() {}

func (p *probeSink) Reset() { p.inner.Reset() }

func (p *probeSink) Process(port int, t *spl.Tuple, out spl.Emitter) {
	p.observe(t)
	p.inner.Process(port, t, out)
}

func (p *probeSink) ProcessBatch(port int, ts []*spl.Tuple, out spl.Emitter) {
	for _, t := range ts {
		p.observe(t)
	}
	p.inner.ProcessBatch(port, ts, out)
}

func (p *probeSink) observe(t *spl.Tuple) {
	if p.first.Load() == 0 {
		p.first.CompareAndSwap(0, nowNs())
	}
	if t.Seq%probeEvery == 0 {
		p.lat.observe(t.Seq, nowNs()-t.Time)
	}
}

// latencyHist is a log-linear latency histogram (64 buckets per power of
// two, under 1.6% relative error) over the Seqs of the measured window
// [lo, hi); the measuring goroutine moves the window, sinks observe.
type latencyHist struct {
	lo, hi  atomic.Uint64
	buckets [64 * 40]atomic.Uint64
}

// window limits the histogram to Seqs in [lo, hi).
func (h *latencyHist) window(lo, hi uint64) {
	h.lo.Store(lo)
	h.hi.Store(hi)
}

func latencyBucket(ns int64) int {
	v := uint64(max(ns, 0))
	e := max(bits.Len64(v)-7, 0)
	return 64*e + int(v>>e)
}

// bucketNs is the lower bound of bucket i in ns.
func bucketNs(i int) float64 {
	e := max(i/64-1, 0)
	return float64(uint64(i-64*e) << e)
}

func (h *latencyHist) observe(seq uint64, ns int64) {
	if seq >= h.lo.Load() && seq < h.hi.Load() {
		if b := latencyBucket(ns); b < len(h.buckets) {
			h.buckets[b].Add(1)
		}
	}
}

// quantiles returns the latency quantiles qs in ms, and the sample count.
func (h *latencyHist) quantiles(qs ...float64) ([]float64, uint64) {
	var n uint64
	counts := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		n += counts[i]
	}
	out := make([]float64, len(qs))
	if n == 0 {
		return out, 0
	}
	for j, q := range qs {
		rank := uint64(q * float64(n-1))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen > rank {
				out[j] = bucketNs(i) / 1e6
				break
			}
		}
	}
	return out, n
}

// quantile returns the q-quantile of xs (sorted in place) by linear
// interpolation, 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}
