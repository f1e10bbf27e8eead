package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"

	"streamelastic/internal/spl"
)

// epoch is the process-wide time base: generators stamp due times and sinks
// read arrival times against it, so latency is one monotonic subtraction.
var epoch = time.Now()

// nowNs returns monotonic nanoseconds since epoch.
func nowNs() int64 { return int64(time.Since(epoch)) }

// numKeys is the key space every generator draws from.
const numKeys = 1024

// keyDist draws seeded, Zipf-skewed keys over numKeys keys. The key of a
// sequence number is a pure function of (seed, seq), so the correctness
// check recomputes the exact key sequence the generator emitted.
type keyDist struct {
	seed uint64
	cdf  []float64
}

func newKeyDist(seed int64) *keyDist {
	cdf := make([]float64, numKeys)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), 1.1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &keyDist{seed: uint64(seed), cdf: cdf}
}

// splitmix64 is a 64-bit finalizer used as a counter-based random source.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// at returns the key of sequence number seq.
func (d *keyDist) at(seq uint64) uint64 {
	u := float64(splitmix64(d.seed*0x100000001b3^seq)>>11) / (1 << 53)
	return uint64(sort.SearchFloat64s(d.cdf, u))
}

// generator is the benchmark's source operator. With rate > 0 it is open
// loop: tuple i is due at start + i/rate whatever the system does, Time
// carries the due time (so latency counts the wait a stall imposes on later
// tuples), overdue tuples are emitted at once, and the worst lateness is
// recorded. With rate 0 it is closed loop: it emits as fast as the engine
// accepts and stamps the emission time.
//
// The engine calls Next from one source thread at a time; seq and start
// are touched only there. The atomics are read by the measuring goroutine.
type generator struct {
	rate    float64
	batch   int
	keys    *keyDist
	payload []byte

	seq   uint64
	start int64

	emitted atomic.Uint64
	stop    atomic.Bool
	maxLag  atomic.Int64 // worst lateness in ns since the last resetLag
}

var _ spl.Source = (*generator)(nil)

// newGenerator returns a generator of payloadBytes-byte tuples whose payload
// content and keys come from seed.
func newGenerator(seed int64, rate float64, batch, payloadBytes int) *generator {
	p := make([]byte, payloadBytes)
	for i := range p {
		p[i] = byte(splitmix64(uint64(seed) + uint64(i)))
	}
	if batch < 1 {
		batch = 1
	}
	return &generator{rate: rate, batch: batch, keys: newKeyDist(seed), payload: p, start: -1}
}

func (g *generator) Name() string { return "gen" }

// Process is a no-op: sources have no input ports.
func (g *generator) Process(int, *spl.Tuple, spl.Emitter) {}

// dueNs is the due time of sequence number seq.
func (g *generator) dueNs(seq uint64) int64 {
	return g.start + int64(float64(seq)*1e9/g.rate)
}

// Next emits up to batch tuples: every overdue one in open loop, a full
// batch in closed loop. It sleeps at most a millisecond when nothing is due
// so the engine's pause barrier stays responsive.
func (g *generator) Next(out spl.Emitter) bool {
	if g.stop.Load() {
		return false
	}
	now := nowNs()
	if g.rate <= 0 {
		for i := 0; i < g.batch; i++ {
			g.emit(out, now)
		}
		return true
	}
	if g.start < 0 {
		g.start = now
	}
	if due := g.dueNs(g.seq); due > now {
		wait := time.Duration(due - now)
		if wait > time.Millisecond {
			wait = time.Millisecond
		}
		time.Sleep(wait)
		return true
	}
	for i := 0; i < g.batch; i++ {
		due := g.dueNs(g.seq)
		if due > now {
			break
		}
		if lag := now - due; lag > g.maxLag.Load() {
			g.maxLag.Store(lag)
		}
		g.emit(out, due)
	}
	return true
}

func (g *generator) emit(out spl.Emitter, stamp int64) {
	t := spl.AcquireTuple()
	t.Seq, t.Key, t.Time = g.seq, g.keys.at(g.seq), stamp
	// The payload is shared, as spl.Generator shares its own: the runtime
	// clones a tuple whenever it crosses a scheduler queue or the wire.
	t.Payload = g.payload
	g.seq++
	g.emitted.Add(1)
	out.Emit(0, t)
}

// resetLag starts a new lateness window and returns the previous maximum.
func (g *generator) resetLag() time.Duration { return time.Duration(g.maxLag.Swap(0)) }
