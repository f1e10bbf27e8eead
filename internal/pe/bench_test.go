package pe

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/spl"
)

// benchPayloads are the wire sizes the transport benchmarks sweep: a tiny
// tuple whose whole batch record fits in 64 bytes (the shape where per-frame
// overhead dominates), a small telemetry-style tuple, a typical record, and a
// bulk frame.
var benchPayloads = []int{16, 64, 1024, 16384}

// benchTuple returns a template tuple with a pooled payload of n bytes and
// no text, so the decode side exercises pure pooled construction.
func benchTuple(n int) *spl.Tuple {
	t := spl.AcquireTuple()
	t.Seq = 42
	t.Key = 7
	t.Time = 123456789
	t.Num1 = 3.25
	t.Num2 = -1.5
	t.AcquirePayload(n)
	for i := range t.Payload {
		t.Payload[i] = byte(i)
	}
	return t
}

// runImportDrain consumes tuples from an import source on a dedicated
// goroutine until want tuples arrived, releasing each back to the pool.
func runImportDrain(imp *importSource, want uint64) (*atomic.Uint64, chan struct{}) {
	var got atomic.Uint64
	em := spl.EmitterFunc(func(_ int, t *spl.Tuple) {
		got.Add(1)
		t.Release()
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got.Load() < want && imp.Next(em) {
		}
	}()
	return &got, done
}

// BenchmarkExportImport measures the batched transport end to end over a
// loopback TCP pair: Process stages pooled clones, the writer goroutine
// coalesces frames, the receive side decodes into pooled tuples and
// batch-drains. tuples/s is reported alongside ns/op.
func BenchmarkExportImport(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			send, recv := loopbackPair(b)
			exp := newExportOp("x")
			// A long block timeout makes the benchmark lossless: the ring
			// applies backpressure instead of dropping under burst.
			exp.cfg = TransportConfig{BlockTimeout: time.Minute}.withDefaults()
			if err := exp.connect(send, ""); err != nil {
				b.Fatal(err)
			}
			imp := newImportSource("i")
			imp.connect(recv, nil)
			_, done := runImportDrain(imp, uint64(b.N))

			tp := benchTuple(size)
			defer tp.Release()
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exp.Process(0, tp, nil)
			}
			<-done
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
			if exp.Dropped() != 0 {
				b.Fatalf("benchmark dropped %d tuples", exp.Dropped())
			}
			exp.close()
			imp.close()
		})
	}
}

// BenchmarkExportImportWire sweeps the batch wire across payload sizes
// under the default flush policy and checks that writer drains amortize
// into batch frames. Rows keep their wire=batch/ prefix so benchstat pairs
// them with BENCH_9.json. Every row reports gomaxprocs for provenance (on a
// 1-core box the writer, reader, and producer share the core, so the
// per-frame CPU overhead is what the batch amortizes away). The trickle row
// paces the producer at one 64 B tuple per wirePace instead of saturating
// the stream; its tuples/frame and frames/flush show how the writer's
// linger coalesces a stream that never fills a batch.
func BenchmarkExportImportWire(b *testing.B) {
	for _, size := range benchPayloads {
		b.Run(fmt.Sprintf("wire=batch/payload=%d", size), func(b *testing.B) {
			benchWire(b, size, 0)
		})
	}
	b.Run("wire=batch/trickle/payload=64", func(b *testing.B) {
		benchWire(b, 64, wirePace)
	})
}

// wirePace spaces the trickle row's tuples: ~50K tuples/s, far below what
// the wire sustains, so every writer drain is a sub-batch.
const wirePace = 20 * time.Microsecond

// benchWire streams b.N payload-size tuples from an export to an import
// over loopback, back to back (pace 0) or one per pace.
func benchWire(b *testing.B, size int, pace time.Duration) {
	send, recv := loopbackPair(b)
	exp := newExportOp("x")
	exp.cfg = TransportConfig{BlockTimeout: time.Minute}.withDefaults()
	if err := exp.connect(send, ""); err != nil {
		b.Fatal(err)
	}
	imp := newImportSource("i")
	imp.connect(recv, nil)
	_, done := runImportDrain(imp, uint64(b.N))

	tp := benchTuple(size)
	defer tp.Release()
	b.SetBytes(int64(size))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if pace > 0 {
			for time.Since(start) < time.Duration(i)*pace {
				runtime.Gosched()
			}
		}
		exp.Process(0, tp, nil)
	}
	<-done
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "gomaxprocs")
	if pace > 0 {
		b.ReportMetric(float64(exp.Sent())/float64(exp.WireFrames()), "tuples/frame")
		b.ReportMetric(float64(exp.WireFrames())/float64(exp.Flushes()), "frames/flush")
	}
	if exp.Dropped() != 0 {
		b.Fatalf("benchmark dropped %d tuples", exp.Dropped())
	}
	if b.N >= 4096 && exp.WireFrames() >= exp.Sent() {
		// Only meaningful at volume: a tiny smoke run can drain
		// one tuple per pass and legitimately never amortize.
		b.Fatalf("staged %d frames for %d tuples; no amortization",
			exp.WireFrames(), exp.Sent())
	}
	exp.close()
	imp.close()
}

// loopReader serves the same encoded frame forever, so decode benchmarks
// never hit EOF or a real connection.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// benchBatch returns k pooled tuples with n-byte payloads; k =
// writerBatchTuples is one full writer drain, the batch encode/decode unit
// of work.
func benchBatch(k, n int) []*spl.Tuple {
	ts := make([]*spl.Tuple, k)
	for i := range ts {
		ts[i] = benchTuple(n)
		ts[i].Seq = uint64(i)
	}
	return ts
}

func releaseBatch(ts []*spl.Tuple) {
	for _, t := range ts {
		t.Release()
	}
}

// BenchmarkBatchEncodeSteadyState measures marshalBatchFrame with a warm
// scratch buffer: one full drain per op, reported per tuple via tuples/s.
// Steady-state batch encoding must be allocation-free.
func BenchmarkBatchEncodeSteadyState(b *testing.B) {
	ts := benchBatch(writerBatchTuples, 64)
	defer releaseBatch(ts)
	buf, err := marshalBatchFrame(nil, 1, ts) // warm the scratch buffer
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = marshalBatchFrame(buf, uint64(i)*writerBatchTuples+1, ts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*writerBatchTuples/b.Elapsed().Seconds(), "tuples/s")
}

// encodedBatchFrame returns one wire frame carrying k payload-n tuples.
func encodedBatchFrame(tb testing.TB, k, n int) []byte {
	tb.Helper()
	ts := benchBatch(k, n)
	defer releaseBatch(ts)
	frame, err := marshalBatchFrame(nil, 1, ts)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// BenchmarkBatchDecodeSteadyState measures decodeFrame on a full batch
// frame: one arena read and one RetainN materialize writerBatchTuples
// arena-view tuples per op. Steady-state batch decoding must be
// allocation-free with the pools warm.
func BenchmarkBatchDecodeSteadyState(b *testing.B) {
	dec := newDecoder(&loopReader{frame: encodedBatchFrame(b, writerBatchTuples, 64)})
	out := make([]*spl.Tuple, maxBatchTuples)
	n, _, err := dec.decodeFrame(out) // warm the tuple and arena pools
	if err != nil {
		b.Fatal(err)
	}
	releaseAll(out[:n])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _, err := dec.decodeFrame(out)
		if err != nil {
			b.Fatal(err)
		}
		releaseAll(out[:n])
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*writerBatchTuples/b.Elapsed().Seconds(), "tuples/s")
}

// TestBatchEncodeSteadyStateZeroAlloc pins the zero-alloc contract of batch
// frame marshalling independent of benchmark runs.
func TestBatchEncodeSteadyStateZeroAlloc(t *testing.T) {
	ts := benchBatch(writerBatchTuples, 64)
	defer releaseBatch(ts)
	buf, err := marshalBatchFrame(nil, 1, ts)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		b, err := marshalBatchFrame(buf, 1, ts)
		if err != nil {
			t.Fatal(err)
		}
		buf = b
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch encode allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBatchDecodeSteadyStateZeroAlloc pins the zero-alloc contract of batch
// decode. Skipped under -race for the same reason as
// TestDecodeSteadyStateZeroAlloc: sync.Pool drops Puts there, and one batch
// frame cycles writerBatchTuples pooled tuples plus a pooled arena.
func TestBatchDecodeSteadyStateZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under -race; zero-alloc steady state cannot hold")
	}
	dec := newDecoder(&loopReader{frame: encodedBatchFrame(t, writerBatchTuples, 64)})
	out := make([]*spl.Tuple, maxBatchTuples)
	n, _, err := dec.decodeFrame(out) // warm the tuple and arena pools
	if err != nil {
		t.Fatal(err)
	}
	releaseAll(out[:n])
	allocs := testing.AllocsPerRun(100, func() {
		n, _, err := dec.decodeFrame(out)
		if err != nil {
			t.Fatal(err)
		}
		releaseAll(out[:n])
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch decode allocates %.1f objects per call, want 0", allocs)
	}
}

// TestEncodeSteadyStateZeroAlloc pins the zero-alloc contract of the
// writer's staging step: marshalling a drain into a warm retransmit slot
// and appending the frame to the buffered writer.
func TestEncodeSteadyStateZeroAlloc(t *testing.T) {
	enc := newEncoder(io.Discard)
	ring := newRetransRing(2)
	ts := benchBatch(writerBatchTuples, 64)
	defer releaseBatch(ts)
	seq := uint64(1)
	stage := func() {
		frame, err := ring.putBatch(seq, ts)
		if err != nil {
			t.Fatal(err)
		}
		seq += uint64(len(ts))
		if _, err := enc.writeBytes(frame); err != nil {
			t.Fatal(err)
		}
	}
	stage() // warm both slots' buffers
	stage()
	if allocs := testing.AllocsPerRun(100, stage); allocs != 0 {
		t.Fatalf("steady-state staging allocates %.1f objects per drain, want 0", allocs)
	}
}

// TestDecodeSteadyStateZeroAlloc pins the zero-alloc contract of a
// one-tuple batch frame, the shape a trickling stream sends. Skipped under
// -race: sync.Pool drops ~25% of Puts there, and decode cycles three pooled
// objects per frame (tuple, arena, payload box), so the forced
// re-allocations exceed what AllocsPerRun's integer averaging hides. The
// non-race pass and the benchmarks keep the guard honest.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under -race; zero-alloc steady state cannot hold")
	}
	dec := newDecoder(&loopReader{frame: encodedBatchFrame(t, 1, 64)})
	out := make([]*spl.Tuple, maxBatchTuples)
	decode := func() {
		n, _, err := dec.decodeFrame(out)
		if err != nil || n != 1 {
			t.Fatalf("decodeFrame = %d tuples, %v; want 1", n, err)
		}
		out[0].Release()
	}
	decode() // warm the tuple and arena pools
	if allocs := testing.AllocsPerRun(100, decode); allocs != 0 {
		t.Fatalf("steady-state decode allocates %.1f objects per call, want 0", allocs)
	}
}
