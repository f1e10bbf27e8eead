package pe

import (
	"context"
	"encoding/binary"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamelastic/internal/graph"
	"streamelastic/internal/spl"
)

// loopbackPair returns a connected TCP pair on loopback.
func loopbackPair(tb testing.TB) (send, recv net.Conn) {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	accCh := acceptOne(ln)
	send, err = dialStream(ln.Addr().String(), 5*time.Second)
	if err != nil {
		tb.Fatal(err)
	}
	acc := <-accCh
	if acc.err != nil {
		tb.Fatal(acc.err)
	}
	return send, acc.conn
}

// handshakeFrom writes the import side's resume handshake (watermark 0) so
// an export's writer attaches; used by tests that drive the raw receive
// side of a connection themselves.
func handshakeFrom(conn net.Conn) {
	var b [8]byte
	_, _ = conn.Write(b[:])
}

func TestExportDropsBeforeConnect(t *testing.T) {
	exp := newExportOp("x")
	tp := spl.AcquireTuple()
	defer tp.Release()
	for i := 0; i < 3; i++ {
		exp.Process(0, tp, nil)
	}
	if got := exp.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	if exp.Sent() != 0 {
		t.Fatalf("sent = %d before connect", exp.Sent())
	}
}

func TestExportCountersConvergeWhenPeerDies(t *testing.T) {
	send, recv := loopbackPair(t)
	exp := newExportOp("x")
	// Flush every batch so the broken connection surfaces quickly.
	exp.cfg = TransportConfig{FlushBytes: 1, BlockTimeout: 50 * time.Millisecond}.withDefaults()
	// No redial address: losing the peer fails the stream permanently.
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	defer exp.close()
	_ = recv.Close()

	tp := spl.AcquireTuple()
	tp.AcquirePayload(1024)
	defer tp.Release()

	pushed := uint64(0)
	deadline := time.Now().Add(10 * time.Second)
	for !exp.failed.Load() && time.Now().Before(deadline) {
		exp.Process(0, tp, nil)
		pushed++
		time.Sleep(100 * time.Microsecond)
	}
	if !exp.failed.Load() {
		t.Fatal("export never observed the dead peer")
	}
	// Pushes after the error are dropped immediately, not silently lost.
	exp.Process(0, tp, nil)
	pushed++

	// Every pushed tuple is accounted for once the writer drains: counters
	// match what the producer handed over.
	for time.Now().Before(deadline) {
		if exp.Sent()+exp.Dropped() == pushed {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("counters never converged: pushed %d, sent %d + dropped %d",
		pushed, exp.Sent(), exp.Dropped())
}

func TestDialStreamRetriesUntilListenerUp(t *testing.T) {
	// Reserve an address, release it, and only start listening after the
	// dialer has begun retrying — the PE launch-order race.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	lnCh := make(chan net.Listener, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			lnCh <- nil
			return
		}
		lnCh <- l
	}()
	conn, err := dialStream(addr, 5*time.Second)
	l := <-lnCh
	if l == nil {
		t.Skip("could not rebind reserved port")
	}
	defer l.Close()
	if err != nil {
		t.Fatalf("dialStream did not retry to success: %v", err)
	}
	_ = conn.Close()
}

func TestDialStreamTimesOutWithoutListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	start := time.Now()
	if _, err := dialStream(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial retried for %v past its 200ms budget", elapsed)
	}
}

// wedgeWriter stages tuples until the writer goroutine is stuck in a write
// against the unread pipe and the staging ring is full, then returns the
// template tuple used for pushing.
func wedgeWriter(t *testing.T, exp *exportOp) *spl.Tuple {
	t.Helper()
	tp := spl.AcquireTuple()
	tp.AcquirePayload(16 << 10)
	// 4 frames overflow the 64 KiB wire buffer (writer blocks on the pipe);
	// 2 more fill the capacity-2 ring.
	for i := 0; i < 6; i++ {
		exp.Process(0, tp, nil)
		time.Sleep(5 * time.Millisecond)
	}
	return tp
}

func TestExportDropOnFull(t *testing.T) {
	send, recv := net.Pipe()
	defer recv.Close()
	exp := newExportOp("x")
	exp.cfg = TransportConfig{RingCapacity: 2, DropOnFull: true}.withDefaults()
	go handshakeFrom(recv) // net.Pipe writes block until read
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	tp := wedgeWriter(t, exp)
	defer tp.Release()

	before := exp.Dropped()
	start := time.Now()
	exp.Process(0, tp, nil)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("drop mode blocked for %v", elapsed)
	}
	if exp.Dropped() != before+1 {
		t.Fatalf("dropped = %d, want %d", exp.Dropped(), before+1)
	}
	_ = recv.Close() // unwedge the writer before close
	exp.close()
}

func TestExportBoundedBlockingOnFull(t *testing.T) {
	send, recv := net.Pipe()
	defer recv.Close()
	exp := newExportOp("x")
	exp.cfg = TransportConfig{RingCapacity: 2, BlockTimeout: 120 * time.Millisecond}.withDefaults()
	go handshakeFrom(recv) // net.Pipe writes block until read
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	tp := wedgeWriter(t, exp)
	defer tp.Release()

	// The ring is full and the writer cannot drain: the bounded-blocking
	// mode must hold the producer for about BlockTimeout, then drop.
	before := exp.Dropped()
	start := time.Now()
	exp.Process(0, tp, nil)
	elapsed := time.Since(start)
	if exp.Dropped() != before+1 {
		t.Fatalf("dropped = %d, want %d", exp.Dropped(), before+1)
	}
	if elapsed < 80*time.Millisecond {
		t.Fatalf("blocked only %v, want about the 120ms budget", elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("blocked %v, far past the 120ms budget", elapsed)
	}
	_ = recv.Close() // unwedge the writer before close
	exp.close()
}

func TestImportIdlePollZeroAlloc(t *testing.T) {
	send, recv := net.Pipe()
	imp := newImportSource("i")
	imp.connect(recv, nil)
	defer func() {
		_ = send.Close()
		imp.close()
	}()
	// Warm up: the first Next lazily creates the reusable timer.
	imp.Next(spl.DiscardEmitter)
	allocs := testing.AllocsPerRun(3, func() {
		imp.Next(spl.DiscardEmitter)
	})
	if allocs != 0 {
		t.Fatalf("idle import poll allocates %.1f objects per call, want 0", allocs)
	}
}

// TestRewindKeepsReplay pins the two orderings a checkpoint rewind needs
// to replay a whole, fresh stream. Its wait may drain the injection ring
// only while the rewind is pending: the next connection epoch pushes the
// replay as soon as the reader has applied the rewind, so a drain pass
// after that would discard replayed tuples the sender never sends again.
// And it may return only once the rewind is applied: the engine resumes
// then, and must not pop tuples of the rolled-back epoch. Each cycle
// rewinds to zero with the previous cycle's frame still in the ring,
// replays a frame tagged with the cycle on the redial as the export
// would, pops like the resumed engine, and expects exactly the new frame.
func TestRewindKeepsReplay(t *testing.T) {
	const frameTuples = 64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accCh := acceptOne(ln)
	send, err := dialStream(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	acc := <-accCh
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	imp := newImportSource("i")
	imp.connect(acc.conn, ln)
	defer func() {
		_ = send.Close()
		imp.close()
	}()
	// The frame of cycle c carries wire sequences 1..frameTuples and
	// application sequences tagged c<<16 + i.
	ts := make([]*spl.Tuple, frameTuples)
	frameOf := func(cycle int) []byte {
		t.Helper()
		for i := range ts {
			ts[i] = spl.AcquireTuple()
			ts[i].Seq = uint64(cycle+1)<<16 + uint64(i)
		}
		frame, err := marshalBatchFrame(nil, 1, ts)
		releaseAll(ts)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// deliver reads the epoch's handshake, which must be the rolled-back
	// watermark, then sends the frame and waits for the reader to take it.
	deliver := func(cycle int) {
		t.Helper()
		var hs [8]byte
		if _, err := io.ReadFull(send, hs[:]); err != nil {
			t.Fatalf("cycle %d: handshake: %v", cycle, err)
		}
		if wm := binary.LittleEndian.Uint64(hs[:]); wm != 0 {
			t.Fatalf("cycle %d: handshake watermark %d, want 0", cycle, wm)
		}
		if _, err := send.Write(frameOf(cycle)); err != nil {
			t.Fatalf("cycle %d: write: %v", cycle, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for imp.delivered.Load() != frameTuples {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: delivered %d, want %d", cycle, imp.delivered.Load(), frameTuples)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// pushed waits until the reader has pushed n tuples in all (received
	// counts them once they are in the ring; delivered moves first).
	pushed := func(cycle int, n uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for imp.Received() != n {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: received %d, want %d", cycle, imp.Received(), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	// popFresh pops the ring's head, failing if it is not from cycle's
	// frame, and returns how many it popped. The rest stays in the ring as
	// the next cycle's rolled-back epoch.
	var pop [1]*spl.Tuple
	popFresh := func(cycle int) int {
		t.Helper()
		n := imp.inq.TryPopN(pop[:])
		for i := 0; i < n; i++ {
			if tag := int(pop[i].Seq>>16) - 1; tag != cycle {
				t.Fatalf("cycle %d: popped a tuple of cycle %d after the rewind returned", cycle, tag)
			}
		}
		releaseAll(pop[:n])
		return n
	}
	deliver(-1)
	for cycle := 0; cycle < 1000; cycle++ {
		done := make(chan struct{})
		go func() {
			imp.rewind(0)
			close(done)
		}()
		// The rewind closes the connection; drain acks until it does, then
		// redial the way the export's writer resumes.
		var ack [8]byte
		for {
			if _, err := io.ReadFull(send, ack[:]); err != nil {
				break
			}
		}
		_ = send.Close()
		if send, err = dialStream(ln.Addr().String(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		deliver(cycle)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("cycle %d: rewind did not return", cycle)
		}
		// The engine resumes as soon as the rewind returns.
		got := popFresh(cycle)
		pushed(cycle, uint64(cycle+2)*frameTuples)
		if got += imp.inq.Len(); got != frameTuples {
			t.Fatalf("cycle %d: %d of %d replayed tuples reached the ring's consumer", cycle, got, frameTuples)
		}
	}
}

// seqSink records every received sequence number for exactly-once checks.
type seqSink struct {
	mu    sync.Mutex
	seen  map[uint64]int
	dups  int
	count atomic.Uint64
}

func newSeqSink() *seqSink { return &seqSink{seen: make(map[uint64]int)} }

func (s *seqSink) Name() string { return "seqsink" }

func (s *seqSink) RecyclesTuples() {}

func (s *seqSink) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	s.mu.Lock()
	s.seen[t.Seq]++
	if s.seen[t.Seq] > 1 {
		s.dups++
	}
	s.mu.Unlock()
	s.count.Add(1)
}

// seqJob builds src -> work -> work -> seqSink split across two PEs.
func seqJob(t *testing.T, tuples uint64) (*graph.Graph, *seqSink) {
	t.Helper()
	g := graph.New()
	gen := spl.NewGenerator("src", 64)
	gen.MaxTuples = tuples
	prev := g.AddSource(gen, spl.NewCostVar(10))
	for i := 0; i < 2; i++ {
		cv := spl.NewCostVar(100)
		id := g.AddOperator(spl.NewWork("w", cv), cv)
		if err := g.Connect(prev, 0, id, 0, 1); err != nil {
			t.Fatal(err)
		}
		prev = id
	}
	sink := newSeqSink()
	sid := g.AddOperator(sink, spl.NewCostVar(0))
	if err := g.Connect(prev, 0, sid, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g, sink
}

// TestStreamNoLossNoDuplication pushes a bounded stream across a PE
// boundary and verifies exactly-once delivery end to end: every sequence
// number arrives, none arrives twice, and both ends' counters agree.
// RACE_PKGS includes this package, so the whole transport (staging ring,
// writer goroutine, pooled decode, batched import) runs under -race.
func TestStreamNoLossNoDuplication(t *testing.T) {
	const n = 12000
	g, sink := seqJob(t, n)
	assign := Assignment{0, 0, 1, 1}
	job, err := Launch(g, assign, Options{DisableElasticity: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Start(context.Background()); err != nil {
		job.Stop()
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for sink.count.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !job.DrainAndStop(30 * time.Second) {
		t.Fatal("job did not drain")
	}
	if sink.dups != 0 {
		t.Fatalf("%d duplicated tuples", sink.dups)
	}
	if len(sink.seen) != n {
		t.Fatalf("received %d distinct tuples, want %d", len(sink.seen), n)
	}
	for seq := uint64(0); seq < n; seq++ {
		if sink.seen[seq] != 1 {
			t.Fatalf("seq %d seen %d times", seq, sink.seen[seq])
		}
	}

	stats := job.StreamStats()
	if len(stats) != 1 {
		t.Fatalf("stream stats = %+v, want 1 stream", stats)
	}
	st := stats[0]
	if st.Sent != n || st.Received != n || st.Dropped != 0 {
		t.Fatalf("stream counters sent=%d received=%d dropped=%d, want %d/%d/0",
			st.Sent, st.Received, st.Dropped, n, n)
	}
	if st.BytesSent == 0 || st.BytesSent != st.BytesReceived {
		t.Fatalf("wire bytes disagree: sent %d, received %d", st.BytesSent, st.BytesReceived)
	}
	if st.Flushes == 0 {
		t.Fatal("no flushes recorded")
	}
	var batches uint64
	for _, c := range st.DrainSizes {
		batches += c
	}
	if batches == 0 {
		t.Fatal("no writer batches recorded")
	}
}

// pacedPair wires an export with cfg to an import over loopback and
// starts a drain goroutine that counts and releases every arriving tuple.
func pacedPair(t *testing.T, cfg TransportConfig) (exp *exportOp, got *atomic.Uint64, stop func()) {
	t.Helper()
	send, recv := loopbackPair(t)
	exp = newExportOp("x")
	exp.cfg = cfg.withDefaults()
	if err := exp.connect(send, ""); err != nil {
		t.Fatal(err)
	}
	imp := newImportSource("i")
	imp.connect(recv, nil)
	got, done := runImportDrain(imp, ^uint64(0))
	return exp, got, func() {
		exp.close()
		imp.close()
		<-done
	}
}

// waitArrived polls until got reaches want or within elapses, returning
// how long it took and whether it got there.
func waitArrived(got *atomic.Uint64, want uint64, within time.Duration) (time.Duration, bool) {
	start := time.Now()
	for got.Load() < want {
		if time.Since(start) > within {
			return time.Since(start), false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start), true
}

// TestTrickleCoalescesIntoFrames paces one tuple every ~20µs for ~200ms —
// a sustained trickle the writer would otherwise drain, frame and flush
// one tuple at a time — and requires the writer to linger up to
// MaxFlushDelay so the trickle leaves in multi-tuple frames.
func TestTrickleCoalescesIntoFrames(t *testing.T) {
	exp, got, stop := pacedPair(t, TransportConfig{MaxFlushDelay: 5 * time.Millisecond, BlockTimeout: time.Minute})
	defer stop()
	tp := benchTuple(64)
	defer tp.Release()
	const pace = 20 * time.Microsecond
	start := time.Now()
	var n uint64
	for time.Since(start) < 200*time.Millisecond {
		for time.Since(start) < time.Duration(n)*pace {
			runtime.Gosched()
		}
		exp.Process(0, tp, nil)
		n++
	}
	if _, ok := waitArrived(got, n, 10*time.Second); !ok {
		t.Fatalf("%d of %d tuples arrived", got.Load(), n)
	}
	sent, frames, flushes := exp.Sent(), exp.WireFrames(), exp.Flushes()
	if sent != n || exp.Dropped() != 0 {
		t.Fatalf("sent %d dropped %d, want %d and 0", sent, exp.Dropped(), n)
	}
	if frames == 0 || sent < 8*frames {
		t.Fatalf("%d tuples in %d frames (%d flushes): %.1f tuples/frame, want >= 8",
			sent, frames, flushes, float64(sent)/float64(frames))
	}
}

// TestIdleStreamFlushesAtOnce: the linger only holds a trickle. A tuple
// sent to a stream idle for longer than MaxFlushDelay — the first tuple,
// and one after a quiet gap — leaves at once instead of waiting out the
// delay.
func TestIdleStreamFlushesAtOnce(t *testing.T) {
	const delay = 400 * time.Millisecond
	exp, got, stop := pacedPair(t, TransportConfig{MaxFlushDelay: delay})
	defer stop()
	tp := benchTuple(64)
	defer tp.Release()
	for i := uint64(1); i <= 2; i++ {
		exp.Process(0, tp, nil)
		if took, ok := waitArrived(got, i, delay/2); !ok {
			t.Fatalf("tuple %d after an idle gap took over %v (MaxFlushDelay %v)", i, took, delay)
		}
		time.Sleep(delay + delay/4)
	}
}

// TestLingerEndsOnFullBatch: a producer that stages a full writer batch
// wakes a lingering writer, so a burst is never held for MaxFlushDelay.
// With a one-minute delay, a writer that only woke at the deadline would
// leave the burst (and the producer, once the ring fills) stuck.
func TestLingerEndsOnFullBatch(t *testing.T) {
	exp, got, stop := pacedPair(t, TransportConfig{MaxFlushDelay: time.Minute, BlockTimeout: time.Minute})
	tp := benchTuple(64)
	produced := make(chan struct{})
	defer func() {
		stop() // unblocks a producer parked on a full ring
		<-produced
		tp.Release()
	}()
	exp.Process(0, tp, nil) // flushes at once, then the writer lingers
	if _, ok := waitArrived(got, 1, 10*time.Second); !ok {
		close(produced)
		t.Fatal("first tuple never arrived")
	}
	const burst = 16 * writerBatchTuples
	go func() {
		defer close(produced)
		for i := 0; i < burst; i++ {
			exp.Process(0, tp, nil)
		}
	}()
	// Full batches flush on FlushBytes; only a sub-batch tail may linger.
	if _, ok := waitArrived(got, 1+burst/2, 10*time.Second); !ok {
		t.Fatalf("%d of %d burst tuples arrived while the writer lingered", got.Load()-1, burst)
	}
}
