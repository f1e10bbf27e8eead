package pe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamelastic/internal/fault"
	"streamelastic/internal/obs"
	"streamelastic/internal/queue"
	"streamelastic/internal/spl"
)

// importPollInterval bounds how long an idle import source blocks before
// yielding back to its operator thread, so engine reconfiguration (which
// waits for all loops to park) is never stalled by a quiet stream.
const importPollInterval = 20 * time.Millisecond

// importRingCapacity sizes the injection ring between the stream reader
// goroutine and the import source (a power of two, as the MPMC requires).
// It is a deliberate network receive buffer, decoupling TCP reads from
// operator execution.
const importRingCapacity = 256

// importBatchMax bounds how many buffered tuples one Next wake emits, so a
// single operator-thread wake drains a burst without starving the engine's
// pause barrier.
const importBatchMax = 64

// writerBatchTuples is the writer goroutine's per-drain batch: how many
// staged tuples one ring pop claims.
const writerBatchTuples = 128

// closeFlushTimeout bounds the final drain-and-flush at stream close, so a
// stalled peer cannot wedge job shutdown.
const closeFlushTimeout = 2 * time.Second

// handshakeTimeout bounds the resume-sequence read after a (re)connect.
const handshakeTimeout = 5 * time.Second

// ackEvery is the receive side's inline acknowledgement cadence: one ack
// per this many delivered frames, with a ticker covering the idle tail.
const ackEvery = 256

// ackTickInterval paces the receive side's idle-tail acknowledgements.
const ackTickInterval = 50 * time.Millisecond

// ackWriteTimeout bounds one acknowledgement write. A sender that never
// drains its side of the connection (a stalled peer, or a test writing raw
// frames) eventually fills the socket buffer; on the first timed-out ack the
// receiver stops acknowledging for that connection instead of wedging.
const ackWriteTimeout = time.Second

// errExportClosing ends a writer connection epoch for a graceful close.
var errExportClosing = errors.New("pe: export closing")

// errExportConnLost ends a writer connection epoch when the ack reader
// observes the connection die.
var errExportConnLost = errors.New("pe: export connection lost")

// errExportWindowFull aborts a closing drain whose retransmit window stayed
// full (the peer stopped acknowledging).
var errExportWindowFull = errors.New("pe: retransmit window full at close")

// exportOp is the terminal operator standing in for a cross-PE stream's
// sending side. Process stages a pooled clone of each tuple into a
// lock-free MPMC ring; a dedicated writer goroutine drains the ring in
// batches, assigns each frame a wire sequence, parks its encoded bytes in a
// bounded retransmit ring until the receiver acknowledges them, and
// coalesces frames into large buffered writes flushed by policy.
//
// The writer survives peer death: it redials with capped exponential
// backoff plus jitter, reads the receiver's resume sequence on every
// (re)connect, and retransmits every unacknowledged frame past it — the
// stream is at-least-once on the wire, and the import side's sequence
// dedup makes it exactly-once downstream. The export is a sink in its PE's
// graph, so the PE's throughput meter counts exported tuples.
type exportOp struct {
	name string
	cfg  TransportConfig
	addr string // redial address; "" = single-connection mode (tests)

	// seedSeq pre-loads the writer's wire-sequence counter so a replacement
	// export continues a retired predecessor's sequence domain (region
	// migration). Written before connect; the writer goroutine reads it once
	// at startup.
	seedSeq uint64

	// inj/site are the chaos hook: nil inj means no injection.
	inj  *fault.Injector
	site int

	// rec/recPE feed the flight recorder; a nil rec no-ops every Record.
	rec   *obs.FlightRecorder
	recPE int32

	mu    sync.Mutex    // guards connect/close transitions and conn epochs
	conn  net.Conn      // current epoch's connection, for close()
	thaw  chan struct{} // non-nil exactly while the edge is frozen
	ring  *queue.MPMC[*spl.Tuple]
	wake  chan struct{}
	space chan struct{}
	quit  chan struct{}
	done  chan struct{}

	wired     atomic.Bool
	parked    atomic.Bool
	lingering atomic.Bool // writer holds a trickle until its flush deadline
	closed    atomic.Bool
	frozen    atomic.Bool  // migration freeze: writer parks, producers wait
	failed    atomic.Bool  // permanent: connection lost with no redial address
	connected atomic.Bool  // current connection attached and healthy
	progress  atomic.Int64 // unix nanos of the writer's last useful work

	acked  atomic.Uint64 // receiver's acknowledged wire-sequence watermark
	ackSig chan struct{}

	seqHigh    atomic.Uint64 // highest wire sequence staged (readable snapshot of nextSeq)
	retransT   atomic.Uint64 // tuples rewritten on resume (replay accounting)
	sent       atomic.Uint64 // tuples staged (assigned a wire sequence)
	wireFrames atomic.Uint64 // batch frames staged
	dropped    atomic.Uint64 // tuples the stream never staged
	retrans    atomic.Uint64 // frame writes beyond the first (resume traffic)
	reconnects atomic.Uint64 // successful re-attaches after a lost connection
	corrupts   atomic.Uint64 // injected frame corruptions
	unacked    atomic.Uint64 // staged frames never acknowledged, set at close
	bytes      atomic.Uint64
	flushes    atomic.Uint64
	batches    batchHist
}

var (
	_ spl.Operator   = (*exportOp)(nil)
	_ spl.Recyclable = (*exportOp)(nil)
)

func newExportOp(name string) *exportOp {
	return &exportOp{name: name, cfg: TransportConfig{}.withDefaults()}
}

// Name returns the operator name.
func (x *exportOp) Name() string { return x.name }

// RecyclesTuples marks the export as a recyclable sink: Process never
// retains the tuple it is handed — the staging ring carries a pooled clone
// — so the engine returns the original to the tuple pool.
func (x *exportOp) RecyclesTuples() {}

// connect attaches the stream's first connection and starts the writer
// goroutine; must happen before the engine starts. A non-empty addr enables
// reconnection: on a lost connection the writer redials it and resumes from
// the retransmit ring. With addr empty the first connection is the only
// one, and losing it fails the stream permanently (tuples drop-and-count).
func (x *exportOp) connect(conn net.Conn, addr string) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	ring, err := queue.NewMPMC[*spl.Tuple](x.cfg.RingCapacity)
	if err != nil {
		return fmt.Errorf("pe: export %s staging ring: %w", x.name, err)
	}
	x.conn = conn
	x.addr = addr
	x.ring = ring
	x.wake = make(chan struct{}, 1)
	x.space = make(chan struct{}, 1)
	x.quit = make(chan struct{})
	x.done = make(chan struct{})
	x.ackSig = make(chan struct{}, 1)
	x.progress.Store(time.Now().UnixNano())
	go x.writerLoop(conn)
	x.wired.Store(true)
	return nil
}

// Process stages the tuple for the writer goroutine. Tuples arriving before
// the stream is wired, after close, or after a permanent failure are
// counted as dropped; a full staging ring blocks the producing scheduler
// thread for a bounded time (the default, preserving the backpressure of
// a blocking socket write) or drops immediately when DropOnFull is
// configured.
func (x *exportOp) Process(_ int, t *spl.Tuple, _ spl.Emitter) {
	if !x.wired.Load() || x.closed.Load() || x.failed.Load() {
		x.dropped.Add(1)
		return
	}
	if s, ok := x.ring.TryReservePush(); ok {
		s.Commit(t.Clone())
		x.wakeWriter()
		return
	}
	if !x.cfg.DropOnFull {
		// Park on the writer's space signal rather than spinning: a yield
		// loop on a saturated box burns the producing core in scheduler
		// churn and starves the very goroutine that must free ring slots.
		timer := time.NewTimer(x.cfg.BlockTimeout)
		defer timer.Stop()
		for {
			if x.closed.Load() || x.failed.Load() {
				break
			}
			if s, ok := x.ring.TryReservePush(); ok {
				s.Commit(t.Clone())
				x.wakeWriter()
				return
			}
			if th := x.frozenThaw(); th != nil {
				// A frozen edge parks the producer instead of dropping: the
				// block timeout is suspended for the freeze's duration and
				// restarts from zero at thaw.
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				select {
				case <-th:
				case <-x.quit:
				}
				timer.Reset(x.cfg.BlockTimeout)
				continue
			}
			select {
			case <-x.space:
			case <-x.quit:
			case <-timer.C:
				x.dropped.Add(1)
				return
			}
		}
	}
	x.dropped.Add(1)
}

// freeze parks the stream: the writer goroutine stops staging frames (it
// flushes what is buffered, then waits) and producers blocked on a full
// staging ring wait for the thaw instead of timing out into the drop
// counter. Staged tuples stay in the ring; nothing is lost. Idempotent.
func (x *exportOp) freeze() {
	x.mu.Lock()
	if x.thaw == nil {
		x.thaw = make(chan struct{})
		x.frozen.Store(true)
	}
	x.mu.Unlock()
}

// unfreeze releases a frozen stream: the writer resumes draining the staging
// ring and blocked producers retry their pushes. Idempotent.
func (x *exportOp) unfreeze() {
	x.mu.Lock()
	th := x.thaw
	x.thaw = nil
	x.frozen.Store(false)
	x.mu.Unlock()
	if th != nil {
		close(th)
	}
	x.signalSpace()
	x.wakeWriter()
}

// frozenThaw returns the channel to wait on while the edge is frozen, or nil
// when it is not. The atomic pre-check keeps the hot path lock-free; the
// mu-guarded re-read closes the race with a concurrent unfreeze (a nil thaw
// after the flag read means the freeze already lifted).
func (x *exportOp) frozenThaw() chan struct{} {
	if !x.frozen.Load() {
		return nil
	}
	x.mu.Lock()
	th := x.thaw
	x.mu.Unlock()
	return th
}

// seedSequence pre-loads the wire-sequence counter so this export continues
// a predecessor's sequence domain after a region migration. Must be called
// before connect. The acked watermark seeds too: sequences at or below the
// seed were acknowledged to the predecessor.
func (x *exportOp) seedSequence(n uint64) {
	x.seedSeq = n
	x.seqHigh.Store(n)
	storeMax(&x.acked, n)
}

// reroute points the stream at a new peer address and kills the current
// connection; the writer's redial loop picks up the new address and the
// resume handshake replays anything the new peer has not seen.
func (x *exportOp) reroute(addr string) {
	x.mu.Lock()
	x.addr = addr
	conn := x.conn
	x.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// currentAddr reads the redial address under mu (reroute writes it there).
func (x *exportOp) currentAddr() string {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.addr
}

// wakeWriter nudges a parked writer, or a lingering one once a full batch
// is staged. The writer re-checks the ring after setting either flag, so a
// push that misses the flag is still observed.
func (x *exportOp) wakeWriter() {
	if x.parked.Load() || (x.lingering.Load() && x.ring.Len() >= writerBatchTuples) {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// signalSpace tells one producer blocked on a full ring that slots freed.
func (x *exportOp) signalSpace() {
	select {
	case x.space <- struct{}{}:
	default:
	}
}

// setConn records the current epoch's connection so close() can bound its
// final flush with a write deadline and close the right socket.
func (x *exportOp) setConn(conn net.Conn) {
	x.mu.Lock()
	x.conn = conn
	x.mu.Unlock()
}

// writerState is the writer goroutine's cross-epoch state: the retransmit
// window, the next wire sequence, and tuples popped from the staging ring
// but not yet staged when an epoch died.
type writerState struct {
	retr    *retransRing
	nextSeq uint64
	batch   []*spl.Tuple
	pending []*spl.Tuple
	pHead   int
	closing bool
	lingerT *time.Timer // reused by linger, created on first use
}

// connSession is one connection epoch: its encoder and the ack-reader
// goroutine draining the receiver's acknowledgement back-channel.
type connSession struct {
	conn      net.Conn
	enc       *encoder
	ackDone   chan struct{}
	lastFlush time.Time // zero until the first flush: the deadline starts passed
}

func (s *connSession) teardown() {
	_ = s.conn.Close()
	<-s.ackDone
}

// writerLoop runs connection epochs until close: attach (handshake +
// resume), drain the staging ring onto the wire, and on a lost connection
// redial and resume. Without a redial address a lost connection fails the
// stream permanently and staged traffic drops-and-counts, preserving
// counter convergence for single-connection users.
func (x *exportOp) writerLoop(first net.Conn) {
	defer close(x.done)
	st := &writerState{
		retr:    newRetransRing(x.cfg.RetransmitCapacity),
		nextSeq: x.seedSeq,
		batch:   make([]*spl.Tuple, writerBatchTuples),
	}
	conn := first
	for {
		sess, err := x.attach(conn, st)
		if err == nil {
			x.connected.Store(true)
			x.runConn(sess, st)
			x.connected.Store(false)
			sess.teardown()
		} else if sess != nil {
			sess.teardown()
		} else {
			_ = conn.Close()
		}
		if x.closed.Load() {
			x.finish(st)
			return
		}
		if x.currentAddr() == "" {
			x.failed.Store(true)
			x.dropPending(st)
			x.drainUntilQuit(st)
			x.finish(st)
			return
		}
		next := x.redial()
		if next == nil {
			x.finish(st)
			return
		}
		x.reconnects.Add(1)
		x.rec.Record(obs.EvReconnect, x.recPE, int64(x.site), 0, "")
		x.setConn(next)
		conn = next
	}
}

// attach performs the resume handshake on a fresh connection: read the
// receiver's delivered watermark (bounded by handshakeTimeout), start the
// ack reader, and retransmit every staged frame past the watermark.
func (x *exportOp) attach(conn net.Conn, st *writerState) (*connSession, error) {
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var hb [8]byte
	if _, err := io.ReadFull(conn, hb[:]); err != nil {
		return nil, fmt.Errorf("pe: export %s handshake: %w", x.name, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	resume := binary.LittleEndian.Uint64(hb[:])
	if resume > st.nextSeq {
		// A sane receiver cannot have seen frames that were never staged.
		resume = st.nextSeq
	}
	storeMax(&x.acked, resume)
	sess := &connSession{conn: conn, enc: newEncoder(conn), ackDone: make(chan struct{})}
	go x.ackReader(conn, sess.ackDone)
	// Retransmit granularity is the frame: a batch frame only partially past
	// the watermark is rewritten whole and the importer's sequence dedup
	// drops the overlap.
	frames, tuples, err := st.retr.framesAfter(resume, func(frame []byte) error {
		return x.writeBytes(sess, frame)
	})
	x.retrans.Add(uint64(frames))
	x.retransT.Add(uint64(tuples))
	if err != nil {
		return sess, err
	}
	if tuples > 0 {
		// One event per resume burst (tuple count), not per frame.
		x.rec.Record(obs.EvRetransmit, x.recPE, int64(x.site), int64(tuples), "")
	}
	if frames > 0 {
		if err := x.flushSess(sess); err != nil {
			return sess, err
		}
	}
	x.progress.Store(time.Now().UnixNano())
	return sess, nil
}

// ackReader drains the receiver's acknowledgement back-channel, advancing
// the acked watermark and waking a writer waiting for window space. It
// exits when the connection dies, which is also how the writer learns of a
// peer death while parked.
func (x *exportOp) ackReader(conn net.Conn, done chan struct{}) {
	defer close(done)
	var b [8]byte
	for {
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return
		}
		storeMax(&x.acked, binary.LittleEndian.Uint64(b[:]))
		select {
		case x.ackSig <- struct{}{}:
		default:
		}
	}
}

// storeMax raises a to v if v is larger; acknowledgement watermarks only
// move forward.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// inFlight is the number of staged frames not yet acknowledged.
func (x *exportOp) inFlight(nextSeq uint64) uint64 {
	a := x.acked.Load()
	if a >= nextSeq {
		return 0
	}
	return nextSeq - a
}

// runConn drains the staging ring onto one connection until the epoch ends
// (connection error, ack-reader death, or close). The flush policy is
// Nagle-style with one deadline, the last flush plus MaxFlushDelay: the
// writer flushes once FlushBytes are pending, when the ring runs empty, or
// when the deadline has passed. After a trickle drain (fewer than
// writerBatchTuples tuples and less than FlushBytes) it lingers until that
// deadline before popping again, so a sustained trickle leaves as one frame
// per MaxFlushDelay instead of one frame and one flush per tuple; a full
// batch never lingers, and a stream idle past the deadline flushes its
// first tuple at once.
func (x *exportOp) runConn(sess *connSession, st *writerState) {
	trickle := false
	for {
		if th := x.frozenThaw(); th != nil {
			// Migration freeze: flush what is buffered so the peer can
			// acknowledge it, then park without staging anything further —
			// not even leftover pending tuples, so the staged watermark
			// (seqHigh) stops moving and quiescence can be observed. The
			// freeze survives connection epochs: a reroute closes the
			// connection, ackDone fires, the next epoch parks here again.
			if x.flushSess(sess) != nil {
				return
			}
			x.parked.Store(true)
			select {
			case <-th:
				x.parked.Store(false)
				continue
			case <-sess.ackDone:
				x.parked.Store(false)
				return
			case <-x.quit:
				x.parked.Store(false)
				x.finalDrain(sess, st)
				return
			}
		}
		if st.pHead < len(st.pending) {
			if err := x.stageBatch(sess, st); err != nil {
				if errors.Is(err, errExportClosing) {
					x.finalDrain(sess, st)
				}
				return
			}
		}
		if trickle {
			if err := x.linger(sess, st); err != nil {
				if errors.Is(err, errExportClosing) {
					x.finalDrain(sess, st)
				}
				return
			}
		}
		n := x.ring.TryPopN(st.batch)
		if n == 0 {
			trickle = false
			if sess.enc.buffered() > 0 {
				if x.flushSess(sess) != nil {
					return
				}
			}
			x.parked.Store(true)
			if x.ring.Len() > 0 {
				x.parked.Store(false)
				continue
			}
			select {
			case <-x.wake:
				x.parked.Store(false)
				continue
			case <-sess.ackDone:
				x.parked.Store(false)
				return
			case <-x.quit:
				x.parked.Store(false)
				x.finalDrain(sess, st)
				return
			}
		}
		x.batches.record(n)
		st.pending = append(st.pending[:0], st.batch[:n]...)
		for i := 0; i < n; i++ {
			st.batch[i] = nil
		}
		st.pHead = 0
		x.signalSpace()
		if err := x.stageBatch(sess, st); err != nil {
			if errors.Is(err, errExportClosing) {
				x.finalDrain(sess, st)
			}
			return
		}
		b := sess.enc.buffered()
		trickle = n < writerBatchTuples && b < x.cfg.FlushBytes
		now := time.Now()
		if b >= x.cfg.FlushBytes || (b > 0 && now.Sub(sess.lastFlush) >= x.cfg.MaxFlushDelay) {
			if x.flushSess(sess) != nil {
				return
			}
		}
		x.progress.Store(now.UnixNano())
	}
}

// linger holds a trickling writer until the flush deadline (last flush
// plus MaxFlushDelay) so the tuples staged meanwhile share one frame and
// one flush. A producer that finds a full batch staged ends the wait early
// through wakeWriter; close and connection loss end it with
// errExportClosing and errExportConnLost.
func (x *exportOp) linger(sess *connSession, st *writerState) error {
	d := x.cfg.MaxFlushDelay - time.Since(sess.lastFlush)
	if d <= 0 {
		return nil
	}
	// A token left from an earlier wake would end the wait at once.
	select {
	case <-x.wake:
	default:
	}
	x.lingering.Store(true)
	defer x.lingering.Store(false)
	if x.ring.Len() >= writerBatchTuples {
		return nil
	}
	if st.lingerT == nil {
		st.lingerT = time.NewTimer(d)
	} else {
		st.lingerT.Reset(d)
	}
	var err error
	select {
	case <-st.lingerT.C:
		return nil
	case <-x.wake:
	case <-sess.ackDone:
		err = errExportConnLost
	case <-x.quit:
		err = errExportClosing
	}
	if !st.lingerT.Stop() {
		select {
		case <-st.lingerT.C:
		default:
		}
	}
	return err
}

// stageBatch assigns wire sequences to the writer's pending tuples, parks
// their encoded frames in the retransmit window (waiting for
// acknowledgements when the window is full), releases the pooled clones,
// and writes the frames to the connection. The pending drain is cut into
// chunks that fit batchTargetBytes (almost always one chunk — a full
// writerBatchTuples drain of small tuples is a few KiB; bulk tuples split
// so frames stay pool-sized) and each chunk becomes one batch frame: one
// marshal, one retransmit slot, one buffered write. Chaos hooks fire once
// per tuple, in staging order, so a fault plan's Nth event lands on the
// same tuple however the drain is chunked and same-seed event logs stay
// byte-identical; the hook *effects* are applied per frame after all of the
// chunk's events are ranked — a kill closes the socket, a stall sleeps, and
// a corruption poisons the wire in place of the whole just-staged frame,
// which rides the retransmit window to the next epoch (the mid-batch-frame
// fault surface).
func (x *exportOp) stageBatch(sess *connSession, st *writerState) error {
	for st.pHead < len(st.pending) {
		if err := x.awaitWindow(sess, st); err != nil {
			return err
		}
		// Cut the next chunk, dropping tuples too large to frame even alone.
		k, prev, body := 0, 0, batchHeaderBytes
		for st.pHead+k < len(st.pending) {
			t := st.pending[st.pHead+k]
			add := batchFrameAdd(t, prev)
			if batchHeaderBytes+batchFrameAdd(t, 0) > maxFrameBytes {
				if k > 0 {
					break // flush the chunk so far, then drop on the next pass
				}
				x.dropped.Add(1)
				t.Release()
				st.pending[st.pHead] = nil
				st.pHead++
				continue
			}
			if k > 0 && body+add > batchTargetBytes {
				break
			}
			if body+add > maxFrameBytes {
				break
			}
			body += add
			prev = batchRecordBytes(t)
			k++
		}
		if k == 0 {
			continue // everything left was oversized and dropped
		}
		first := st.nextSeq + 1
		chunk := st.pending[st.pHead : st.pHead+k]
		frame, err := st.retr.putBatch(first, chunk)
		if err != nil {
			// Cannot happen: the chunk was sized to fit. Fail closed anyway.
			for _, t := range chunk {
				x.dropped.Add(1)
				t.Release()
			}
			clearPending(st, k)
			continue
		}
		st.nextSeq += uint64(k)
		x.seqHigh.Store(st.nextSeq)
		x.sent.Add(uint64(k))
		x.wireFrames.Add(1)
		for _, t := range chunk {
			t.Release()
		}
		clearPending(st, k)
		if x.inj != nil {
			// Rank every tuple's events before acting, so a corruption landing
			// mid-chunk never skips the kill/stall evaluations of the tuples
			// after it — event ranks are a pure function of staging order.
			killed, corrupted := false, false
			var stall time.Duration
			for i := 0; i < k; i++ {
				if x.inj.Fire(fault.ConnKill, x.site) {
					killed = true
				}
				if d := x.inj.FireDelay(fault.WriterStall, x.site); d > 0 {
					stall += d
				}
				if x.inj.Fire(fault.FrameCorrupt, x.site) {
					x.corrupts.Add(1)
					corrupted = true
				}
			}
			if killed {
				_ = sess.conn.Close()
			}
			if stall > 0 {
				time.Sleep(stall)
			}
			if corrupted {
				return x.writeCorrupted(sess)
			}
		}
		if err := x.writeBytes(sess, frame); err != nil {
			return err
		}
	}
	st.pending = st.pending[:0]
	st.pHead = 0
	return nil
}

// clearPending nils and advances past the first k un-cleared pending slots.
func clearPending(st *writerState, k int) {
	for i := 0; i < k; i++ {
		st.pending[st.pHead+i] = nil
	}
	st.pHead += k
}

// awaitWindow blocks until the retransmit window has room for one more
// frame, flushing first so the receiver can acknowledge what it has.
// Frames the acked watermark covers free their memory on the way.
func (x *exportOp) awaitWindow(sess *connSession, st *writerState) error {
	for {
		acked := x.acked.Load()
		st.retr.reclaim(acked)
		if !st.retr.full(acked) {
			return nil
		}
		if err := x.flushSess(sess); err != nil {
			return err
		}
		if st.closing {
			timer := time.NewTimer(closeFlushTimeout)
			select {
			case <-x.ackSig:
				timer.Stop()
			case <-sess.ackDone:
				timer.Stop()
				return errExportConnLost
			case <-timer.C:
				return errExportWindowFull
			}
			continue
		}
		select {
		case <-x.ackSig:
		case <-sess.ackDone:
			return errExportConnLost
		case <-x.quit:
			return errExportClosing
		}
	}
}

// writeCorrupted poisons the wire with an invalid length prefix and flushes
// it, so the receiver rejects the stream and resets the connection. The
// just-staged frame was deliberately not written; it rides the retransmit
// window to the next epoch.
func (x *exportOp) writeCorrupted(sess *connSession) error {
	var bad [4]byte
	binary.LittleEndian.PutUint32(bad[:], ^uint32(0))
	if _, err := sess.enc.writeBytes(bad[:]); err != nil {
		return err
	}
	if err := x.flushSess(sess); err != nil {
		return err
	}
	return fmt.Errorf("pe: export %s injected frame corruption", x.name)
}

// writeBytes writes one encoded frame, counting wire bytes.
func (x *exportOp) writeBytes(sess *connSession, frame []byte) error {
	nb, err := sess.enc.writeBytes(frame)
	x.bytes.Add(uint64(nb))
	return err
}

// flushSess pushes buffered frames onto the connection and restarts the
// flush deadline.
func (x *exportOp) flushSess(sess *connSession) error {
	if sess.enc.buffered() == 0 {
		return nil
	}
	if err := sess.enc.flush(); err != nil {
		return err
	}
	sess.lastFlush = time.Now()
	x.flushes.Add(1)
	return nil
}

// finalDrain empties the staging ring onto the wire at graceful close. A
// few yield rounds let in-flight producers land their reserved slots;
// anything it cannot write (dead peer, stuck window) is left for finish()
// to drop-and-count.
func (x *exportOp) finalDrain(sess *connSession, st *writerState) {
	st.closing = true
	if x.stageBatch(sess, st) != nil {
		return
	}
	for round := 0; round < 3; round++ {
		for {
			n := x.ring.TryPopN(st.batch)
			if n == 0 {
				break
			}
			x.batches.record(n)
			st.pending = append(st.pending[:0], st.batch[:n]...)
			for i := 0; i < n; i++ {
				st.batch[i] = nil
			}
			st.pHead = 0
			x.signalSpace()
			if x.stageBatch(sess, st) != nil {
				return
			}
		}
		runtime.Gosched()
	}
	_ = x.flushSess(sess)
}

// dropPending drops-and-counts tuples popped from the staging ring but
// never staged, returning their pooled clones. Runs when the stream fails
// permanently or closes — the satellite fix for the old path that left
// staged leftovers to the garbage collector.
func (x *exportOp) dropPending(st *writerState) {
	for i := st.pHead; i < len(st.pending); i++ {
		if t := st.pending[i]; t != nil {
			x.dropped.Add(1)
			t.Release()
			st.pending[i] = nil
		}
	}
	st.pending = st.pending[:0]
	st.pHead = 0
}

// drainUntilQuit keeps the staging ring flowing (into the drop counter)
// after a permanent failure, so producers never wedge on a dead stream and
// pushed == sent + dropped converges.
func (x *exportOp) drainUntilQuit(st *writerState) {
	for {
		n := x.ring.TryPopN(st.batch)
		if n > 0 {
			for i := 0; i < n; i++ {
				x.dropped.Add(1)
				st.batch[i].Release()
				st.batch[i] = nil
			}
			x.signalSpace()
			continue
		}
		x.parked.Store(true)
		if x.ring.Len() > 0 {
			x.parked.Store(false)
			continue
		}
		select {
		case <-x.wake:
			x.parked.Store(false)
		case <-x.quit:
			x.parked.Store(false)
			return
		}
	}
}

// finish settles the stream's books at writer exit: remaining pending and
// staged tuples drop-and-count (and return to the pool), and the
// never-acknowledged staged frames are recorded — they may or may not have
// reached the peer.
func (x *exportOp) finish(st *writerState) {
	x.dropPending(st)
	for round := 0; round < 3; round++ {
		for {
			n := x.ring.TryPopN(st.batch)
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				x.dropped.Add(1)
				st.batch[i].Release()
				st.batch[i] = nil
			}
			x.signalSpace()
		}
		runtime.Gosched()
	}
	if a := x.acked.Load(); a < st.nextSeq {
		x.unacked.Store(st.nextSeq - a)
	}
}

// redial re-establishes the stream connection with capped exponential
// backoff plus jitter, returning nil only when the export closes first.
func (x *exportOp) redial() net.Conn {
	backoff := x.cfg.ReconnectBaseDelay
	for {
		if x.closed.Load() {
			return nil
		}
		conn, err := net.DialTimeout("tcp", x.currentAddr(), handshakeTimeout)
		if err == nil {
			return conn
		}
		// Jitter spreads simultaneous redials (a dead PE kills many
		// streams at once) across the backoff window.
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		timer := time.NewTimer(d)
		select {
		case <-x.quit:
			timer.Stop()
			return nil
		case <-timer.C:
		}
		backoff *= 2
		if backoff > x.cfg.ReconnectMaxDelay {
			backoff = x.cfg.ReconnectMaxDelay
		}
	}
}

// Sent returns the number of tuples staged onto the stream (assigned a
// wire sequence and parked in the retransmit window).
func (x *exportOp) Sent() uint64 { return x.sent.Load() }

// Dropped returns the number of tuples the stream never staged.
func (x *exportOp) Dropped() uint64 { return x.dropped.Load() }

// BytesSent returns the wire bytes of encoded frames, retransmits included.
func (x *exportOp) BytesSent() uint64 { return x.bytes.Load() }

// Flushes returns the number of explicit flushes onto the connection.
func (x *exportOp) Flushes() uint64 { return x.flushes.Load() }

// WireFrames returns the number of batch frames staged onto the wire.
// Sent/WireFrames is the batch amortization ratio; WireFrames/Flushes is
// frames per flush.
func (x *exportOp) WireFrames() uint64 { return x.wireFrames.Load() }

// Retransmits returns the number of frame writes beyond each frame's first.
func (x *exportOp) Retransmits() uint64 { return x.retrans.Load() }

// Reconnects returns the number of successful re-attaches.
func (x *exportOp) Reconnects() uint64 { return x.reconnects.Load() }

// Unacked returns the staged frames never acknowledged, recorded at close.
func (x *exportOp) Unacked() uint64 { return x.unacked.Load() }

// StagedDepth returns the staging ring's instantaneous depth.
func (x *exportOp) StagedDepth() int {
	if !x.wired.Load() {
		return 0
	}
	return x.ring.Len()
}

// Connected reports whether the stream currently has a healthy connection.
func (x *exportOp) Connected() bool { return x.connected.Load() }

// LastProgress returns when the writer last made useful progress.
func (x *exportOp) LastProgress() time.Time {
	return time.Unix(0, x.progress.Load())
}

func (x *exportOp) close() {
	if x.closed.Swap(true) {
		return
	}
	x.mu.Lock()
	if x.conn != nil {
		// Unblock a writer stuck in a TCP write against a stalled peer so
		// the final drain is bounded.
		_ = x.conn.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
	}
	quit, done := x.quit, x.done
	x.mu.Unlock()
	if quit != nil {
		close(quit)
		<-done
	}
	x.mu.Lock()
	if x.conn != nil {
		_ = x.conn.Close()
	}
	x.mu.Unlock()
}

// importSource is the source standing in for a cross-PE stream's receiving
// side. A dedicated reader goroutine decodes frames from the connection and
// hands the materialized tuples to the operator thread through a bounded
// MPMC injection ring — a whole batch frame lands with one TryPushN instead
// of per-tuple channel sends, and the operator thread pops slices straight
// into the engine (feeding a compiled region's batch buffer when the
// emitter supports EmitN). A blocked TCP read can never stall the engine's
// pause barrier, and one wake delivers many tuples.
//
// The import owns the stream's listener (when launched as part of a job):
// after a connection dies it accepts the sender's redial, replies with its
// delivered wire-sequence watermark so the sender resumes from the
// retransmit ring, and deduplicates by wire sequence — retransmitted frames
// it already delivered drop-and-count, making the at-least-once wire
// exactly-once downstream.
type importSource struct {
	name string

	// rec/recPE/site feed the flight recorder; a nil rec no-ops every
	// Record.
	rec   *obs.FlightRecorder
	recPE int32
	site  int

	mu     sync.Mutex
	conn   net.Conn
	ln     net.Listener
	inq    *queue.MPMC[*spl.Tuple] // injection ring: reader -> operator thread
	done   chan struct{}
	closed atomic.Bool

	// inWake nudges an operator thread parked on an empty injection ring;
	// inSpace nudges a reader blocked on a full one. Both carry at most one
	// pending signal, like the export's wake/space pair.
	inWake  chan struct{}
	inSpace chan struct{}

	// rbatch is the operator thread's pop scratch; only the thread driving
	// Next touches it.
	rbatch []*spl.Tuple

	// timer is the reusable idle-poll timer; only the operator thread
	// driving Next touches it.
	timer *time.Timer

	received  atomic.Uint64 // unique tuples delivered downstream
	delivered atomic.Uint64 // highest wire sequence delivered (resume/dedup)
	frames    atomic.Uint64 // wire frames decoded
	dups      atomic.Uint64 // retransmitted tuples dropped by dedup
	resumes   atomic.Uint64 // connections re-accepted after the first
	bytes     atomic.Uint64

	// Checkpoint/replay support. emitted is the wire sequence of the last
	// tuple actually emitted downstream (wire sequences are contiguous per
	// unique delivery, so it equals the emit count); the checkpoint
	// coordinator stamps it on each epoch under the pause barrier.
	// ackFloor caps the acknowledgement watermark reported upstream:
	// while gated (checkpointing on), acks never pass the last committed
	// checkpoint, so the export's retransmit ring provably retains the
	// replay range (floor, head]. MaxUint64 means ungated (today's
	// behavior).
	emitted  atomic.Uint64
	ackFloor atomic.Uint64

	// pendingRewind, guarded by mu, is a recovery request: the reader
	// loop applies it between connection epochs (see rewind).
	pendingRewind *rewindReq
	rewinding     atomic.Bool
}

// rewindReq asks the reader loop to roll the dedup/resume watermarks back
// to a checkpoint; done is closed once the rewind has been applied.
type rewindReq struct {
	to   uint64
	done chan struct{}
}

var (
	_ spl.Source      = (*importSource)(nil)
	_ spl.DrainExempt = (*importSource)(nil)
)

func newImportSource(name string) *importSource {
	s := &importSource{name: name}
	s.ackFloor.Store(^uint64(0)) // ungated until checkpointing arms the gate
	return s
}

// seedWatermark pre-loads the delivered/emitted watermarks so a replacement
// import continues a retired predecessor's sequence domain: the next resume
// handshake tells the (rerouted) sender to skip everything the old import
// already delivered. Must be called before connect.
func (s *importSource) seedWatermark(n uint64) {
	s.delivered.Store(n)
	s.emitted.Store(n)
}

// gateAcks arms the ack floor at zero: no frame is acknowledged upstream
// until the first checkpoint commits and advances the floor. Called once
// at wiring time, before the engine starts.
func (s *importSource) gateAcks() { s.ackFloor.Store(0) }

// advanceAckFloor raises the ack floor to the committed checkpoint
// watermark (floor only ever advances).
func (s *importSource) advanceAckFloor(wm uint64) { storeMax(&s.ackFloor, wm) }

// ackView caps an acknowledgement value at the ack floor.
func (s *importSource) ackView(v uint64) uint64 {
	if f := s.ackFloor.Load(); v > f {
		return f
	}
	return v
}

// emitWatermark returns the wire sequence of the last tuple emitted
// downstream; the checkpoint coordinator reads it under the pause barrier.
func (s *importSource) emitWatermark() uint64 { return s.emitted.Load() }

// rewind rolls the import back to checkpoint watermark `to`: the current
// connection epoch is killed, tuples decoded-but-not-processed are
// released, and the dedup/resume watermarks reset so the next handshake
// makes the sender retransmit (to, head] from its ring. Called with the
// engine paused, so no Next is in flight; replayed tuples re-enter the
// pipeline exactly as live ones. No-op on closed streams, or
// when `to` is ahead of this stream's delivery (foreign watermark).
func (s *importSource) rewind(to uint64) {
	if s.closed.Load() {
		return
	}
	s.mu.Lock()
	q := s.inq
	if q == nil || to > s.delivered.Load() || s.pendingRewind != nil {
		s.mu.Unlock()
		return
	}
	req := &rewindReq{to: to, done: make(chan struct{})}
	s.pendingRewind = req
	s.rewinding.Store(true)
	conn, ended := s.conn, s.done
	s.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	// Drain the injection ring while waiting: the reader may be blocked
	// pushing a decoded batch into a full ring and must finish its epoch
	// before the rewind can apply. The timeout only guards pathological
	// shutdown races (no live connection and no redial); a late apply is
	// still safe — it just re-delivers tuples the dedup downstream drops.
	timeout := time.NewTimer(5 * time.Second)
	defer timeout.Stop()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	var drain [importBatchMax]*spl.Tuple
	for {
		// Each pass holds mu and drains only while the request is pending:
		// applyRewind takes it under mu, and the next epoch pushes the
		// replay right after, so a pass that ran later would discard
		// replayed tuples the sender will never send again.
		s.mu.Lock()
		for s.pendingRewind == req {
			n := q.TryPopN(drain[:])
			if n == 0 {
				break
			}
			for i := 0; i < n; i++ {
				drain[i].Release()
				drain[i] = nil
			}
			s.signalInSpace()
		}
		s.mu.Unlock()
		select {
		case <-req.done:
			return
		case <-ended:
			return // stream ended underneath the rewind
		case <-timeout.C:
			return
		case <-poll.C:
		}
	}
}

// applyRewind applies a pending rewind between connection epochs: no
// serveConn is active, so draining the injection ring and resetting the
// watermarks races nobody. (The engine is paused, so no Next pops either.)
func (s *importSource) applyRewind(q *queue.MPMC[*spl.Tuple]) {
	s.mu.Lock()
	req := s.pendingRewind
	s.pendingRewind = nil
	s.mu.Unlock()
	if req == nil {
		return
	}
	var drain [importBatchMax]*spl.Tuple
	for {
		n := q.TryPopN(drain[:])
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			drain[i].Release()
			drain[i] = nil
		}
	}
	s.delivered.Store(req.to)
	s.emitted.Store(req.to)
	s.rewinding.Store(false)
	close(req.done)
}

// Name returns the operator name.
func (s *importSource) Name() string { return s.name }

// DrainExempt keeps the import running during a drain: it carries the
// in-flight tuples the drain is waiting for.
func (s *importSource) DrainExempt() {}

// Process is a no-op: sources have no input ports.
func (s *importSource) Process(int, *spl.Tuple, spl.Emitter) {}

// connect attaches the stream's first connection and starts the reader
// goroutine; must happen before the engine starts. A non-nil listener is
// adopted for the stream's lifetime: when a connection dies the reader
// accepts the sender's redial on it and resumes. With ln nil the first
// connection is the only one (tests, benchmarks).
func (s *importSource) connect(conn net.Conn, ln net.Listener) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.conn = conn
	s.ln = ln
	// importRingCapacity is a power of two, so NewMPMC cannot fail.
	s.inq, _ = queue.NewMPMC[*spl.Tuple](importRingCapacity)
	s.inWake = make(chan struct{}, 1)
	s.inSpace = make(chan struct{}, 1)
	s.rbatch = make([]*spl.Tuple, importBatchMax)
	s.done = make(chan struct{})
	go s.readLoop(conn, s.inq, s.done)
}

func (s *importSource) setConn(conn net.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
}

// readLoop serves connection epochs: decode frames from the current
// connection until it dies, then (with a listener) accept the sender's
// redial and continue. done closes only when the stream truly ends; the
// operator thread treats done-closed plus an empty injection ring as
// end-of-stream.
func (s *importSource) readLoop(conn net.Conn, q *queue.MPMC[*spl.Tuple], done chan struct{}) {
	defer close(done)
	for {
		if conn != nil {
			s.serveConn(conn, q)
			_ = conn.Close()
			conn = nil
		}
		// Between connection epochs no decoder is running: the only safe
		// point to roll the watermarks back for a checkpoint recovery.
		s.applyRewind(q)
		s.mu.Lock()
		ln := s.ln
		s.mu.Unlock()
		if ln == nil || s.closed.Load() {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.closed.Load() {
			_ = c.Close()
			return
		}
		// A rewind requested while blocked in Accept applies now, before
		// the new epoch handshakes with the (rolled-back) watermark.
		s.applyRewind(q)
		s.resumes.Add(1)
		s.rec.Record(obs.EvResume, s.recPE, int64(s.site), 0, "")
		s.setConn(c)
		conn = c
	}
}

// serveConn speaks one connection epoch of the resume protocol: send the
// delivered watermark as the handshake, then decode batch frames, dropping tuples whose wire sequences sit at or below the
// watermark (retransmitted duplicates — within a batch frame the overlap is
// always a prefix, since sequences ascend) and acknowledging delivery
// inline every ackEvery frames with a ticker covering the idle tail. A
// decoded batch lands in the injection ring with TryPushN; a full ring
// blocks the reader on the operator thread's space signal, which is the
// same backpressure the old per-tuple channel send applied.
func (s *importSource) serveConn(conn net.Conn, q *queue.MPMC[*spl.Tuple]) {
	var wmu sync.Mutex
	var ackFailed atomic.Bool
	writeU64 := func(v uint64) bool {
		if ackFailed.Load() {
			return false
		}
		wmu.Lock()
		defer wmu.Unlock()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		_ = conn.SetWriteDeadline(time.Now().Add(ackWriteTimeout))
		_, err := conn.Write(b[:])
		_ = conn.SetWriteDeadline(time.Time{})
		if err != nil {
			ackFailed.Store(true)
			return false
		}
		return true
	}
	// Every acknowledgement — handshake included — is capped at the ack
	// floor: with checkpointing armed, frames above the last committed
	// watermark stay in the sender's retransmit ring so a recovery rewind
	// can replay them. The resume/dedup watermark (delivered) is NOT
	// capped; excess retransmits after a reconnect are dropped as dups.
	if !writeU64(s.ackView(s.delivered.Load())) {
		return
	}
	lastAcked := s.ackView(s.delivered.Load())
	var tickAcked atomic.Uint64
	tickAcked.Store(lastAcked)
	stopTick := make(chan struct{})
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		tick := time.NewTicker(ackTickInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-tick.C:
				d := s.ackView(s.delivered.Load())
				if d != tickAcked.Load() && writeU64(d) {
					tickAcked.Store(d)
				}
			}
		}
	}()
	defer func() {
		close(stopTick)
		<-tickDone
	}()
	dec := newDecoder(conn)
	sinceAck := 0
	scratch := make([]*spl.Tuple, maxBatchTuples)
	for {
		n, first, err := dec.decodeFrame(scratch)
		if err != nil {
			// EOF ends the epoch cleanly; a framing error also ends it —
			// the reset is what triggers the sender's retransmit resume.
			return
		}
		if s.rewinding.Load() {
			// A checkpoint recovery is rolling this stream back; end the
			// epoch without advancing any watermark.
			releaseAll(scratch[:n])
			return
		}
		s.bytes.Add(uint64(dec.lastFrameBytes()))
		s.frames.Add(1)
		// Dedup at tuple-seq granularity: a retransmitted batch frame that
		// partially overlaps the watermark sheds its already-delivered
		// prefix here.
		wm := s.delivered.Load()
		j := 0
		for i := 0; i < n; i++ {
			if first+uint64(i) <= wm {
				s.dups.Add(1)
				scratch[i].Release()
				scratch[i] = nil
				continue
			}
			scratch[j] = scratch[i]
			j++
		}
		for i := j; i < n; i++ {
			scratch[i] = nil
		}
		if j == 0 {
			continue // whole frame was duplicate
		}
		last := first + uint64(n) - 1
		s.delivered.Store(last)
		if !s.pushBatch(q, scratch[:j]) {
			return // closing or rewinding; unpushed tuples released
		}
		s.received.Add(uint64(j))
		sinceAck++
		if sinceAck >= ackEvery {
			sinceAck = 0
			if a := s.ackView(last); writeU64(a) {
				tickAcked.Store(a)
			}
		}
	}
}

// releaseAll releases and nils every tuple of ts.
func releaseAll(ts []*spl.Tuple) {
	for i, t := range ts {
		if t != nil {
			t.Release()
			ts[i] = nil
		}
	}
}

// pushBatch lands a decoded batch in the injection ring, waking a parked
// operator thread after every partial push and parking on the space signal
// when the ring is full. It returns false — releasing the unpushed
// remainder — when the stream closes or a rewind begins, so a dead consumer
// can never wedge the reader.
func (s *importSource) pushBatch(q *queue.MPMC[*spl.Tuple], ts []*spl.Tuple) bool {
	off := 0
	var timer *time.Timer
	for off < len(ts) {
		n := q.TryPushN(ts[off:])
		if n > 0 {
			for i := off; i < off+n; i++ {
				ts[i] = nil
			}
			off += n
			s.signalInWake()
			continue
		}
		if s.closed.Load() || s.rewinding.Load() {
			releaseAll(ts[off:])
			return false
		}
		if timer == nil {
			timer = time.NewTimer(importPollInterval)
			defer timer.Stop()
		} else {
			timer.Reset(importPollInterval)
		}
		select {
		case <-s.inSpace:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
		}
	}
	return true
}

// signalInWake nudges an operator thread parked on an empty injection ring.
func (s *importSource) signalInWake() {
	select {
	case s.inWake <- struct{}{}:
	default:
	}
}

// signalInSpace tells a reader blocked on a full injection ring that slots
// freed.
func (s *importSource) signalInSpace() {
	select {
	case s.inSpace <- struct{}{}:
	default:
	}
}

// Next emits the next batch of received tuples: a non-blocking TryPopN of
// up to importBatchMax queued tuples when traffic is flowing (no timer-heap
// traffic at all on that path), falling back to a park on the reader's wake
// signal bounded by the reusable poll timer when the stream is quiet. It
// yields with true (and no emission) when the stream is idle for a poll
// interval, and returns false only once the stream has ended and drained.
func (s *importSource) Next(out spl.Emitter) bool {
	s.mu.Lock()
	q, done := s.inq, s.done
	s.mu.Unlock()
	if q == nil {
		// Not wired yet; yield.
		time.Sleep(importPollInterval)
		return !s.closed.Load()
	}
	// Fast path: tuples are already buffered; the poll timer stays cold.
	if n := q.TryPopN(s.rbatch); n > 0 {
		s.emitN(out, n)
		return true
	}
	select {
	case <-done:
		// The reader has exited; drain anything it pushed before the end,
		// then finish the stream. (done closing happens after the reader's
		// final push, so an empty pop here really is the end.)
		if n := q.TryPopN(s.rbatch); n > 0 {
			s.emitN(out, n)
			return true
		}
		return false
	default:
	}
	if s.timer == nil {
		s.timer = time.NewTimer(importPollInterval)
	} else {
		s.timer.Reset(importPollInterval)
	}
	select {
	case <-s.inWake:
		if !s.timer.Stop() {
			// The timer fired concurrently; drain it so the next Reset
			// starts clean (pre-1.23 timer semantics).
			select {
			case <-s.timer.C:
			default:
			}
		}
		if n := q.TryPopN(s.rbatch); n > 0 {
			s.emitN(out, n)
		}
		return true
	case <-done:
		if !s.timer.Stop() {
			select {
			case <-s.timer.C:
			default:
			}
		}
		if n := q.TryPopN(s.rbatch); n > 0 {
			s.emitN(out, n)
			return true
		}
		return false
	case <-s.timer.C:
		return true
	}
}

// emitN hands the first n tuples of the pop scratch downstream — in one
// EmitN when the emitter is batch-aware, so a cross-PE batch lands straight
// in a compiled region's source buffer, else tuple by tuple — then counts
// them and signals ring space to the reader.
func (s *importSource) emitN(out spl.Emitter, n int) {
	if be, ok := out.(spl.BatchEmitter); ok {
		be.EmitN(0, s.rbatch[:n])
		for i := 0; i < n; i++ {
			s.rbatch[i] = nil
		}
	} else {
		for i := 0; i < n; i++ {
			out.Emit(0, s.rbatch[i])
			s.rbatch[i] = nil
		}
	}
	// Wire sequences are contiguous, so counting emits tracks the wire
	// sequence of the last tuple handed downstream — the checkpoint
	// watermark read under the pause barrier.
	s.emitted.Add(uint64(n))
	s.signalInSpace()
}

// Received returns the number of unique tuples delivered downstream.
func (s *importSource) Received() uint64 { return s.received.Load() }

// BytesReceived returns the wire bytes of successfully decoded frames.
func (s *importSource) BytesReceived() uint64 { return s.bytes.Load() }

// FramesReceived returns the number of wire frames decoded.
func (s *importSource) FramesReceived() uint64 { return s.frames.Load() }

// DupsDropped returns the retransmitted duplicates dropped by dedup.
func (s *importSource) DupsDropped() uint64 { return s.dups.Load() }

// Resumes returns the connections re-accepted after the first.
func (s *importSource) Resumes() uint64 { return s.resumes.Load() }

func (s *importSource) close() {
	s.closed.Store(true)
	s.mu.Lock()
	conn, ln, done := s.conn, s.ln, s.done
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	if conn != nil {
		_ = conn.Close()
	}
	if done != nil {
		<-done
	}
}

// dialStream connects a sender to a receiver's listener with retries, since
// PE launch order is arbitrary.
func dialStream(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	if lastErr == nil {
		lastErr = errors.New("dial timeout")
	}
	return nil, lastErr
}

// accepted wraps an accept result.
type accepted struct {
	conn net.Conn
	err  error
}

// acceptOne accepts a single connection asynchronously.
func acceptOne(l net.Listener) <-chan accepted {
	ch := make(chan accepted, 1)
	go func() {
		conn, err := l.Accept()
		ch <- accepted{conn: conn, err: err}
	}()
	return ch
}
