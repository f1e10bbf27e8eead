package pe

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// TransportConfig tunes the inter-PE stream transport. The zero value means
// defaults throughout, so existing callers keep their behaviour.
type TransportConfig struct {
	// RingCapacity is the staging ring between the PE's scheduler threads
	// and the stream's writer goroutine, rounded up to a power of two
	// (default 1024 tuples).
	RingCapacity int
	// FlushBytes flushes the wire buffer once this many encoded bytes are
	// pending (default 32 KiB), amortizing one syscall over many frames.
	FlushBytes int
	// MaxFlushDelay is the writer's flush deadline, counted from the last
	// flush (default 1ms). Under a sustained trickle — drains smaller than
	// a full writer batch — the writer lingers until the deadline so the
	// tuples staged meanwhile leave as one frame and one flush; a full
	// batch staged meanwhile ends the wait early. A saturated stream
	// flushes on FlushBytes or an empty ring and never lingers, and a
	// stream idle past the deadline flushes its first tuple immediately, so
	// the delay bounds the extra latency per hop.
	MaxFlushDelay time.Duration
	// DropOnFull makes the export drop (and count) tuples when the staging
	// ring is full instead of applying backpressure — latency over
	// completeness. The default is bounded blocking: a full ring blocks the
	// producing scheduler thread up to BlockTimeout, matching the natural
	// backpressure of a blocking socket write, then drops.
	DropOnFull bool
	// BlockTimeout bounds a blocked export when DropOnFull is unset
	// (default 1s); on expiry the tuple is dropped and counted.
	BlockTimeout time.Duration
	// RetransmitCapacity sizes the export's retransmit window — the encoded
	// frames held until the receiver acknowledges them, rounded up to a
	// power of two (default 1024 frames). It bounds resume traffic after a
	// reconnect; a full window blocks the writer until acknowledgements
	// arrive. The window counts frames, not tuples, and acknowledged
	// frames' memory is reused for later frames, so the memory pinned per
	// stream follows the bytes in flight, not the capacity.
	RetransmitCapacity int
	// ReconnectBaseDelay/ReconnectMaxDelay bound the export's redial
	// backoff after a lost connection: capped exponential growth from base
	// to max, with jitter (defaults 10ms / 500ms).
	ReconnectBaseDelay time.Duration
	ReconnectMaxDelay  time.Duration
}

const (
	defaultRingCapacity       = 1024
	defaultFlushBytes         = 32 << 10
	defaultMaxFlushDelay      = time.Millisecond
	defaultBlockTimeout       = time.Second
	defaultRetransmitCapacity = 1024
	defaultReconnectBase      = 10 * time.Millisecond
	defaultReconnectMax       = 500 * time.Millisecond
)

// withDefaults fills zero fields and rounds the ring capacity up to the
// power of two the MPMC ring requires.
func (c TransportConfig) withDefaults() TransportConfig {
	if c.RingCapacity <= 0 {
		c.RingCapacity = defaultRingCapacity
	}
	if c.RingCapacity < 2 {
		c.RingCapacity = 2
	}
	if c.RingCapacity&(c.RingCapacity-1) != 0 {
		c.RingCapacity = 1 << bits.Len(uint(c.RingCapacity))
	}
	if c.FlushBytes <= 0 {
		c.FlushBytes = defaultFlushBytes
	}
	if c.MaxFlushDelay <= 0 {
		c.MaxFlushDelay = defaultMaxFlushDelay
	}
	if c.BlockTimeout <= 0 {
		c.BlockTimeout = defaultBlockTimeout
	}
	if c.RetransmitCapacity <= 0 {
		c.RetransmitCapacity = defaultRetransmitCapacity
	}
	if c.RetransmitCapacity < 2 {
		c.RetransmitCapacity = 2
	}
	if c.RetransmitCapacity&(c.RetransmitCapacity-1) != 0 {
		c.RetransmitCapacity = 1 << bits.Len(uint(c.RetransmitCapacity))
	}
	if c.ReconnectBaseDelay <= 0 {
		c.ReconnectBaseDelay = defaultReconnectBase
	}
	if c.ReconnectMaxDelay < c.ReconnectBaseDelay {
		c.ReconnectMaxDelay = defaultReconnectMax
	}
	if c.ReconnectMaxDelay < c.ReconnectBaseDelay {
		c.ReconnectMaxDelay = c.ReconnectBaseDelay
	}
	return c
}

// batchHistBuckets is the number of log2 batch-size buckets: bucket i
// counts writer drains of [2^i, 2^(i+1)) tuples.
const batchHistBuckets = 8

// batchHist is a lock-free histogram of writer drain batch sizes; it shows
// whether the stream coalesces (high buckets) or runs tuple-at-a-time.
type batchHist [batchHistBuckets]atomic.Uint64

func (h *batchHist) record(n int) {
	if n <= 0 {
		return
	}
	i := bits.Len(uint(n)) - 1
	if i >= batchHistBuckets {
		i = batchHistBuckets - 1
	}
	h[i].Add(1)
}

// snapshot returns the bucket counts, or nil when nothing was recorded.
func (h *batchHist) snapshot() []uint64 {
	out := make([]uint64, batchHistBuckets)
	any := false
	for i := range h {
		out[i] = h[i].Load()
		any = any || out[i] != 0
	}
	if !any {
		return nil
	}
	return out
}

// StreamStats is one cross-PE stream's transport counters, send and receive
// side combined.
type StreamStats struct {
	// Stream identifies the cross edge; FromPE/ToPE are its endpoints.
	Stream int
	FromPE int
	ToPE   int

	// Send side: tuples encoded onto the wire, batch frames staged
	// (Sent/WireFrames is the batch amortization ratio, WireFrames/Flushes
	// the frames per flush), tuples dropped (stream not wired, errored, or staging ring
	// full past the blocking budget), wire bytes written, explicit flush
	// syscalls, and the writer's staging-ring drain-size histogram (log2
	// buckets). DrainSizes counts ring drains, not flushes: one drain spans
	// several frames only when it overflows maxFrameBytes, and several
	// drains usually coalesce into one flush.
	Sent       uint64
	WireFrames uint64
	Dropped    uint64
	BytesSent  uint64
	Flushes    uint64
	DrainSizes []uint64

	// Send-side recovery: frame writes beyond each frame's first (resume
	// traffic after reconnects), successful re-attaches after a lost
	// connection, and staged frames never acknowledged when the stream
	// closed (delivery unknown — counted separately, never as dropped).
	Retransmits uint64
	Reconnects  uint64
	Unacked     uint64

	// Receive side: tuples delivered to the importing PE, wire bytes and
	// wire frames of successfully decoded frames.
	Received       uint64
	BytesReceived  uint64
	FramesReceived uint64

	// Receive-side recovery: retransmitted duplicate tuples dropped by
	// sequence dedup (at-least-once wire made exactly-once downstream) and
	// connections re-accepted after the first.
	DupsDropped uint64
	Resumes     uint64
}
