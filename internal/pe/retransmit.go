package pe

import (
	"fmt"

	"streamelastic/internal/spl"
)

// retransSlot holds one staged batch frame's encoded bytes until the
// receiver acknowledges its last wire sequence. A slot covers the batch's
// inclusive sequence range [first, last]. The buffer is reused when the slot is overwritten, so steady-state
// staging allocates nothing once the ring has warmed up to the workload's
// frame sizes.
type retransSlot struct {
	first uint64
	last  uint64
	buf   []byte
}

// retransRing is the export writer's bounded retransmit window: the last
// RetransmitCapacity staged frames in insertion order. Only the writer
// goroutine touches it — the window-space check against the acked watermark
// (full) is what keeps unacknowledged frames from being overwritten.
type retransRing struct {
	mask  uint64
	count uint64 // frames inserted; next frame lands in slot count&mask
	slots []retransSlot
}

func newRetransRing(capacity int) *retransRing {
	// Caller (TransportConfig.withDefaults) guarantees a power of two >= 2.
	return &retransRing{
		mask:  uint64(capacity - 1),
		slots: make([]retransSlot, capacity),
	}
}

// full reports whether inserting another frame would overwrite a slot whose
// sequences are not yet covered by the acked watermark: the window is
// counted in frames, and a slot pins its batch's whole sequence range until
// the last of them is acknowledged.
func (r *retransRing) full(acked uint64) bool {
	s := &r.slots[r.count&r.mask]
	return s.last != 0 && s.last > acked
}

// putBatch marshals ts as one batch frame covering wire sequences
// first..first+len(ts)-1 into the next slot and returns the encoded bytes.
// The caller must have checked full first.
func (r *retransRing) putBatch(first uint64, ts []*spl.Tuple) ([]byte, error) {
	s := &r.slots[r.count&r.mask]
	b, err := marshalBatchFrame(s.buf, first, ts)
	if err != nil {
		return nil, err
	}
	s.first, s.last, s.buf = first, first+uint64(len(ts))-1, b
	r.count++
	return b, nil
}

// framesAfter walks the live window oldest to newest and emits every frame
// carrying sequences past resume, verifying the frames cover (resume, last]
// without a gap — a partially-acked batch frame is emitted whole and the
// importer's sequence dedup drops the overlap. It returns the frame and
// tuple counts emitted (tuples counted past resume only).
func (r *retransRing) framesAfter(resume uint64, emit func(buf []byte) error) (frames int, tuples uint64, err error) {
	start := uint64(0)
	if n := uint64(len(r.slots)); r.count > n {
		start = r.count - n
	}
	expect := resume + 1
	for i := start; i < r.count; i++ {
		s := &r.slots[i&r.mask]
		if s.last <= resume {
			continue
		}
		if s.first > expect {
			return frames, tuples, fmt.Errorf("pe: frames (%d, %d) left the retransmit window", resume, s.first)
		}
		if err := emit(s.buf); err != nil {
			return frames, tuples, err
		}
		frames++
		from := s.first
		if resume+1 > from {
			from = resume + 1
		}
		tuples += s.last - from + 1
		expect = s.last + 1
	}
	return frames, tuples, nil
}
