package pe

import (
	"fmt"

	"streamelastic/internal/spl"
)

// retransChunkBytes sizes the chunks the retransmit ring packs frames
// into. A frame never spans two chunks; one larger than a chunk (a single
// tuple past batchTargetBytes) gets a buffer of its own.
const retransChunkBytes = 64 << 10

// retransSlot holds one staged batch frame's encoded bytes until the
// receiver acknowledges its last wire sequence. A slot covers the batch's
// inclusive sequence range [first, last]. Once the frame is acknowledged
// buf is nil; the range stays, so a resume that still needs the frame fails
// closed instead of skipping it.
type retransSlot struct {
	first uint64
	last  uint64
	buf   []byte
}

// retransChunk is one chunk of packed frame bytes and the insertion index
// of the last frame packed into it.
type retransChunk struct {
	buf       []byte
	lastFrame uint64
}

// retransRing is the export writer's bounded retransmit window: the last
// RetransmitCapacity staged frames in insertion order. Only the writer
// goroutine touches it — the window-space check against the acked watermark
// (full) is what keeps unacknowledged frames from being overwritten.
//
// Frames are packed back to back into fixed-size chunks. Once every frame
// in a chunk is acknowledged (reclaim) or overwritten, the chunk goes onto
// a LIFO free list that later frames draw from, so the memory the window
// pins follows the bytes of the frames in flight: not capacity times the
// largest frame ever staged, and not a per-frame buffer grown to the
// largest frame it ever held. Steady-state staging allocates nothing once
// the free list has warmed up to the workload's bytes in flight.
type retransRing struct {
	mask  uint64
	count uint64 // frames inserted; next frame lands in slot count&mask
	tail  uint64 // oldest inserted frame not yet reclaimed or overwritten
	slots []retransSlot

	chunks []retransChunk // in use, oldest first from chead; the last is being filled
	chead  int
	off    int      // bytes used in the chunk being filled
	free   [][]byte // chunks whose frames are all behind tail, reused LIFO
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

// reclaim drops every frame the acked watermark covers, oldest first, and
// frees the chunks left without a live frame. Sequence ranges ascend with
// insertion order, so the walk stops at the first frame still in flight.
func (r *retransRing) reclaim(acked uint64) {
	for r.tail < r.count {
		s := &r.slots[r.tail&r.mask]
		if s.last > acked {
			break
		}
		s.buf = nil
		r.tail++
	}
	r.releaseChunks()
}

// releaseChunks moves every chunk whose frames all lie behind tail, except
// the one being filled, onto the free list.
func (r *retransRing) releaseChunks() {
	for r.chead < len(r.chunks)-1 && r.chunks[r.chead].lastFrame < r.tail {
		r.free = append(r.free, r.chunks[r.chead].buf)
		r.chunks[r.chead] = retransChunk{}
		r.chead++
	}
	if r.chead > 0 && 2*r.chead >= len(r.chunks) {
		// Slide the live chunks down so the queue reuses its array.
		n := copy(r.chunks, r.chunks[r.chead:])
		clear(r.chunks[n:])
		r.chunks = r.chunks[:n]
		r.chead = 0
	}
}

// putBatch marshals ts as one batch frame covering wire sequences
// first..first+len(ts)-1 into the next slot and returns the encoded bytes.
// The caller must have checked full first.
func (r *retransRing) putBatch(first uint64, ts []*spl.Tuple) ([]byte, error) {
	need, err := batchFrameLen(ts)
	if err != nil {
		return nil, err
	}
	s := &r.slots[r.count&r.mask]
	if s.buf != nil {
		// Overwriting a frame no reclaim dropped: it was the oldest live one.
		s.buf = nil
		r.tail++
		r.releaseChunks()
	}
	var dst []byte
	if need <= retransChunkBytes {
		if len(r.chunks) == r.chead || r.off+need > retransChunkBytes {
			var buf []byte
			if n := len(r.free); n > 0 {
				buf = r.free[n-1]
				r.free[n-1] = nil
				r.free = r.free[:n-1]
			} else {
				buf = make([]byte, retransChunkBytes)
			}
			r.chunks = append(r.chunks, retransChunk{buf: buf})
			r.off = 0
		}
		c := &r.chunks[len(r.chunks)-1]
		dst = c.buf[r.off : r.off : r.off+need]
		c.lastFrame = r.count
		r.off += need
	} else {
		dst = make([]byte, 0, need)
	}
	b := appendBatchFrame(dst, need, first, ts)
	s.first, s.last, s.buf = first, first+uint64(len(ts))-1, b
	r.count++
	return b, nil
}

// framesAfter walks the live window oldest to newest and emits every frame
// carrying sequences past resume, verifying the frames cover (resume, last]
// without a gap — a partially-acked batch frame is emitted whole and the
// importer's sequence dedup drops the overlap. A needed frame that was
// overwritten or reclaimed fails the resume closed. It returns the frame
// and tuple counts emitted (tuples counted past resume only).
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
		if s.first > expect || s.buf == nil {
			return frames, tuples, fmt.Errorf("pe: frames (%d, %d] left the retransmit window", resume, s.last)
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
