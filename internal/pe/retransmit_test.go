package pe

import (
	"bytes"
	"strings"
	"testing"

	"streamelastic/internal/spl"
)

// liveBuffers counts the window's slots that still hold a frame.
func liveBuffers(r *retransRing) int {
	n := 0
	for i := range r.slots {
		if r.slots[i].buf != nil {
			n++
		}
	}
	return n
}

// replayedSeqs decodes every frame framesAfter emits and returns the wire
// sequences they carry, in emission order.
func replayedSeqs(t *testing.T, r *retransRing, resume uint64) ([]uint64, uint64, error) {
	t.Helper()
	var wire []byte
	_, tuples, err := r.framesAfter(resume, func(buf []byte) error {
		if len(buf) == 0 {
			t.Fatal("framesAfter emitted an empty (reclaimed) frame")
		}
		wire = append(wire, buf...)
		return nil
	})
	dec := newDecoder(bytes.NewReader(wire))
	out := make([]*spl.Tuple, maxBatchTuples)
	var seqs []uint64
	for {
		n, first, derr := dec.decodeFrame(out)
		if derr != nil {
			break
		}
		for i := 0; i < n; i++ {
			seqs = append(seqs, first+uint64(i))
		}
		releaseAll(out[:n])
	}
	return seqs, tuples, err
}

// pinnedChunks counts the chunks the window holds: in use plus free.
func pinnedChunks(r *retransRing) int { return len(r.chunks) - r.chead + len(r.free) }

// TestRetransReclaimReusesBuffersZeroAlloc pins the steady state of an
// acknowledged stream: frames draw chunk space the last acks gave back, so
// put/ack cycles allocate nothing and the window pins two chunks (the one
// being filled and the one just freed), not a buffer per slot it has used.
func TestRetransReclaimReusesBuffersZeroAlloc(t *testing.T) {
	r := newRetransRing(1024)
	ts := benchBatch(writerBatchTuples, 64)
	defer releaseBatch(ts)
	seq := uint64(1)
	cycle := func() {
		r.reclaim(seq - 1)
		if r.full(seq - 1) {
			t.Fatal("acknowledged window reports full")
		}
		if _, err := r.putBatch(seq, ts); err != nil {
			t.Fatal(err)
		}
		seq += uint64(len(ts))
	}
	for i := 0; i < 16; i++ { // warm the free list
		cycle()
	}
	if allocs := testing.AllocsPerRun(2000, cycle); allocs != 0 {
		t.Fatalf("put/ack cycle allocates %.2f objects, want 0", allocs)
	}
	if n := liveBuffers(r); n != 1 {
		t.Fatalf("%d slots hold a frame after %d acknowledged frames, want 1", n, r.count)
	}
	if n := pinnedChunks(r); n > 2 {
		t.Fatalf("window pins %d chunks with one frame in flight, want <= 2", n)
	}
}

// TestRetransReclaimFollowsInFlight shows the window's memory tracks the
// frames in flight: a burst of unacknowledged frames grows it, the ack
// frees all but the chunk being filled, and the next burst of the same
// size reuses the freed chunks without allocating.
func TestRetransReclaimFollowsInFlight(t *testing.T) {
	r := newRetransRing(64)
	ts := benchBatch(writerBatchTuples, 256) // ~39 KiB frames, one per chunk
	defer releaseBatch(ts)
	seq := uint64(1)
	burst := func() {
		for i := 0; i < 8; i++ {
			if _, err := r.putBatch(seq, ts); err != nil {
				t.Fatal(err)
			}
			seq += uint64(len(ts))
		}
	}
	burst()
	if n := pinnedChunks(r); n != 8 {
		t.Fatalf("window pins %d chunks with 8 frames in flight, want 8", n)
	}
	r.reclaim(seq - 1)
	if n, free := liveBuffers(r), len(r.free); n != 0 || free != 7 {
		t.Fatalf("after the ack: %d live frames, %d free chunks; want 0 and 7", n, free)
	}
	burst() // the chunk being filled has no room, so one more is allocated
	if allocs := testing.AllocsPerRun(3, func() { r.reclaim(seq - 1); burst() }); allocs != 0 {
		t.Fatalf("a burst after the ack allocates %.0f objects, want 0", allocs)
	}
	if n := pinnedChunks(r); n != 9 {
		t.Fatalf("window pins %d chunks for bursts of 8 frames, want 9", n)
	}
}

// TestRetransOverwriteWithoutReclaim covers puts over slots whose frames
// were never reclaimed (the window check passed, but no reclaim ran):
// overwriting advances the oldest-live index, chunks behind it are reused,
// and a later reclaim drops each frame exactly once.
func TestRetransOverwriteWithoutReclaim(t *testing.T) {
	r := newRetransRing(2)
	ts := benchBatch(writerBatchTuples, 256)
	defer releaseBatch(ts)
	seq := uint64(1)
	put := func() {
		if _, err := r.putBatch(seq, ts); err != nil {
			t.Fatal(err)
		}
		seq += uint64(len(ts))
	}
	for i := 0; i < 4; i++ {
		put()
	}
	if allocs := testing.AllocsPerRun(20, put); allocs != 0 {
		t.Fatalf("overwriting puts allocate %.2f objects, want 0", allocs)
	}
	if n := pinnedChunks(r); n > 3 {
		t.Fatalf("two-slot window pins %d chunks, want <= 3", n)
	}
	r.reclaim(seq - 1)
	if n := liveBuffers(r); n != 0 || r.tail != r.count {
		t.Fatalf("reclaim left %d live frames, tail %d of %d", n, r.tail, r.count)
	}
}

// TestRetransOversizeFrame: a frame larger than a chunk gets a buffer of
// its own and replays like any other.
func TestRetransOversizeFrame(t *testing.T) {
	r := newRetransRing(4)
	ts := benchBatch(1, retransChunkBytes)
	defer releaseBatch(ts)
	if _, err := r.putBatch(1, ts); err != nil {
		t.Fatal(err)
	}
	if len(r.chunks) != 0 {
		t.Fatalf("oversize frame packed into a chunk")
	}
	if seqs, _, err := replayedSeqs(t, r, 0); err != nil || len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("replay of the oversize frame: seqs %v, err %v", seqs, err)
	}
}

// TestRetransFramesAfterReclaimReplaysExactly replays from every resume
// point at or above the reclaimed watermark: the emitted frames cover
// (resume, last] with no gap and no reclaimed slot, a partially acked frame
// is emitted whole, and the tuple count is the sequences past resume.
func TestRetransFramesAfterReclaimReplaysExactly(t *testing.T) {
	pool := benchBatch(5, 32)
	defer releaseBatch(pool)
	// Frames of 1..5 tuples: [1,1] [2,3] [4,6] [7,10] [11,15] [16,16] ...
	r := newRetransRing(16)
	seq := uint64(1)
	for i := 0; i < 12; i++ {
		k := i%5 + 1
		if _, err := r.putBatch(seq, pool[:k]); err != nil {
			t.Fatal(err)
		}
		seq += uint64(k)
	}
	last := seq - 1
	const acked = 10 // frames [1,1]..[7,10] reclaimed
	r.reclaim(acked)
	if got := liveBuffers(r); got != 8 {
		t.Fatalf("%d live frames after reclaiming 4 of 12", got)
	}
	for resume := uint64(acked); resume <= last; resume++ {
		seqs, tuples, err := replayedSeqs(t, r, resume)
		if err != nil {
			t.Fatalf("resume %d: %v", resume, err)
		}
		if tuples != last-resume {
			t.Fatalf("resume %d: counted %d tuples, want %d", resume, tuples, last-resume)
		}
		past := seqs[:0:0]
		for _, s := range seqs {
			if s > resume {
				past = append(past, s)
			}
		}
		if uint64(len(past)) != last-resume {
			t.Fatalf("resume %d: replayed %d sequences past it, want %d", resume, len(past), last-resume)
		}
		for i, s := range past {
			if s != resume+1+uint64(i) {
				t.Fatalf("resume %d: sequence %d at position %d, want %d", resume, s, i, resume+1+uint64(i))
			}
		}
	}
}

// TestRetransFramesAfterFailsClosedBelowReclaim: a resume below a reclaimed
// frame cannot be served, and framesAfter says so with the window error
// before emitting anything, rather than skipping the gap or emitting the
// reclaimed slot.
func TestRetransFramesAfterFailsClosedBelowReclaim(t *testing.T) {
	ts := benchBatch(4, 16)
	defer releaseBatch(ts)
	r := newRetransRing(16)
	for seq := uint64(1); seq <= 4*6; seq += 4 {
		if _, err := r.putBatch(seq, ts); err != nil {
			t.Fatal(err)
		}
	}
	r.reclaim(12) // frames [1,4] [5,8] [9,12]
	for _, resume := range []uint64{0, 5, 11} {
		emitted := 0
		_, _, err := r.framesAfter(resume, func([]byte) error { emitted++; return nil })
		if err == nil || !strings.Contains(err.Error(), "left the retransmit window") {
			t.Fatalf("resume %d below the reclaimed watermark: err = %v", resume, err)
		}
		if emitted != 0 {
			t.Fatalf("resume %d: emitted %d frames before failing", resume, emitted)
		}
	}
	if seqs, _, err := replayedSeqs(t, r, 12); err != nil || len(seqs) != 12 || seqs[0] != 13 {
		t.Fatalf("resume at the watermark: seqs %v, err %v", seqs, err)
	}
}
