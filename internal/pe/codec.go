// Package pe implements the multi-host layer of the runtime: a job's
// operator graph is partitioned into processing elements (PEs), connected
// operators in different PEs communicate over TCP, and — exactly as the
// paper describes (§2) — every PE independently runs the multi-level
// elasticity scheme on its own slice of the graph.
package pe

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"

	"streamelastic/internal/spl"
)

// maxFrameBytes bounds a single encoded batch frame, protecting readers
// from corrupt or hostile length prefixes.
const maxFrameBytes = 16 << 20

// batchFrameFlag is the high bit of the u32 length prefix and marks a batch
// frame, the only frame format on the wire. A prefix without it can only
// come from a hostile or stale peer (the retired frame-per-tuple format left
// the bit clear), and decodeFrame rejects it.
const batchFrameFlag = uint32(1) << 31

// Batch frame layout (little endian):
//
//	u32 frameLen | batchFrameFlag (bytes after this field)
//	u64 baseSeq (wire sequence of the first tuple; tuple i carries
//	            baseSeq+i implicitly — per-tuple wire seqs never hit the wire.
//	            The wire sequence is the reconnect protocol's resume/ack/dedup
//	            currency, distinct from the application-level Tuple.Seq)
//	u32 count (tuples in the batch, 1..maxBatchTuples)
//	count zigzag-varint record lengths, each a delta from the previous
//	      record's length (the first from 0) — uniform tuples cost 1 byte
//	      for the first and 1 zero byte per subsequent tuple
//	count records, concatenated:
//	      u64 seq, u64 key, i64 time, f64 num1, f64 num2,
//	      u32 textLen, text bytes, u32 payloadLen, payload bytes
const (
	batchHeaderBytes = 8 + 4
	batchRecordFixed = 8 + 8 + 8 + 8 + 8 + 4 + 4
)

// maxBatchTuples bounds a batch frame's tuple count against hostile values;
// the writer never stages more than writerBatchTuples per frame, so the
// bound is generous.
const maxBatchTuples = 1024

// batchTargetBytes is the soft body-size target the export's chunking loop
// cuts batch frames at. Frame-overhead amortization saturates after a few
// dozen records, but the costs that scale with frame size keep growing: the
// importer materializes a whole frame into one arena block before any tuple
// is built, and a retransmit slot pins the full frame until its window slot
// is re-acked — so bulk tuples (16 KiB payloads) in maxFrameBytes-sized
// chunks turn into multi-MiB blocks that thrash the size-class pools and
// stall acks. A single tuple larger than the target still gets its own
// frame (the hard bound stays maxFrameBytes); the target only stops *more*
// tuples from piling into an already-large chunk.
const batchTargetBytes = 64 << 10

// wireBufBytes sizes the buffered reader/writer on each side of a stream
// connection. On the send side it doubles as the frame-coalescing window:
// the writer goroutine flushes by policy (see exportOp), so many small
// frames leave in one syscall.
const wireBufBytes = 64 << 10

// zigzag maps a signed delta to an unsigned varint-friendly value (small
// magnitudes of either sign encode short); unzigzag inverts it.
func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the encoded size of binary.AppendUvarint(nil, u).
func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// batchRecordBytes returns tuple t's record size within a batch frame.
func batchRecordBytes(t *spl.Tuple) int {
	return batchRecordFixed + len(t.Text) + len(t.Payload)
}

// batchFrameAdd returns the wire bytes tuple t adds to a batch frame whose
// previous record was prevRec bytes: its record plus the delta varint. The
// export's chunking loop uses it to fit a staged drain under maxFrameBytes
// with the exact arithmetic batchFrameLen applies.
func batchFrameAdd(t *spl.Tuple, prevRec int) int {
	rec := batchRecordBytes(t)
	return uvarintLen(zigzag(int64(rec-prevRec))) + rec
}

// marshalBatchFrame appends one batch frame (length prefix included)
// carrying ts as wire sequences baseSeq..baseSeq+len(ts)-1 to dst[:0],
// returning the extended slice; dst is replaced when it is too small.
func marshalBatchFrame(dst []byte, baseSeq uint64, ts []*spl.Tuple) ([]byte, error) {
	need, err := batchFrameLen(ts)
	if err != nil {
		return nil, err
	}
	if cap(dst) < need {
		dst = make([]byte, 0, need)
	}
	return appendBatchFrame(dst, need, baseSeq, ts), nil
}

// batchFrameLen returns the wire size of ts as one batch frame, length
// prefix included, or an error when ts cannot be one frame.
func batchFrameLen(ts []*spl.Tuple) (int, error) {
	if len(ts) == 0 || len(ts) > maxBatchTuples {
		return 0, fmt.Errorf("pe: batch of %d tuples outside [1, %d]", len(ts), maxBatchTuples)
	}
	body := batchHeaderBytes
	prev := 0
	for _, t := range ts {
		body += batchFrameAdd(t, prev)
		prev = batchRecordBytes(t)
	}
	if body > maxFrameBytes {
		return 0, fmt.Errorf("pe: batch frame %d bytes exceeds limit %d", body, maxFrameBytes)
	}
	return 4 + body, nil
}

// appendBatchFrame writes the batch frame of ts, whose size need came from
// batchFrameLen, to dst[:0]; cap(dst) >= need keeps it allocation-free. The
// retransmit ring marshals into its own buffers through this, so the frame
// bytes outlive the pooled tuples.
func appendBatchFrame(dst []byte, need int, baseSeq uint64, ts []*spl.Tuple) []byte {
	b := dst[:0]
	b = binary.LittleEndian.AppendUint32(b, uint32(need-4)|batchFrameFlag)
	b = binary.LittleEndian.AppendUint64(b, baseSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ts)))
	prev := 0
	for _, t := range ts {
		rec := batchRecordBytes(t)
		b = binary.AppendUvarint(b, zigzag(int64(rec-prev)))
		prev = rec
	}
	for _, t := range ts {
		b = binary.LittleEndian.AppendUint64(b, t.Seq)
		b = binary.LittleEndian.AppendUint64(b, t.Key)
		b = binary.LittleEndian.AppendUint64(b, uint64(t.Time))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Num1))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Num2))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Text)))
		b = append(b, t.Text...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(t.Payload)))
		b = append(b, t.Payload...)
	}
	return b
}

// encoder writes marshalled frames to a stream through a buffered writer.
type encoder struct {
	w *bufio.Writer
}

func newEncoder(w io.Writer) *encoder {
	return &encoder{w: bufio.NewWriterSize(w, wireBufBytes)}
}

// writeBytes appends an already-marshalled frame to the buffered writer.
func (e *encoder) writeBytes(b []byte) (int, error) {
	return e.w.Write(b)
}

// flush pushes all buffered frames onto the underlying connection.
func (e *encoder) flush() error { return e.w.Flush() }

// buffered reports how many encoded bytes await a flush.
func (e *encoder) buffered() int { return e.w.Buffered() }

// decoder reads batch frames from a stream.
type decoder struct {
	r     *bufio.Reader
	nread uint64
	seq   uint64 // wire sequence of the last decoded frame
	last  int    // wire bytes of the last decoded frame
	// lenBuf is the length-prefix scratch; a local array would escape
	// through the io.ReadFull interface call and cost an allocation per
	// frame.
	lenBuf [4]byte
	// lens is the batch record-length scratch, reused across decodeFrame
	// calls so steady-state batch decoding is allocation-free.
	lens []int
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, wireBufBytes)}
}

// bytesRead returns the cumulative wire bytes of successfully decoded
// frames (length prefixes included).
func (d *decoder) bytesRead() uint64 { return d.nread }

// wireSeq returns the wire sequence of the last decoded frame; the import
// side deduplicates retransmitted frames by it.
func (d *decoder) wireSeq() uint64 { return d.seq }

// lastFrameBytes returns the wire size of the last decoded frame.
func (d *decoder) lastFrameBytes() int { return d.last }

// decodeFrame reads one batch frame and materializes its tuples into out,
// returning the tuple count and the wire sequence of the first tuple (tuple
// i carries first+i); io.EOF (possibly wrapped) means the stream ended
// cleanly. out must hold at least maxBatchTuples entries. The frame's tuples
// share one pooled arena: the records are read into it once and every
// payload is a zero-copy view, attached through references pre-taken in a
// single RetainN. The ownership protocol extends across the wire, so the
// consumer must Release each tuple (directly or via the runtime) when its
// life ends, which is what lets the arena recycle. The frame is fully
// validated before any tuple is built, so a hostile, truncated or unflagged
// frame fails closed — no tuples escape, the arena is released, and the
// error poisons the connection.
func (d *decoder) decodeFrame(out []*spl.Tuple) (int, uint64, error) {
	if _, err := io.ReadFull(d.r, d.lenBuf[:]); err != nil {
		return 0, 0, err
	}
	raw := binary.LittleEndian.Uint32(d.lenBuf[:])
	if raw&batchFrameFlag == 0 {
		return 0, 0, fmt.Errorf("pe: frame length prefix %#x lacks the batch flag", raw)
	}
	frameLen := raw &^ batchFrameFlag
	if frameLen < batchHeaderBytes+1+batchRecordFixed || frameLen > maxFrameBytes {
		return 0, 0, fmt.Errorf("pe: invalid batch frame length %d", frameLen)
	}
	a := spl.AcquireArena(int(frameLen))
	b := a.Bytes()
	if _, err := io.ReadFull(d.r, b); err != nil {
		a.Release()
		return 0, 0, fmt.Errorf("pe: truncated batch frame: %w", err)
	}
	fail := func(err error) (int, uint64, error) {
		a.Release()
		return 0, 0, err
	}
	baseSeq := binary.LittleEndian.Uint64(b[0:])
	count := int(binary.LittleEndian.Uint32(b[8:]))
	if count < 1 || count > maxBatchTuples {
		return fail(fmt.Errorf("pe: batch count %d outside [1, %d]", count, maxBatchTuples))
	}
	if count > len(out) {
		return fail(fmt.Errorf("pe: batch count %d exceeds output capacity %d", count, len(out)))
	}
	if baseSeq == 0 || baseSeq > math.MaxUint64-uint64(count) {
		return fail(fmt.Errorf("pe: batch base sequence %d invalid for count %d", baseSeq, count))
	}
	// Pass 1: decode the delta-varint record lengths and check the records
	// exactly tile the rest of the frame, every text/payload length included.
	if cap(d.lens) < count {
		d.lens = make([]int, maxBatchTuples)
	}
	lens := d.lens[:count]
	off := batchHeaderBytes
	prev := 0
	for i := 0; i < count; i++ {
		u, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return fail(fmt.Errorf("pe: bad record length varint at offset %d", off))
		}
		off += n
		rec64 := int64(prev) + unzigzag(u)
		if rec64 < batchRecordFixed || rec64 > maxFrameBytes {
			return fail(fmt.Errorf("pe: record length %d outside [%d, %d]", rec64, batchRecordFixed, maxFrameBytes))
		}
		lens[i] = int(rec64)
		prev = int(rec64)
	}
	recsStart := off
	for i := 0; i < count; i++ {
		rec := lens[i]
		if rec > len(b)-off {
			return fail(fmt.Errorf("pe: record %d (%d bytes) overruns frame", i, rec))
		}
		r := b[off : off+rec]
		textLen := int(binary.LittleEndian.Uint32(r[40:]))
		if textLen > rec-batchRecordFixed {
			return fail(fmt.Errorf("pe: text length %d overruns record", textLen))
		}
		payloadLen := int(binary.LittleEndian.Uint32(r[44+textLen:]))
		if payloadLen != rec-batchRecordFixed-textLen {
			return fail(fmt.Errorf("pe: payload length %d inconsistent with record", payloadLen))
		}
		off += rec
	}
	if off != len(b) {
		return fail(fmt.Errorf("pe: batch records end at %d, frame is %d bytes", off, len(b)))
	}
	// Pass 2: build the tuples. Validation above guarantees no failure from
	// here, so reference accounting is straightforward: one pre-taken view
	// reference per record (payload-less records return theirs immediately),
	// plus the creator reference dropped at the end.
	a.RetainN(int32(count))
	off = recsStart
	for i := 0; i < count; i++ {
		rec := lens[i]
		r := b[off : off+rec]
		t := spl.AcquireTuple()
		t.Seq = binary.LittleEndian.Uint64(r[0:])
		t.Key = binary.LittleEndian.Uint64(r[8:])
		t.Time = int64(binary.LittleEndian.Uint64(r[16:]))
		t.Num1 = math.Float64frombits(binary.LittleEndian.Uint64(r[24:]))
		t.Num2 = math.Float64frombits(binary.LittleEndian.Uint64(r[32:]))
		textLen := int(binary.LittleEndian.Uint32(r[40:]))
		if textLen > 0 {
			// Strings are immutable and may outlive the frame (operators
			// stash them in aggregates), so the text cannot be a view; this
			// is the one copy decode pays, and only on text-bearing tuples.
			t.Text = string(r[44 : 44+textLen])
		}
		if payloadLen := rec - batchRecordFixed - textLen; payloadLen > 0 {
			t.AttachArenaRetained(a, r[48+textLen:48+textLen+payloadLen])
		} else {
			a.Release()
		}
		out[i] = t
		off += rec
	}
	a.Release()
	d.seq = baseSeq + uint64(count) - 1
	d.last = 4 + int(frameLen)
	d.nread += uint64(d.last)
	return count, baseSeq, nil
}
