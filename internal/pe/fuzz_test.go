package pe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"streamelastic/internal/spl"
)

// FuzzDecode hardens batch frame body validation: the fuzzer's bytes are
// the body of one frame behind a well-formed flagged length prefix, so
// every input reaches the header, record-length, and record checks (random
// prefixes, as FuzzBatchFrameDecode feeds them, rarely get that far).
// decodeFrame must either fail closed or hand back well-formed tuples whose
// content the body bounds, and never panic or over-allocate. Run with
// `go test -fuzz=FuzzDecode ./internal/pe` for a full campaign; the seed
// corpus runs on every ordinary `go test`.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid body, a truncation, and hostile headers.
	valid, err := marshalBatchFrame(nil, 1, []*spl.Tuple{&tupleFixture, &tupleFixture})
	if err != nil {
		f.Fatal(err)
	}
	body := valid[4:]
	f.Add(body)
	f.Add(body[:len(body)/2])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	huge := make([]byte, batchHeaderBytes)
	binary.LittleEndian.PutUint64(huge, 1)
	binary.LittleEndian.PutUint32(huge[8:], maxBatchTuples)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFrameBytes {
			return
		}
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data))|batchFrameFlag)
		frame = append(frame, data...)
		out := make([]*spl.Tuple, maxBatchTuples)
		n, first, err := newDecoder(bytes.NewReader(frame)).decodeFrame(out)
		if err != nil {
			return
		}
		if n < 1 || first == 0 {
			t.Fatalf("decodeFrame returned %d tuples from base sequence %d without error", n, first)
		}
		// Decoded strings/payloads must be bounded by the input size.
		content := 0
		for _, tp := range out[:n] {
			content += len(tp.Text) + len(tp.Payload)
		}
		if content > len(data) {
			t.Fatalf("decoded %d bytes of content from %d input bytes", content, len(data))
		}
		releaseAll(out[:n])
	})
}

// FuzzRoundTrip checks encode/decode inversion on fuzzer-chosen attribute
// values, with the fixture after the fuzzed tuple so the second record
// length is a delta of either sign.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), int64(3), 4.5, 6.7, "text", []byte{1, 2})
	f.Add(uint64(0), uint64(0), int64(-1), -0.0, 1e308, "", []byte{})
	f.Fuzz(func(t *testing.T, seq, key uint64, ts int64, n1, n2 float64, text string, payload []byte) {
		in := tupleFixture
		in.Seq, in.Key, in.Time, in.Num1, in.Num2, in.Text, in.Payload =
			seq, key, ts, n1, n2, text, payload
		frame, err := marshalBatchFrame(nil, 1, []*spl.Tuple{&in, &tupleFixture})
		if err != nil {
			if batchHeaderBytes+batchFrameAdd(&in, 0)+batchFrameAdd(&tupleFixture, batchRecordBytes(&in)) > maxFrameBytes {
				return // oversized tuples are rejected by contract
			}
			t.Fatalf("encode: %v", err)
		}
		out := make([]*spl.Tuple, maxBatchTuples)
		n, first, err := newDecoder(bytes.NewReader(frame)).decodeFrame(out)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if n != 2 || first != 1 {
			t.Fatalf("decoded %d tuples from base sequence %d, want 2 from 1", n, first)
		}
		got := out[0]
		if got.Seq != seq || got.Key != key || got.Time != ts ||
			got.Text != text || !bytes.Equal(got.Payload, normalizeEmpty(payload)) {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, got)
		}
		checkFrame(t, 1, &tupleFixture, out[1])
		releaseAll(out[:n])
	})
}

func normalizeEmpty(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

// FuzzBatchedFrames hardens the batched wire path: several batch frames of
// one to three tuples coalesced into one buffer (exactly what the writer
// goroutine produces between flushes) must round-trip through the pooled
// decoder, survive truncation at any offset with every intact prefix frame
// still decoding exactly, and never panic on a hostile byte flip anywhere
// in the stream — including the length prefixes.
func FuzzBatchedFrames(f *testing.F) {
	f.Add(uint8(3), uint16(10), uint16(2), byte(0xff), "hello", []byte{1, 2, 3})
	f.Add(uint8(8), uint16(0), uint16(0), byte(0x00), "", []byte{})
	f.Add(uint8(1), uint16(48), uint16(1), byte(0x80), "x", []byte{9})
	f.Add(uint8(5), uint16(200), uint16(45), byte(0x01), "batched", bytes.Repeat([]byte{7}, 64))

	f.Fuzz(func(t *testing.T, nframes uint8, cut, mutPos uint16, mutVal byte, text string, payload []byte) {
		n := int(nframes)%8 + 1
		if len(text) > 1024 {
			text = text[:1024]
		}
		if len(payload) > 4096 {
			payload = payload[:4096]
		}

		// Coalesce n distinct frames into one buffer, flushing once at the
		// end, and record where each frame ends on the wire and how many
		// tuples it carries.
		var buf bytes.Buffer
		enc := newEncoder(&buf)
		ends := make([]int, n)
		counts := make([]int, n)
		var want []spl.Tuple
		off := 0
		for i := 0; i < n; i++ {
			counts[i] = i%3 + 1
			ts := make([]*spl.Tuple, counts[i])
			for j := range ts {
				k := len(want)
				in := tupleFixture
				in.Seq = uint64(k)
				in.Key = uint64(k)*7 + 1
				in.Time = int64(k) - 3
				in.Num1 = float64(k) * 1.5
				in.Num2 = -float64(k)
				in.Text = text[:len(text)*(i+1)/n]
				in.Payload = payload[:len(payload)*(n-i)/n]
				want = append(want, in)
				ts[j] = &in
			}
			frame, err := marshalBatchFrame(nil, uint64(len(want)-counts[i])+1, ts)
			if err != nil {
				t.Fatalf("marshal frame %d: %v", i, err)
			}
			nb, err := enc.writeBytes(frame)
			if err != nil {
				t.Fatalf("write frame %d: %v", i, err)
			}
			off += nb
			ends[i] = off
		}
		if err := enc.flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		wire := buf.Bytes()
		if len(wire) != off {
			t.Fatalf("wire is %d bytes, frames summed to %d", len(wire), off)
		}

		// decodeFrames decodes k frames from dec, checking every tuple
		// against want in order.
		out := make([]*spl.Tuple, maxBatchTuples)
		decodeFrames := func(dec *decoder, k int, what string) {
			wi := 0
			for i := 0; i < k; i++ {
				got, first, err := dec.decodeFrame(out)
				if err != nil {
					t.Fatalf("%s: frame %d: %v", what, i, err)
				}
				if got != counts[i] || first != uint64(wi)+1 {
					t.Fatalf("%s: frame %d carried %d tuples from %d, want %d from %d",
						what, i, got, first, counts[i], wi+1)
				}
				for j := 0; j < got; j++ {
					checkFrame(t, wi, &want[wi], out[j])
					wi++
				}
				releaseAll(out[:got])
			}
		}

		// Intact buffer: every frame round-trips through the pooled decoder,
		// the byte meter matches the wire, and the stream ends cleanly.
		dec := newDecoder(bytes.NewReader(wire))
		decodeFrames(dec, n, "intact")
		if _, _, err := dec.decodeFrame(out); err == nil {
			t.Fatal("decode past the final frame succeeded")
		}
		if dec.bytesRead() != uint64(len(wire)) {
			t.Fatalf("decoder read %d wire bytes, want %d", dec.bytesRead(), len(wire))
		}

		// Truncation at a fuzz-chosen offset: frames wholly before the cut
		// still decode exactly; the first incomplete frame must error.
		c := int(cut) % (len(wire) + 1)
		complete := 0
		for _, e := range ends {
			if e <= c {
				complete++
			}
		}
		dec = newDecoder(bytes.NewReader(wire[:c]))
		decodeFrames(dec, complete, fmt.Sprintf("cut at %d", c))
		if _, _, err := dec.decodeFrame(out); err == nil {
			t.Fatalf("cut at %d: decode of incomplete frame %d succeeded", c, complete)
		}

		// Hostile flip anywhere in the stream (length prefixes included):
		// the decoder may accept or reject frames but must stay bounded and
		// never panic.
		mut := append([]byte(nil), wire...)
		mut[int(mutPos)%len(mut)] ^= mutVal | 1
		dec = newDecoder(bytes.NewReader(mut))
		for i := 0; i <= n; i++ {
			got, _, err := dec.decodeFrame(out)
			if err != nil {
				break
			}
			content := 0
			for _, tp := range out[:got] {
				content += len(tp.Text) + len(tp.Payload)
			}
			if content > len(mut) {
				t.Fatalf("mutated stream decoded %d content bytes from %d input bytes", content, len(mut))
			}
			releaseAll(out[:got])
		}
	})
}

// FuzzBatchFrameDecode hardens decodeFrame — the v2 batch path included —
// against arbitrary byte streams: hostile length prefixes, counts, zigzag
// seq-delta varints, and record lengths must all fail closed without a
// panic, and a frame that does decode must never hand back more content
// than its own wire bytes (the arena view cannot over-read its block). The
// committed seed corpus under testdata/fuzz covers valid multi-batch
// buffers, truncations, hostile and unflagged (legacy) length prefixes, and
// targeted header/delta flips;
// regenerate it with PE_GEN_CORPUS=1 go test -run TestGenBatchFrameCorpus.
// Deterministic every-offset truncation and every-byte flips run in
// TestBatchFrameTruncationEveryOffset and TestBatchFrameFlipEveryByte on
// each ordinary go test; run `go test -fuzz=FuzzBatchFrameDecode
// ./internal/pe` for a full campaign.
func FuzzBatchFrameDecode(f *testing.F) {
	for _, seed := range batchFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newDecoder(bytes.NewReader(data))
		out := make([]*spl.Tuple, maxBatchTuples)
		for i := 0; i < 8; i++ {
			n, first, err := dec.decodeFrame(out)
			if err != nil {
				return // fail closed: no tuples escaped this frame
			}
			if n < 1 || n > maxBatchTuples {
				t.Fatalf("decodeFrame returned count %d without error", n)
			}
			if n > 1 && first == 0 {
				t.Fatalf("batch of %d tuples with zero base sequence", n)
			}
			content := 0
			for j := 0; j < n; j++ {
				if out[j] == nil {
					t.Fatalf("nil tuple %d of %d without error", j, n)
				}
				content += len(out[j].Text) + len(out[j].Payload)
			}
			if content > dec.lastFrameBytes() {
				t.Fatalf("frame of %d wire bytes decoded %d content bytes",
					dec.lastFrameBytes(), content)
			}
			if dec.bytesRead() > uint64(len(data)) {
				t.Fatalf("decoder claims %d bytes read from %d input bytes",
					dec.bytesRead(), len(data))
			}
			releaseAll(out[:n])
		}
	})
}

// batchFuzzSeeds builds the seed inputs FuzzBatchFrameDecode starts from;
// TestGenBatchFrameCorpus writes the same set to the committed corpus.
func batchFuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	wire, _, ends := batchWireFixture(tb)
	seeds := [][]byte{
		wire,                     // three valid batch frames
		wire[:ends[0]],           // one whole batch frame
		wire[:ends[0]-7],         // truncated mid-record
		wire[:6],                 // truncated mid-header
		{},                       // empty stream
		{0xff, 0xff, 0xff, 0xff}, // hostile prefix: batch flag + huge length
	}
	// Batch-flagged prefix with a plausible length but no body.
	hungry := make([]byte, 4)
	binary.LittleEndian.PutUint32(hungry, (batchHeaderBytes+1+batchRecordFixed)|batchFrameFlag)
	seeds = append(seeds, hungry)
	// Valid frame with the count field raised past the record section.
	overcount := append([]byte(nil), wire[:ends[0]]...)
	binary.LittleEndian.PutUint32(overcount[12:], 900)
	seeds = append(seeds, overcount)
	// Valid frame with a hostile first seq-delta varint (negative length).
	badDelta := append([]byte(nil), wire[:ends[0]]...)
	badDelta[16], badDelta[17], badDelta[18] = 0xff, 0xff, 0x7f
	seeds = append(seeds, badDelta)
	// A whole frame whose prefix lacks the batch flag: the retired
	// frame-per-tuple format, sent only by a hostile or stale peer.
	legacy := append([]byte(nil), wire[:ends[0]]...)
	binary.LittleEndian.PutUint32(legacy, binary.LittleEndian.Uint32(legacy)&^batchFrameFlag)
	seeds = append(seeds, legacy)
	// Prefix claiming the largest legal frame over an empty stream.
	seeds = append(seeds, binary.LittleEndian.AppendUint32(nil, maxFrameBytes|batchFrameFlag))
	return seeds
}

// TestGenBatchFrameCorpus writes FuzzBatchFrameDecode's seed corpus to
// testdata/fuzz so the seeds are committed files, not only f.Add calls.
// Gated behind PE_GEN_CORPUS=1; rerun it whenever batchFuzzSeeds changes.
func TestGenBatchFrameCorpus(t *testing.T) {
	if os.Getenv("PE_GEN_CORPUS") == "" {
		t.Skip("set PE_GEN_CORPUS=1 to regenerate the committed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzBatchFrameDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range batchFuzzSeeds(t) {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFrame verifies one decoded frame against the tuple it encodes.
func checkFrame(t *testing.T, i int, want, got *spl.Tuple) {
	t.Helper()
	if got.Seq != want.Seq || got.Key != want.Key || got.Time != want.Time ||
		got.Num1 != want.Num1 || got.Num2 != want.Num2 {
		t.Fatalf("frame %d scalars: got %+v, want %+v", i, got, want)
	}
	if got.Text != want.Text {
		t.Fatalf("frame %d text: got %q, want %q", i, got.Text, want.Text)
	}
	if !bytes.Equal(got.Payload, normalizeEmpty(want.Payload)) {
		t.Fatalf("frame %d payload: got %d bytes, want %d", i, len(got.Payload), len(want.Payload))
	}
}
