package main

import (
	"testing"

	"streamelastic/internal/spl"
	"streamelastic/internal/state"
)

// feedChain drives n generated tuples through a KeyedCounter into a fresh
// ledger, the keyed chain's operators without the runtime between them.
func feedChain(t *testing.T, n int) (*generator, *ledgerSink) {
	t.Helper()
	gen := newGenerator(7, 0, n, 8)
	ctr := spl.NewKeyedCounter("ctr", counterWindow, 1)
	ledger := &ledgerSink{}
	toLedger := spl.EmitterFunc(func(port int, tp *spl.Tuple) { ledger.Process(port, tp, nil) })
	gen.Next(spl.EmitterFunc(func(port int, tp *spl.Tuple) { ctr.Process(port, tp, toLedger) }))
	if got := gen.emitted.Load(); got != uint64(n) {
		t.Fatalf("generator emitted %d tuples, want %d", got, n)
	}
	return gen, ledger
}

func TestLedgerAcceptsCorrectOutput(t *testing.T) {
	gen, ledger := feedChain(t, 3*counterWindow)
	if r := ledger.verify(gen.keys, gen.emitted.Load()); r.failed() != 0 {
		t.Fatalf("correct output rejected: %v", r)
	}
}

func TestLedgerCorruptionFailsCheck(t *testing.T) {
	gen, ledger := feedChain(t, 3*counterWindow)
	emitted := gen.emitted.Load()

	c, i := ledger.entry(100)
	c[i]++ // a wrong KeyedCounter value
	c, i = ledger.entry(200)
	c[i] = 0                                         // a lost tuple
	ledger.Process(0, &spl.Tuple{Seq: 300}, nil)     // a duplicate
	ledger.Process(0, &spl.Tuple{Seq: emitted}, nil) // a tuple never emitted

	r := ledger.verify(gen.keys, emitted)
	want := ledgerReport{missing: 1, dups: 1, wrong: 1, extra: 1}
	if r != want {
		t.Fatalf("corrupted ledger: got %v, want %v", r, want)
	}
}

func TestKeysAreSeededAndSkewed(t *testing.T) {
	a, b, c := newKeyDist(1), newKeyDist(1), newKeyDist(2)
	same, hot := 0, 0
	for seq := uint64(0); seq < 10000; seq++ {
		k := a.at(seq)
		if k != b.at(seq) {
			t.Fatalf("seq %d: same seed gave keys %d and %d", seq, k, b.at(seq))
		}
		if k >= numKeys {
			t.Fatalf("seq %d: key %d outside [0, %d)", seq, k, numKeys)
		}
		if k == c.at(seq) {
			same++
		}
		if k == 0 {
			hot++
		}
	}
	if same > 2000 {
		t.Errorf("seeds 1 and 2 agree on %d of 10000 keys", same)
	}
	if hot < 500 {
		t.Errorf("hottest key drawn %d times in 10000, want a skewed draw", hot)
	}
}

func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	ops := []spl.Operator{
		newGenerator(1, 0, 1, 0),
		spl.NewWork("w", spl.NewCostVar(1)),
		spl.NewRoundRobinSplit("split", 2),
		spl.NewKeyedCounter("ctr", 4, 1),
		&ledgerSink{},
		&probeSink{inner: spl.NewCountingSink("snk")},
	}
	for _, op := range ops {
		w, err := wrapOp(op, clsOther, tr)
		if err != nil {
			t.Fatal(err)
		}
		if shapeOf(w) != shapeOf(op) {
			t.Errorf("%s: wrapper interfaces %#x, operator %#x", op.Name(), shapeOf(w), shapeOf(op))
		}
	}
	w, err := wrapOp(spl.NewKeyedCounter("ctr", 4, 1), clsKeyed, tr)
	if err != nil {
		t.Fatal(err)
	}
	w.Process(0, &spl.Tuple{Key: 3}, spl.DiscardEmitter)
	var enc state.Encoder
	if n := w.(state.Snapshotter).StateSnapshot(&enc, true); n == 0 {
		t.Error("snapshot through the wrapper wrote no state")
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	spans := []span{
		{name: 0, seq: 5, start: 0, end: 100, n: 1, k: 1},
		{name: 1, seq: 5, start: 10, end: 60, n: 1, k: 1},
		{name: 2, seq: 5, start: 20, end: 50, n: 1, k: 1},
		{name: 3, seq: 6, start: 30, end: 40, n: 1, k: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 20, 30, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}
