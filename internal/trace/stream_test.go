package trace

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/isa"
)

// randomInsts builds instructions with randomized PC/Addr/Meta/register
// fields (every bit the spill record must carry), deterministic per seed.
func randomInsts(n int, seed int64) []isa.Inst {
	rng := rand.New(rand.NewSource(seed))
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:   rng.Uint32(),
			Addr: rng.Uint32(),
			Meta: uint16(rng.Uint32()),
			Dst:  isa.Reg(rng.Intn(256)),
			Src1: isa.Reg(rng.Intn(256)),
			Src2: isa.Reg(rng.Intn(256)),
		}
	}
	return insts
}

// sampleTrace is an emitter-built trace: loads, stores, vector ops and
// taken and not-taken branches, as a workload would capture them.
func sampleTrace(t *testing.T) []isa.Inst {
	t.Helper()
	var rec Recorder
	e := NewEmitter(&rec)
	blk := e.Block("b", 6)
	other := e.Block("o", 1)
	for i := 0; i < 100; i++ {
		e.Begin(blk)
		e.Fix(isa.GPR(1), isa.GPR(2), isa.GPR(3))
		e.Load(isa.GPR(4), isa.GPR(1), uint32(0x1000_0000+i*64), 8)
		e.Store(isa.GPR(4), isa.GPR(1), uint32(0x2000_0000+i*4), 4)
		e.VLoad(isa.VPR(1), isa.GPR(4), uint32(0x3000_0000+i*16), 16)
		e.VPerm(isa.VPR(2), isa.VPR(1), isa.VPR(2))
		e.CondBranch(isa.GPR(4), i%3 == 0, other)
	}
	return rec.Insts
}

// spillOf emits insts into a sealed spilled trace that the test's
// cleanup closes.
func spillOf(t *testing.T, insts []isa.Inst) *ChunkedTrace {
	t.Helper()
	ct, err := NewChunkedSpill(filepath.Join(t.TempDir(), "spill.trc"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Close() })
	for _, in := range insts {
		ct.Emit(in)
	}
	if err := ct.Seal(); err != nil {
		t.Fatal(err)
	}
	return ct
}

// spillBytes is the size of ct's spill file on disk.
func spillBytes(t *testing.T, ct *ChunkedTrace) int64 {
	t.Helper()
	fi, err := os.Stat(ct.spillPath)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestTraceRoundTrip(t *testing.T) {
	insts := sampleTrace(t)
	back := chunkedDrain(t, spillOf(t, insts).Cursor())
	if len(back) != len(insts) {
		t.Fatalf("round trip lost instructions: %d vs %d", len(back), len(insts))
	}
	for i := range insts {
		if back[i] != insts[i] {
			t.Fatalf("instruction %d differs: %v vs %v", i, back[i], insts[i])
		}
	}
}

func TestTraceRoundTripEmpty(t *testing.T) {
	ct := spillOf(t, nil)
	if ct.Len() != 0 || spillBytes(t, ct) != 0 {
		t.Fatalf("empty spill: Len %d, %d bytes", ct.Len(), spillBytes(t, ct))
	}
	if back := chunkedDrain(t, ct.Cursor()); len(back) != 0 {
		t.Errorf("empty trace read back %d instructions", len(back))
	}
}

// TestTraceSizeOnDisk: the spill file is exactly n 16-byte records
// once sealed, with no header and no padding at chunk boundaries.
func TestTraceSizeOnDisk(t *testing.T) {
	for _, n := range []int{1, 600, DefaultChunkSize, DefaultChunkSize + 1} {
		ct := spillOf(t, randomInsts(n, int64(n)))
		if got, want := spillBytes(t, ct), int64(n)*recordSize; got != want {
			t.Errorf("n=%d: spill is %d bytes, want %d (16-byte records)", n, got, want)
		}
	}
}

// TestSpillCursorMemoryIndependentOfLength: a cursor over a spilled
// trace pages through one reused chunk buffer, so draining it costs
// the same allocations at any trace length.
func TestSpillCursorMemoryIndependentOfLength(t *testing.T) {
	drain := func(ct *ChunkedTrace) uint64 {
		cu := ct.Cursor()
		var n uint64
		for {
			if _, ok := cu.Next(); !ok {
				break
			}
			n++
		}
		if err := cu.Err(); err != nil {
			t.Fatal(err)
		}
		return n
	}
	small, big := spillOf(t, randomInsts(2_000, 42)), spillOf(t, randomInsts(200_000, 42))
	allocsSmall := testing.AllocsPerRun(3, func() { drain(small) })
	allocsBig := testing.AllocsPerRun(3, func() { drain(big) })
	if n := drain(big); n != 200_000 {
		t.Fatalf("big spill drained %d records", n)
	}
	if allocsBig > allocsSmall+4 {
		t.Errorf("allocations grow with trace length: %g (200k) vs %g (2k)", allocsBig, allocsSmall)
	}
	if allocsBig > 32 {
		t.Errorf("draining a spill took %g allocations, want a fixed handful", allocsBig)
	}
}

func chunkedDrain(t *testing.T, cu *Cursor) []isa.Inst {
	t.Helper()
	var out []isa.Inst
	for {
		in, ok := cu.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if err := cu.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestChunkedTraceRoundTrip(t *testing.T) {
	// Sizes straddling chunk boundaries, including empty and exact.
	for _, n := range []int{0, 1, DefaultChunkSize - 1, DefaultChunkSize, DefaultChunkSize + 1, 3*DefaultChunkSize + 17} {
		insts := randomInsts(n, int64(n)+1)
		ct := NewChunked()
		for _, in := range insts {
			ct.Emit(in)
		}
		if err := ct.Seal(); err != nil {
			t.Fatal(err)
		}
		if ct.Len() != uint64(n) {
			t.Fatalf("n=%d: Len=%d", n, ct.Len())
		}
		back := chunkedDrain(t, ct.Cursor())
		if len(back) != n {
			t.Fatalf("n=%d: drained %d", n, len(back))
		}
		for i := range insts {
			if back[i] != insts[i] {
				t.Fatalf("n=%d inst %d differs", n, i)
			}
		}
	}
}

// TestTraceRoundTripProperty: every bit of every record survives the
// spill, over several seeds and sizes below, at and across chunk
// boundaries.
func TestTraceRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		n := int(seed)*137 + int(seed%3)*DefaultChunkSize
		insts := randomInsts(n, seed)
		back := chunkedDrain(t, spillOf(t, insts).Cursor())
		if len(back) != n {
			t.Fatalf("seed %d: %d insts back, want %d", seed, len(back), n)
		}
		for i := range insts {
			if back[i] != insts[i] {
				t.Fatalf("seed %d inst %d: %v != %v", seed, i, back[i], insts[i])
			}
		}
	}
}

// TestChunkedSpillRoundTripAndConcurrentCursors: several cursors page
// the same spill file concurrently, and each sees the identical full
// stream.
func TestChunkedSpillRoundTripAndConcurrentCursors(t *testing.T) {
	n := 2*DefaultChunkSize + 999
	insts := randomInsts(n, 77)
	ct := spillOf(t, insts)
	if !ct.Spilled() {
		t.Fatal("trace should report spilled")
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cu := ct.Cursor()
			i := 0
			for {
				in, ok := cu.Next()
				if !ok {
					break
				}
				if in != insts[i] {
					errs[w] = fmt.Errorf("cursor %d: inst %d: %v != %v", w, i, in, insts[i])
					return
				}
				i++
			}
			if cu.Err() != nil {
				errs[w] = cu.Err()
				return
			}
			if i != n {
				errs[w] = fmt.Errorf("cursor %d: drained %d of %d", w, i, n)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestChunkedFromInstsAndCursorReset(t *testing.T) {
	insts := randomInsts(1000, 5)
	ct := ChunkedFromInsts(insts)
	cu := ct.Cursor()
	if got := chunkedDrain(t, cu); len(got) != 1000 {
		t.Fatalf("drained %d", len(got))
	}
	cu.Reset()
	if got := chunkedDrain(t, cu); len(got) != 1000 || got[0] != insts[0] {
		t.Fatal("reset cursor should replay from the start")
	}
}

func TestLimitSinkZeroMeansUnlimited(t *testing.T) {
	var rec Recorder
	lim := &LimitSink{Inner: &rec, Limit: 0}
	for _, in := range randomInsts(100, 2) {
		lim.Emit(in)
	}
	if rec.Len() != 100 || lim.Dropped != 0 {
		t.Errorf("Limit 0 should forward everything: kept %d, dropped %d", rec.Len(), lim.Dropped)
	}
}

func TestCursorAfterCloseErrsCleanly(t *testing.T) {
	ct, err := NewChunkedSpill(filepath.Join(t.TempDir(), "s.trc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range randomInsts(10, 3) {
		ct.Emit(in)
	}
	if err := ct.Seal(); err != nil {
		t.Fatal(err)
	}
	cu := ct.Cursor()
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := cu.Next(); ok {
		t.Fatal("cursor on a closed spill should yield nothing")
	}
	if cu.Err() == nil {
		t.Error("cursor on a closed spill should report an error, not clean EOF")
	}
}

// Close racing active cursors (the ROADMAP-flagged hazard): cursors
// paging from the spill while another goroutine calls Close must
// never panic or trip the race detector — each either drains the full
// stream or stops with the read-after-Close error. Run with -race.
func TestChunkedCloseRacesActiveCursors(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		n := 3*DefaultChunkSize + 123
		insts := randomInsts(n, int64(100+trial))
		ct, err := NewChunkedSpill(filepath.Join(t.TempDir(), "race.trc"))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range insts {
			ct.Emit(in)
		}
		if err := ct.Seal(); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 4)
		drained := make([]int, len(errs))
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				cu := ct.Cursor()
				for {
					in, ok := cu.Next()
					if !ok {
						break
					}
					if in != insts[drained[w]] {
						errs[w] = fmt.Errorf("cursor %d: inst %d differs", w, drained[w])
						return
					}
					drained[w]++
				}
				errs[w] = cu.Err()
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := ct.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			// A second Close must stay a safe no-op mid-race too.
			if err := ct.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		}()
		close(start)
		wg.Wait()

		for w, err := range errs {
			switch {
			case err == nil:
				if drained[w] != n {
					t.Errorf("trial %d cursor %d: clean EOF after %d of %d insts", trial, w, drained[w], n)
				}
			case strings.Contains(err.Error(), "after ChunkedTrace.Close"):
				// the documented loser's outcome
			default:
				t.Errorf("trial %d cursor %d: unexpected error %v", trial, w, err)
			}
		}
	}
}

func TestBroadcastDeliversIdenticalStreams(t *testing.T) {
	const readers = 3
	n := 5*1024 + 321
	insts := randomInsts(n, 11)
	// Small chunks and window so the test exercises wrap-around and
	// generator back-pressure.
	b := NewBroadcastSized(readers, 128, 2)
	got := make([][]isa.Inst, readers)
	var wg sync.WaitGroup
	for i, src := range b.Sources() {
		wg.Add(1)
		go func(i int, src *BroadcastCursor) {
			defer wg.Done()
			for {
				in, ok := src.Next()
				if !ok {
					return
				}
				got[i] = append(got[i], in)
			}
		}(i, src)
	}
	for _, in := range insts {
		b.Emit(in)
	}
	b.CloseSend()
	wg.Wait()
	for i := 0; i < readers; i++ {
		if len(got[i]) != n {
			t.Fatalf("reader %d got %d of %d", i, len(got[i]), n)
		}
		for k := range insts {
			if got[i][k] != insts[k] {
				t.Fatalf("reader %d inst %d differs", i, k)
			}
		}
	}
}

func TestBroadcastEarlyCloseDoesNotDeadlock(t *testing.T) {
	const readers = 2
	n := 4096
	insts := randomInsts(n, 13)
	b := NewBroadcastSized(readers, 64, 2)
	srcs := b.Sources()
	var wg sync.WaitGroup
	counts := make([]int, readers)
	// Reader 0 abandons after a few instructions; reader 1 drains.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			srcs[0].Next()
		}
		srcs[0].Close()
		counts[0] = 10
	}()
	go func() {
		defer wg.Done()
		for {
			if _, ok := srcs[1].Next(); !ok {
				return
			}
			counts[1]++
		}
	}()
	for _, in := range insts {
		b.Emit(in)
	}
	b.CloseSend()
	wg.Wait()
	if counts[1] != n {
		t.Fatalf("surviving reader got %d of %d", counts[1], n)
	}
}
