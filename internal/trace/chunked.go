package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"repro/internal/isa"
)

// recordSize is the byte length of one spilled instruction: PC, Addr
// and Meta little-endian, the three register bytes, three zero pad
// bytes. The spill file is n such records with no header.
const recordSize = 16

// encodeRecord packs one instruction into its 16-byte spill form.
func encodeRecord(rec *[recordSize]byte, in *isa.Inst) {
	binary.LittleEndian.PutUint32(rec[0:], in.PC)
	binary.LittleEndian.PutUint32(rec[4:], in.Addr)
	binary.LittleEndian.PutUint16(rec[8:], in.Meta)
	rec[10] = byte(in.Dst)
	rec[11] = byte(in.Src1)
	rec[12] = byte(in.Src2)
	rec[13], rec[14], rec[15] = 0, 0, 0
}

// decodeRecord unpacks one 16-byte spill record.
func decodeRecord(rec *[recordSize]byte) isa.Inst {
	return isa.Inst{
		PC:   binary.LittleEndian.Uint32(rec[0:]),
		Addr: binary.LittleEndian.Uint32(rec[4:]),
		Meta: binary.LittleEndian.Uint16(rec[8:]),
		Dst:  isa.Reg(rec[10]),
		Src1: isa.Reg(rec[11]),
		Src2: isa.Reg(rec[12]),
	}
}

// DefaultChunkSize is the instruction count per chunk: 64Ki records of
// 16 bytes keep a chunk at 1 MiB — large enough that cursor overhead
// vanishes, small enough that per-cursor paging memory is negligible
// next to a simulator instance.
const DefaultChunkSize = 1 << 16

// ChunkedTrace is the trace currency between capture and simulation: a
// sequence of fixed-size instruction chunks built once through the
// Sink interface, then read by any number of independent Cursor
// iterators (one per concurrent simulation). Chunks either stay
// resident or — when built with NewChunkedSpill — live in a record-
// encoded spill file and are paged back per cursor via ReadAt, so the
// trace itself never needs to fit in RAM and concurrent cursors need
// no locking.
//
// Build with Emit calls, Seal exactly once, then open cursors. A
// ChunkedTrace is immutable (and safe for concurrent cursors) after
// Seal.
type ChunkedTrace struct {
	chunkSize int
	n         uint64
	chunks    [][]isa.Inst // resident chunks; unused when spilled
	cur       []isa.Inst   // chunk being built
	sealed    bool

	spill     *os.File // record-encoded chunks, no header
	spillPath string
	spillBuf  []byte // encode buffer, build phase only
	spillOff  int64
	closed    bool
	err       error // first deferred spill-write error

	// mu orders Close against concurrent cursor page-ins: cursors
	// hold it shared around the closed-check plus ReadAt (so reads of
	// many cursors still run in parallel), Close holds it exclusively
	// while tearing down the spill state. Build-phase calls (Emit,
	// Seal) are single-goroutine by contract and take no lock.
	mu sync.RWMutex
}

// NewChunked returns an in-memory chunked trace builder.
func NewChunked() *ChunkedTrace {
	return &ChunkedTrace{chunkSize: DefaultChunkSize}
}

// NewChunkedSpill returns a builder whose chunks are written to a
// spill file at path instead of kept resident; only the chunk under
// construction (and later one page per cursor) occupies memory. Close
// removes the file.
func NewChunkedSpill(path string) (*ChunkedTrace, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: creating spill file: %w", err)
	}
	return &ChunkedTrace{
		chunkSize: DefaultChunkSize,
		spill:     f,
		spillPath: path,
		spillBuf:  make([]byte, DefaultChunkSize*recordSize),
	}, nil
}

// Emit implements Sink. Spill-write errors are deferred to Seal.
func (c *ChunkedTrace) Emit(in isa.Inst) {
	if c.sealed {
		panic("trace: Emit on sealed ChunkedTrace")
	}
	if c.cur == nil {
		c.cur = make([]isa.Inst, 0, c.chunkSize)
	}
	c.cur = append(c.cur, in)
	c.n++
	if len(c.cur) == c.chunkSize {
		c.flushChunk()
	}
}

func (c *ChunkedTrace) flushChunk() {
	if c.spill == nil {
		c.chunks = append(c.chunks, c.cur)
		c.cur = nil
		return
	}
	if c.err == nil {
		buf := c.spillBuf[:len(c.cur)*recordSize]
		for i := range c.cur {
			encodeRecord((*[recordSize]byte)(buf[i*recordSize:]), &c.cur[i])
		}
		if _, err := c.spill.WriteAt(buf, c.spillOff); err != nil {
			c.err = fmt.Errorf("trace: writing spill chunk: %w", err)
		}
		c.spillOff += int64(len(buf))
	}
	c.cur = c.cur[:0]
}

// Seal finishes the build phase; it must be called before Cursor. It
// returns the first spill-write error, if any.
func (c *ChunkedTrace) Seal() error {
	if c.sealed {
		return c.err
	}
	if len(c.cur) > 0 {
		c.flushChunk()
	}
	c.cur = nil
	c.spillBuf = nil
	c.sealed = true
	return c.err
}

// Len returns the number of instructions in the trace.
func (c *ChunkedTrace) Len() uint64 { return c.n }

// Spilled reports whether the chunks live on disk.
func (c *ChunkedTrace) Spilled() bool { return c.spillPath != "" }

// Close releases the spill file (removing it from disk). A spilled
// trace is unreadable afterwards — cursors report an error, not a
// panic, including cursors actively reading when Close lands: Close
// waits for in-flight page-ins, then any later page-in observes the
// closed flag. In-memory traces need no Close.
func (c *ChunkedTrace) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.spill == nil {
		return nil
	}
	err := c.spill.Close()
	if rmErr := os.Remove(c.spillPath); err == nil {
		err = rmErr
	}
	c.spill = nil
	return err
}

func (c *ChunkedTrace) numChunks() int {
	return int((c.n + uint64(c.chunkSize) - 1) / uint64(c.chunkSize))
}

// chunkLen returns the instruction count of chunk i.
func (c *ChunkedTrace) chunkLen(i int) int {
	if uint64(i+1)*uint64(c.chunkSize) <= c.n {
		return c.chunkSize
	}
	return int(c.n - uint64(i)*uint64(c.chunkSize))
}

// ChunkedFromInsts wraps an already-materialized trace without
// copying, for callers that hold a []isa.Inst (the Recorder path).
func ChunkedFromInsts(insts []isa.Inst) *ChunkedTrace {
	c := &ChunkedTrace{chunkSize: DefaultChunkSize, n: uint64(len(insts)), sealed: true}
	for len(insts) > 0 {
		k := c.chunkSize
		if k > len(insts) {
			k = len(insts)
		}
		c.chunks = append(c.chunks, insts[:k])
		insts = insts[k:]
	}
	return c
}

// Cursor returns a fresh independent iterator over the whole trace.
// Cursors are cheap (one page buffer when spilled, none when resident)
// and any number may run concurrently; each cursor itself is for a
// single goroutine.
func (c *ChunkedTrace) Cursor() *Cursor {
	if !c.sealed {
		panic("trace: Cursor before Seal")
	}
	return &Cursor{t: c}
}

// Cursor iterates a ChunkedTrace. It implements Source; after Next
// returns ok=false, Err distinguishes end-of-trace from a spill read
// failure.
type Cursor struct {
	t    *ChunkedTrace
	next int // next chunk index to load
	buf  []isa.Inst
	pos  int
	page []isa.Inst // owned buffer, spilled traces only
	raw  []byte     // decode buffer, spilled traces only
	err  error
}

// Next implements Source.
func (cu *Cursor) Next() (isa.Inst, bool) {
	for cu.pos >= len(cu.buf) {
		if !cu.loadChunk() {
			return isa.Inst{}, false
		}
	}
	in := cu.buf[cu.pos]
	cu.pos++
	return in, true
}

func (cu *Cursor) loadChunk() bool {
	t := cu.t
	if cu.err != nil || cu.next >= t.numChunks() {
		return false
	}
	// Shared lock: many cursors page in concurrently; only Close
	// excludes them. The closed/spill checks must happen under the
	// lock or a racing Close could nil the file (or remove it) between
	// check and ReadAt.
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed && t.Spilled() {
		cu.err = fmt.Errorf("trace: cursor read after ChunkedTrace.Close")
		return false
	}
	i := cu.next
	cu.next++
	cu.pos = 0
	if t.spill == nil {
		cu.buf = t.chunks[i]
		return true
	}
	n := t.chunkLen(i)
	if cu.page == nil {
		cu.page = make([]isa.Inst, t.chunkSize)
		cu.raw = make([]byte, t.chunkSize*recordSize)
	}
	raw := cu.raw[:n*recordSize]
	if _, err := t.spill.ReadAt(raw, int64(i)*int64(t.chunkSize)*recordSize); err != nil {
		cu.err = fmt.Errorf("trace: reading spill chunk %d: %w", i, err)
		cu.buf = nil
		return false
	}
	for k := 0; k < n; k++ {
		cu.page[k] = decodeRecord((*[recordSize]byte)(raw[k*recordSize:]))
	}
	cu.buf = cu.page[:n]
	return true
}

// Err reports a spill read failure, nil on a clean iteration.
func (cu *Cursor) Err() error { return cu.err }

// Reset rewinds the cursor to the start of the trace.
func (cu *Cursor) Reset() {
	cu.next = 0
	cu.buf = nil
	cu.pos = 0
	cu.err = nil
}
