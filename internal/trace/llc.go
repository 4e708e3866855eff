package trace

import (
	"encoding/binary"
	"math"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// This file implements the LLC-visible trace, the form the paper's own
// pipeline records (Section VI: the Pin tool logs the reference stream
// the LLC observes, and each policy is simulated against that one log).
// L1 and L2 run fixed Bit-PLRU and the hierarchy never back-invalidates
// them, so the stream of demand accesses that miss L2 — plus the dirty
// victims those misses push down — is identical under every LLC policy.
// Recording it once per workload lets each additional policy setup
// replay against only the LLC: the upper levels are neither re-simulated
// nor rebuilt, which is where the sweep engine's wall-clock win comes
// from. Hook events (SetVertex, StartIteration, SetTile) stay in the
// stream because vertex-indexed policies consume them; instruction
// counts and the L1/L2 statistics are totals, invariant across setups,
// and ride in the trace header instead of the event stream.

// LLC-stream opcodes, in the low nibble of the first byte. Access events
// carry the PC in the high nibble (hi = PC+1, pcEscape = explicit uvarint
// PC; see varint.go).
const (
	lopAccessR   byte = iota + 1 // [hi: PC+1 | escape] zigzag delta address
	lopAccessW                   // [hi: PC+1 | escape] zigzag delta address
	lopWB                        // zigzag delta line address
	lopSetVertex                 // zigzag delta vertex
	lopStartIteration
	lopSetTile // uvarint tile
)

// LLCStats describes a recorded LLC-visible stream.
type LLCStats struct {
	// Accesses counts demand references that reached the LLC; Writes of
	// them are stores.
	Accesses uint64
	Writes   uint64
	// Writebacks counts upper-level dirty victims offered to the LLC.
	Writebacks uint64
	// VertexUpdates, Iterations and TileSwitches count hook events.
	VertexUpdates uint64
	Iterations    uint64
	TileSwitches  uint64
}

// Events returns the total encoded event count.
func (s LLCStats) Events() uint64 {
	return s.Accesses + s.Writebacks + s.VertexUpdates + s.Iterations + s.TileSwitches
}

// LLCEncoder records the LLC-visible stream of one live run. Attached to
// the run's Sim (Sim.Record) it observes two points at once: as the
// hierarchy's Tap it sees LLC accesses and writebacks, and from the Sim it
// sees each hook event in stream order relative to them. Accesses that
// stop above the LLC and non-memory instructions carry no LLC-visible
// information and never reach it — their one consumer, the instruction
// counter, is a total the finished trace copies from the recording Sim.
type LLCEncoder struct {
	buf    []byte
	last   [pcSlots]uint64 // previous access address per PC slot
	lastWB uint64          // previous writeback line address
	lastV  graph.V
	stats  LLCStats

	// Chunked mode (NewChunkedLLCEncoder): buf holds one headerless chunk
	// payload that flushes to cw at the first event boundary past the
	// byte target, with delta state reset so every chunk decodes
	// independently. The in-memory form (nil cw) never reaches the
	// threshold.
	cw              *ContainerWriter
	chunkBytes      int
	chunkStartEvnts uint64 // stats.Events() snapshot at chunk start
	chunkFirstPC    uint64 // first access PC in the chunk + 1; 0 = none
}

// NewLLCEncoder returns an empty LLC-stream encoder. The fixed-width
// header (magic, version, and the setup-invariant totals — see
// HeaderFields in format.go) is reserved up front and filled at finalize
// time by Trace, so the event buffer never needs a copy.
func NewLLCEncoder() *LLCEncoder {
	// chunkBytes is a sentinel no buffer reaches, so the hot per-event
	// chunk check is one compare with no chunked/in-memory branch.
	e := &LLCEncoder{buf: make([]byte, llcHeaderLen, 64<<10), chunkBytes: math.MaxInt}
	e.buf[0], e.buf[1], e.buf[2] = magic0, magicLLC1, LLCFormatVersion
	return e
}

// NewChunkedLLCEncoder returns an LLC-stream encoder that streams chunk
// frames through cw: resident encode memory stays O(one chunk) no matter
// how long the recording runs, which is what lets paper-scale streams be
// recorded straight to the corpus. Finalize with Finish (Trace is invalid
// in this mode); the owner then calls cw.Finish to seal the container.
func NewChunkedLLCEncoder(cw *ContainerWriter) *LLCEncoder {
	return &LLCEncoder{
		buf:        make([]byte, 0, cw.chunkBytes+16),
		cw:         cw,
		chunkBytes: cw.chunkBytes,
	}
}

// maybeChunk closes the current chunk once the payload passes the byte
// target; called at the end of every encoded event. The call pushes
// LLCWriteback and SetVertex past the inlining budget, which the hotpath
// baseline accepts deliberately: the taps arrive through an interface
// (Hierarchy.Tap), where inlining never applied, and SetVertex runs once
// per hook mark from the encoder's out-of-line mark dispatch; the only
// other static caller is the cold rechunk path.
//
//popt:hot
func (e *LLCEncoder) maybeChunk() {
	// In-memory encoders carry a sentinel threshold, so no nil check of
	// e.cw is needed here — one compare per event.
	if len(e.buf) >= e.chunkBytes {
		e.flushChunk()
	}
}

// flushChunk emits the pending chunk frame and resets the delta state the
// next chunk must not depend on. Out of line: it runs once per ~64K
// events and its frame writes must not burden the per-event encoders.
//
//go:noinline
func (e *LLCEncoder) flushChunk() {
	if len(e.buf) == 0 {
		return
	}
	events := e.stats.Events() - e.chunkStartEvnts
	e.cw.writeChunk(events, e.chunkFirstPC, e.buf)
	e.buf = e.buf[:0]
	e.chunkStartEvnts = e.stats.Events()
	e.chunkFirstPC = 0
	e.last = [pcSlots]uint64{}
	e.lastWB = 0
	e.lastV = 0
}

// Finish flushes the trailing chunk and installs the stream totals —
// including the setup-invariant instruction and L1/L2 counters that the
// in-memory form carries in its header — on the container writer.
func (e *LLCEncoder) Finish(instructions uint64, l1, l2 cache.Stats) error {
	if e.cw == nil {
		panic("trace: LLCEncoder.Finish without a container writer; use Trace")
	}
	e.flushChunk()
	e.cw.setStats(encodeLLCStats(e.stats, instructions, l1, l2, e.cw.streamCRC))
	return e.cw.Err()
}

// LLCAccess implements cache.LLCTap.
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) LLCAccess(acc mem.Access) {
	op := lopAccessR
	if acc.Write {
		op = lopAccessW
		e.stats.Writes++
	}
	e.stats.Accesses++
	if acc.PC <= pcInline {
		e.buf = append(e.buf, op|byte(acc.PC+1)<<4)
	} else {
		e.buf = append(e.buf, op|pcEscape<<4)
		e.buf = appendUvarint(e.buf, uint64(acc.PC))
	}
	slot := acc.PC & pcSlotMask
	e.buf = appendVarint(e.buf, int64(acc.Addr-e.last[slot]))
	e.last[slot] = acc.Addr
	if e.cw != nil && e.chunkFirstPC == 0 {
		e.chunkFirstPC = uint64(acc.PC) + 1
	}
	e.maybeChunk()
}

// LLCWriteback implements cache.LLCTap.
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) LLCWriteback(lineAddr uint64) {
	e.stats.Writebacks++
	e.buf = append(e.buf, lopWB)
	e.buf = appendVarint(e.buf, int64(lineAddr-e.lastWB))
	e.lastWB = lineAddr
	e.maybeChunk()
}

// SetVertex encodes a hook event (see Sim.Record).
//
//popt:hot
//popt:codec llc enc
func (e *LLCEncoder) SetVertex(v graph.V) {
	e.stats.VertexUpdates++
	e.buf = append(e.buf, lopSetVertex)
	e.buf = appendVarint(e.buf, int64(v)-int64(e.lastV))
	e.lastV = v
	e.maybeChunk()
}

// StartIteration encodes a hook event (see Sim.Record).
//
//popt:codec llc enc
func (e *LLCEncoder) StartIteration() {
	e.stats.Iterations++
	e.buf = append(e.buf, lopStartIteration)
	e.maybeChunk()
}

// SetTile encodes a hook event (see Sim.Record).
//
//popt:codec llc enc
func (e *LLCEncoder) SetTile(t int) {
	e.stats.TileSwitches++
	e.buf = append(e.buf, lopSetTile)
	e.buf = appendUvarint(e.buf, uint64(t))
	e.maybeChunk()
}

// mark encodes one hook event of a recording Sim.
func (e *LLCEncoder) mark(m Mark) {
	switch m.Kind {
	case MarkVertex:
		e.SetVertex(graph.V(m.Val))
	case MarkIteration:
		e.StartIteration()
	case MarkTile:
		e.SetTile(m.Val)
	}
}

// record hands a decoded event sequence — probes with marks placed among
// them, as llcDecoder yields it or Fanout buffers it — to r in stream
// order, as a live run's hierarchy and Sim would.
func record(r Recorder, probes []cache.Probe, marks []Mark) {
	for i := 0; ; i++ {
		for len(marks) > 0 && marks[0].At == i {
			r.mark(marks[0])
			marks = marks[1:]
		}
		if i == len(probes) {
			return
		}
		if p := probes[i]; p.Kind == cache.ProbeWB {
			r.LLCWriteback(p.Addr)
		} else {
			r.LLCAccess(mem.Access{Addr: p.Addr, PC: p.PC, Write: p.Kind == cache.ProbeWrite})
		}
	}
}

// Trace finalizes the encoder. instructions is the recording run's
// retired-instruction total and l1, l2 its upper-level statistics; all
// three are invariant across LLC policy setups, so replays install them
// directly. They are also written into the reserved header slots, so the
// encoded bytes are self-contained. The encoder must not be used after
// Trace is called.
func (e *LLCEncoder) Trace(instructions uint64, l1, l2 cache.Stats) *LLCTrace {
	if e.cw != nil {
		panic("trace: chunked LLCEncoder has no in-memory form; finalize with Finish")
	}
	putLLCHeader(e.buf, instructions, l1, l2)
	return &LLCTrace{data: e.buf, instructions: instructions, l1: l1, l2: l2, stats: e.stats}
}

// putLLCHeader fills the setup-invariant totals into the reserved header
// slots, in HeaderFields order.
func putLLCHeader(buf []byte, instructions uint64, l1, l2 cache.Stats) {
	at := 3
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[at:at+8], x)
		at += 8
	}
	put(instructions)
	for _, s := range [2]cache.Stats{l1, l2} {
		put(s.Accesses)
		put(s.Hits)
		put(s.Misses)
		put(s.Evictions)
		put(s.Writebacks)
	}
}

// LLCTrace is an immutable encoded LLC-visible stream plus the
// setup-invariant totals of the run that recorded it. It is safe to
// replay from multiple goroutines concurrently.
//
//popt:frozen
type LLCTrace struct {
	data         []byte
	instructions uint64
	l1, l2       cache.Stats
	stats        LLCStats
}

// Size returns the encoded size in bytes.
func (t *LLCTrace) Size() int { return len(t.data) }

// Stats returns the stream's event statistics.
func (t *LLCTrace) Stats() LLCStats { return t.stats }

// replayWindow is the number of probes, and of marks, LLCTrace.Replay
// decodes and Fanout buffers per window: large enough that the
// per-window AccessBatch call amortizes over long hookless runs, small
// enough to stay L1-resident next to the decoder's delta state.
const replayWindow = 256

// Replay drives sim's LLC with the recorded stream and installs the
// setup-invariant totals (instructions, L1/L2 statistics), reproducing a
// live run byte-for-byte on every counter — the replay-equivalence
// golden in internal/bench pins this across the policy zoo. The body
// decodes one fixed window of probes and marks at a time through the
// shared llcDecoder and each window goes to the LLC through Sim.feed;
// because cache.Level.AccessBatch is batching-invariant, where the
// windows fall cannot show. The stream header is checked once up front:
// a magic or format-version mismatch fails loudly (badLLCHeader) instead
// of misdecoding bytes laid out under another version.
//
//popt:hot
func (t *LLCTrace) Replay(sim *Sim) {
	d := llcDecoder{data: t.data, i: checkLLCHeader(t.data)}
	var probes [replayWindow]cache.Probe
	var marks [replayWindow]Mark
	for d.i < len(d.data) {
		sim.feed(d.decode(probes[:], marks[:]))
	}
	sim.addTotals(t.instructions, t.l1, t.l2)
}

// llcDecoder is the one decoder of LLC-stream event bytes, shared by flat
// replay, container replay and rechunk. It is resumable: the delta state
// and the byte position persist across decode calls, so a body can be
// decoded one window at a time. The bytes must come from this process's
// encoder or have passed scanLLCFrom; corruption panics (badOp, badEOF).
type llcDecoder struct {
	data   []byte
	i      int
	last   [pcSlots]uint64 // previous access address per PC slot
	lastWB uint64          // previous writeback line address
	lastV  graph.V
}

// decode decodes events from the current position into the caller's
// probes and marks until the bytes end or the next event does not fit,
// and returns the filled prefixes. Each mark's At indexes the returned
// probes, so marks right after the last probe of a full window come back
// with At == len(probes).
//
//popt:hot
//popt:codec llc dec
func (d *llcDecoder) decode(probes []cache.Probe, marks []Mark) ([]cache.Probe, []Mark) {
	data, i := d.data, d.i
	last := &d.last
	lastWB, lastV := d.lastWB, d.lastV
	n, m := 0, 0
	for i < len(data) {
		b := data[i]
		op := b & opMask
		if n == len(probes) || m == len(marks) {
			// A window is full: stop at the first event that needs it.
			probe := op == lopAccessR || op == lopAccessW || op == lopWB
			if probe && n == len(probes) || !probe && m == len(marks) {
				break
			}
		}
		i++
		switch op {
		case lopAccessR, lopAccessW:
			var pc uint64
			if hi := b >> 4; hi != pcEscape {
				pc = uint64(hi - 1)
			} else {
				pc, i = uvarint(data, i)
			}
			var dl int64
			if i < len(data) && data[i] < 0x80 {
				ux := uint64(data[i])
				dl = int64(ux>>1) ^ -int64(ux&1)
				i++
			} else {
				dl, i = varint(data, i)
			}
			slot := uint16(pc) & pcSlotMask
			addr := last[slot] + uint64(dl)
			last[slot] = addr
			kind := cache.ProbeRead
			if op == lopAccessW {
				kind = cache.ProbeWrite
			}
			probes[n] = cache.Probe{Addr: addr, PC: uint16(pc), Kind: kind}
			n++
		case lopWB:
			dl, nn := varint(data, i)
			i = nn
			lastWB += uint64(dl)
			probes[n] = cache.Probe{Addr: lastWB, Kind: cache.ProbeWB}
			n++
		case lopSetVertex:
			dl, nn := varint(data, i)
			i = nn
			lastV = graph.V(int64(lastV) + dl)
			marks[m] = Mark{At: n, Kind: MarkVertex, Val: int(lastV)}
			m++
		case lopStartIteration:
			marks[m] = Mark{At: n, Kind: MarkIteration}
			m++
		case lopSetTile:
			tl, nn := uvarint(data, i)
			i = nn
			marks[m] = Mark{At: n, Kind: MarkTile, Val: int(tl)}
			m++
		default:
			badOp(op, i-1)
		}
	}
	d.i, d.lastWB, d.lastV = i, lastWB, lastV
	return probes[:n], marks[:m]
}

// feed issues decoded probes to the sim's LLC in order and folds their
// DRAM traffic into the hierarchy. With a hook it runs the probes between
// marks as one batch each and delivers every mark at its position;
// without one the marks are no-ops and the whole slice is one batch.
//
//popt:hot
func (s *Sim) feed(probes []cache.Probe, marks []Mark) {
	if s.Hook == nil {
		marks = nil
	}
	at := 0
	for _, m := range marks {
		if at < m.At {
			s.issue(probes[at:m.At])
			at = m.At
		}
		s.hook(m)
	}
	s.issue(probes[at:])
}

// issue runs one batch of probes through the LLC.
//
//popt:hot
func (s *Sim) issue(probes []cache.Probe) {
	dr, dw := s.H.LLC.AccessBatch(probes)
	s.H.DRAMReads += dr
	s.H.DRAMWrites += dw
}

// checkLLCHeader validates the LLC-stream header and returns the index of
// the first event byte. Mismatches panic out of line: flat streams never
// arrive from outside the process (untrusted bytes come only as container
// chunk payloads, which scanLLCFrom validates), so a bad header here is a
// programming error.
//
//popt:hot
func checkLLCHeader(data []byte) int {
	if len(data) < llcHeaderLen || data[0] != magic0 || data[1] != magicLLC1 || data[2] != LLCFormatVersion {
		var m0, m1, v byte
		if len(data) >= 3 {
			m0, m1, v = data[0], data[1], data[2]
		}
		badLLCHeader(m0, m1, v)
	}
	return llcHeaderLen
}
