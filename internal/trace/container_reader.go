package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// This file is the read side of the chunked container (container.go holds
// the writer and the layout comment). A Reader seeks the fixed trailer,
// loads and validates the three footer frames, and then serves replay,
// verification, and re-chunking out of core: chunk payloads are fetched
// through the io.ReaderAt in index order and released as soon as they are
// consumed, so resident trace memory is bounded by the chunk window — not
// the stream — which is what makes paper-scale corpora replayable on
// bounded RAM. Everything here returns errors, never panics: container
// bytes come off disk, the untrusted side of the trust boundary drawn in
// decode.go (each chunk payload is structurally validated by the scan
// decoders before the panic-based hot loops touch it).

// frameHeader is one decoded frame header; only cfChunk frames populate
// events and firstPC.
type frameHeader struct {
	kind    byte
	events  uint64
	firstPC uint64
	length  uint64
	crc     uint32
}

// parseFrameHeader decodes the frame header at data[i:], returning the
// header and the index of the first payload byte. The dispatch mirrors
// the writeChunkFrame/writeStatsFrame/writeIndexFrame/writeMetaFrame
// encoders arm for arm (codecpair holds them in lockstep), and an unknown
// marker is an error, never a panic.
//
//popt:codec container dec
func parseFrameHeader(data []byte, i int) (frameHeader, int, error) {
	if i >= len(data) {
		return frameHeader{}, i, fmt.Errorf("trace: corrupt container: truncated frame at byte %d", i)
	}
	var fh frameHeader
	op := data[i]
	fh.kind = op
	at := i
	i++
	var err error
	var crc uint64
	switch op {
	case cfChunk:
		if fh.events, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if fh.firstPC, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfStats:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfIndex:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	case cfMeta:
		if fh.length, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		if crc, i, err = uvarintChecked(data, i); err != nil {
			return frameHeader{}, i, err
		}
		fh.crc = uint32(crc)
	default:
		return frameHeader{}, i, fmt.Errorf("trace: corrupt container: frame marker %d at byte %d", fh.kind, at)
	}
	return fh, i, nil
}

// Reader is an opened container: the footer frames are resident, chunk
// payloads are not. Once OpenContainer returns, the Reader's metadata is
// immutable, so one Reader may serve concurrent replays (the corpus
// shares one per entry across sweep cells); only the resident-byte
// accounting below is mutable, and it is atomic.
type Reader struct {
	r         io.ReaderAt
	size      int64
	footerOff int64
	meta      Meta
	chunks    []chunkInfo
	events    uint64
	payload   int64 // total chunk payload bytes
	maxChunk  int64 // largest single chunk payload
	streamCRC uint32

	// data, when non-nil, is a zero-copy view of the whole container
	// (an mmap of the file or a caller-held byte slice): chunkPayload
	// returns subslices instead of pread copies, and the resident
	// accounting counts mapped window bytes. closeFn releases whatever
	// backs the Reader (mapping, file handle) when set.
	data    []byte
	closeFn func() error

	// Stream totals out of the cfStats frame.
	lstats       LLCStats
	instructions uint64
	l1, l2       cache.Stats

	// Out-of-core accounting: chunk payload bytes currently resident and
	// the high-water mark, maintained by every replay/verify walk. The
	// windowed-reader test pins maxResident << payload on multi-chunk
	// streams.
	resident    atomic.Int64
	maxResident atomic.Int64
}

// OpenContainer validates the fixed header, the trailer, and the three
// footer frames of the container served by r and returns a Reader over
// its chunks. Chunk payloads are not read (Verify walks them all); size
// is the container's total byte length.
func OpenContainer(r io.ReaderAt, size int64) (*Reader, error) {
	if size < containerHeaderLen+containerTrailerLen {
		return nil, fmt.Errorf("trace: container truncated: %d byte(s), need at least %d", size, containerHeaderLen+containerTrailerLen)
	}
	var hdr [containerHeaderLen]byte
	if err := readFull(r, hdr[:], 0); err != nil {
		return nil, fmt.Errorf("trace: container header: %w", err)
	}
	if hdr[0] != magic0 || hdr[1] != magicContainer1 {
		return nil, fmt.Errorf("trace: not a container: magic % x, want %c%c", hdr[:2], magic0, magicContainer1)
	}
	if hdr[2] != ContainerFormatVersion {
		return nil, fmt.Errorf("trace: container is format version %d, this reader reads version %d; re-record or migrate the corpus entry", hdr[2], ContainerFormatVersion)
	}
	if hdr[3] != KindLLC {
		return nil, fmt.Errorf("trace: container kind %q is not %q", hdr[3], KindLLC)
	}
	if hdr[4] != LLCFormatVersion {
		return nil, fmt.Errorf("trace: container holds inner stream version %d, this reader reads version %d; re-record or migrate the corpus entry", hdr[4], LLCFormatVersion)
	}
	var tr [containerTrailerLen]byte
	if err := readFull(r, tr[:], size-containerTrailerLen); err != nil {
		return nil, fmt.Errorf("trace: container trailer: %w", err)
	}
	if tr[16] != magic0 || tr[17] != magicContainer1 || tr[18] != ContainerFormatVersion || tr[19] != KindLLC {
		return nil, fmt.Errorf("trace: container trailer echo % x does not match header %c%c v%d kind %q (torn or truncated write)", tr[16:20], magic0, magicContainer1, ContainerFormatVersion, KindLLC)
	}
	fo := binary.LittleEndian.Uint64(tr[0:8])
	fl := binary.LittleEndian.Uint64(tr[8:16])
	if fo < containerHeaderLen || fo+fl < fo || fo+fl != uint64(size)-containerTrailerLen {
		return nil, fmt.Errorf("trace: container footer bounds [%d,+%d) do not tile the %d-byte file", fo, fl, size)
	}
	footer := make([]byte, int(fl))
	if err := readFull(r, footer, int64(fo)); err != nil {
		return nil, fmt.Errorf("trace: container footer: %w", err)
	}
	rd := &Reader{r: r, size: size, footerOff: int64(fo)}

	// The footer is exactly three frames in fixed order.
	var payloads [3][]byte
	i := 0
	for f, want := range [3]byte{cfStats, cfIndex, cfMeta} {
		fh, j, err := parseFrameHeader(footer, i)
		if err != nil {
			return nil, err
		}
		if fh.kind != want {
			return nil, fmt.Errorf("trace: container footer frame %d has marker %d, want %d", f, fh.kind, want)
		}
		if fh.length > uint64(len(footer)-j) {
			return nil, fmt.Errorf("trace: container footer frame %d overruns the footer (%d byte payload, %d left)", f, fh.length, len(footer)-j)
		}
		p := footer[j : j+int(fh.length)]
		if crc := crc32.ChecksumIEEE(p); crc != fh.crc {
			return nil, fmt.Errorf("trace: container footer frame %d CRC mismatch: stored %08x, computed %08x", f, fh.crc, crc)
		}
		payloads[f] = p
		i = j + int(fh.length)
	}
	if i != len(footer) {
		return nil, fmt.Errorf("trace: container footer has %d trailing byte(s) after its three frames", len(footer)-i)
	}
	if err := rd.decodeStats(payloads[0]); err != nil {
		return nil, err
	}
	if err := rd.decodeIndex(payloads[1]); err != nil {
		return nil, err
	}
	m, err := decodeMeta(payloads[2])
	if err != nil {
		return nil, err
	}
	rd.meta = m
	return rd, nil
}

// OpenContainerBytes opens a container held entirely in data (an mmap
// view or an in-memory build). Chunk payloads are served as subslices —
// zero copies — and the Reader runs in the "mapped" window mode.
func OpenContainerBytes(data []byte) (*Reader, error) {
	rd, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, err
	}
	rd.data = data
	return rd, nil
}

// OpenContainerFile opens the container at path, preferring a zero-copy
// mmap of the file; when mapping is unavailable (platform stub, empty or
// oversized file) it falls back to the bounded-window pread path over the
// open file. Either way the caller owns the Reader and must Close it.
func OpenContainerFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if mp, err := mem.MapFile(f); err == nil {
		rd, err := OpenContainerBytes(mp.Data)
		if err != nil {
			mp.Close()
			f.Close()
			return nil, err
		}
		// The mapping keeps the pages; the descriptor can go now.
		f.Close()
		rd.closeFn = mp.Close
		return rd, nil
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	rd, err := OpenContainer(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	rd.closeFn = f.Close
	return rd, nil
}

// WindowMode reports how chunk windows are served: "mapped" (zero-copy
// views of an mmap or in-memory container) or "copied" (pread into
// per-chunk buffers).
func (r *Reader) WindowMode() string {
	if r.data != nil {
		return "mapped"
	}
	return "copied"
}

// Close releases whatever backs the Reader (file mapping or descriptor).
// Readers over caller-owned io.ReaderAts have nothing to release and
// Close is a no-op. No replay may be in flight when Close is called: for
// a mapped Reader the chunk views die with the mapping.
func (r *Reader) Close() error {
	if r.closeFn == nil {
		return nil
	}
	fn := r.closeFn
	r.closeFn = nil
	r.data = nil
	return fn()
}

// readFull reads exactly len(p) bytes at off.
func readFull(r io.ReaderAt, p []byte, off int64) error {
	n, err := r.ReadAt(p, off)
	if n < len(p) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// decodeStats parses the cfStats payload (the encodeLLCStats layout) and
// requires it to be exactly consumed.
func (r *Reader) decodeStats(p []byte) error {
	i := 0
	take := func() uint64 {
		if i < 0 {
			return 0
		}
		x, j, err := uvarintChecked(p, i)
		if err != nil {
			i = -1
			return 0
		}
		i = j
		return x
	}
	r.streamCRC = uint32(take())
	r.instructions = take()
	for _, lv := range [2]*cache.Stats{&r.l1, &r.l2} {
		*lv = cache.Stats{
			Accesses: take(), Hits: take(), Misses: take(),
			Evictions: take(), Writebacks: take(),
		}
	}
	r.lstats = LLCStats{
		Accesses: take(), Writes: take(), Writebacks: take(),
		VertexUpdates: take(), Iterations: take(), TileSwitches: take(),
	}
	if i != len(p) {
		return fmt.Errorf("trace: container stats frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	return nil
}

// decodeIndex parses the cfIndex payload into the chunk table, bounding
// every entry against the data region before any chunk is read.
func (r *Reader) decodeIndex(p []byte) error {
	count, i, err := uvarintChecked(p, 0)
	if err != nil {
		return err
	}
	// Each entry is at least five bytes of varints; reject counts the
	// payload cannot hold before allocating.
	if count > uint64(len(p)/5)+1 {
		return fmt.Errorf("trace: container index claims %d chunks in %d bytes", count, len(p))
	}
	chunks := make([]chunkInfo, 0, count)
	var off, prevEnd uint64
	for c := uint64(0); c < count; c++ {
		var d, events, firstPC, length, crc uint64
		if d, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if events, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if firstPC, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if length, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		if crc, i, err = uvarintChecked(p, i); err != nil {
			return err
		}
		off += d
		if c == 0 && off != containerHeaderLen {
			return fmt.Errorf("trace: container index: first chunk at offset %d, want %d", off, containerHeaderLen)
		}
		if c > 0 && off < prevEnd {
			return fmt.Errorf("trace: container index: chunk %d at offset %d overlaps the previous chunk", c, off)
		}
		if length == 0 {
			return fmt.Errorf("trace: container index: chunk %d is empty (the writer never emits empty chunks)", c)
		}
		if off+length < off || off+length > uint64(r.footerOff) {
			return fmt.Errorf("trace: container index: chunk %d [%d,+%d) overruns the data region ending at %d", c, off, length, r.footerOff)
		}
		if events > 2*length {
			return fmt.Errorf("trace: container index: chunk %d claims %d events in %d bytes", c, events, length)
		}
		chunks = append(chunks, chunkInfo{
			off: int64(off), events: events, firstPC: firstPC,
			length: length, crc: uint32(crc),
		})
		prevEnd = off + length
		r.events += events
		r.payload += int64(length)
		if int64(length) > r.maxChunk {
			r.maxChunk = int64(length)
		}
	}
	if i != len(p) {
		return fmt.Errorf("trace: container index frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	r.chunks = chunks
	return nil
}

// decodeMeta parses the cfMeta payload's length-prefixed key/value pairs.
// Unknown keys are skipped so the set can grow under the container
// version's discipline.
func decodeMeta(p []byte) (Meta, error) {
	var m Meta
	count, i, err := uvarintChecked(p, 0)
	if err != nil {
		return Meta{}, err
	}
	if count > uint64(len(p)) {
		return Meta{}, fmt.Errorf("trace: container meta frame claims %d pairs in %d bytes", count, len(p))
	}
	str := func() (string, error) {
		n, j, err := uvarintChecked(p, i)
		if err != nil {
			return "", err
		}
		if n > uint64(len(p)-j) {
			return "", fmt.Errorf("trace: container meta frame: %d-byte string overruns the %d-byte frame", n, len(p))
		}
		i = j + int(n)
		return string(p[j : j+int(n)]), nil
	}
	for c := uint64(0); c < count; c++ {
		k, err := str()
		if err != nil {
			return Meta{}, err
		}
		v, err := str()
		if err != nil {
			return Meta{}, err
		}
		switch k {
		case "workload":
			m.Workload = v
		case "schedule":
			m.Schedule = v
		case "scale":
			m.Scale = v
		case "seed":
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Meta{}, fmt.Errorf("trace: container meta frame: bad seed %q", v)
			}
			m.Seed = seed
		}
	}
	if i != len(p) {
		return Meta{}, fmt.Errorf("trace: container meta frame malformed (%d bytes, consumed %d)", len(p), i)
	}
	return m, nil
}

// Meta returns the identifying metadata recorded with the stream.
func (r *Reader) Meta() Meta { return r.meta }

// Chunks returns the number of chunk frames.
func (r *Reader) Chunks() int { return len(r.chunks) }

// Events returns the total event count across all chunks.
func (r *Reader) Events() uint64 { return r.events }

// Size returns the container's total byte length.
func (r *Reader) Size() int64 { return r.size }

// PayloadBytes returns the total chunk payload bytes (the encoded event
// stream, frames and footer excluded).
func (r *Reader) PayloadBytes() int64 { return r.payload }

// MaxChunkBytes returns the largest single chunk payload.
func (r *Reader) MaxChunkBytes() int64 { return r.maxChunk }

// StreamCRC returns the whole-stream CRC recorded at write time.
func (r *Reader) StreamCRC() uint32 { return r.streamCRC }

// LLCTotals returns the container's stream totals: the setup-invariant
// instruction count and L1/L2 statistics the replay installs, plus the
// event statistics.
func (r *Reader) LLCTotals() (instructions uint64, l1, l2 cache.Stats, stats LLCStats) {
	return r.instructions, r.l1, r.l2, r.lstats
}

// MaxResidentBytes returns the high-water mark of simultaneously resident
// chunk payload bytes across every replay/verify walk of this Reader —
// the out-of-core bound the windowed-reader test pins.
func (r *Reader) MaxResidentBytes() int64 { return r.maxResident.Load() }

// acquire charges n payload bytes to the resident accounting.
func (r *Reader) acquire(n int64) {
	res := r.resident.Add(n)
	for {
		hw := r.maxResident.Load()
		if res <= hw || r.maxResident.CompareAndSwap(hw, res) {
			return
		}
	}
}

// release returns n payload bytes.
func (r *Reader) release(n int64) { r.resident.Add(-n) }

// chunkPayload reads, bounds-checks, and CRC-checks chunk c's payload,
// charging it to the resident accounting (the caller releases it). The
// on-disk frame header is re-parsed and cross-checked against the index
// entry, so a container whose two copies disagree is rejected however it
// is read. In mapped mode the returned slice is a zero-copy view of the
// container bytes; the accounting then counts mapped window bytes, the
// same bound with the copies removed.
func (r *Reader) chunkPayload(c int) ([]byte, error) {
	ci := r.chunks[c]
	var hdr []byte
	if r.data != nil {
		hdr = r.data[ci.off:]
	} else {
		win := r.size - ci.off
		if win > 64 {
			win = 64 // a frame header is at most 1 + 4 maximal uvarints = 41 bytes
		}
		hdr = make([]byte, win)
		if err := readFull(r.r, hdr, ci.off); err != nil {
			return nil, fmt.Errorf("trace: container chunk %d header: %w", c, err)
		}
	}
	fh, j, err := parseFrameHeader(hdr, 0)
	if err != nil {
		return nil, fmt.Errorf("trace: container chunk %d: %w", c, err)
	}
	if fh.kind != cfChunk || fh.events != ci.events || fh.firstPC != ci.firstPC || fh.length != ci.length || fh.crc != ci.crc {
		return nil, fmt.Errorf("trace: container chunk %d frame header disagrees with the seek index", c)
	}
	payloadOff := ci.off + int64(j)
	if payloadOff+int64(ci.length) > r.footerOff {
		return nil, fmt.Errorf("trace: container chunk %d payload overruns the data region", c)
	}
	r.acquire(int64(ci.length))
	var p []byte
	if r.data != nil {
		p = r.data[payloadOff : payloadOff+int64(ci.length) : payloadOff+int64(ci.length)]
	} else {
		p = make([]byte, ci.length)
		if err := readFull(r.r, p, payloadOff); err != nil {
			r.release(int64(ci.length))
			return nil, fmt.Errorf("trace: container chunk %d payload: %w", c, err)
		}
	}
	if crc := crc32.ChecksumIEEE(p); crc != ci.crc {
		r.release(int64(ci.length))
		return nil, fmt.Errorf("trace: container chunk %d CRC mismatch: stored %08x, computed %08x", c, ci.crc, crc)
	}
	return p, nil
}

// Verify walks the whole container: it checks that the chunk frames tile
// the data region exactly, re-reads every chunk (frame header vs index,
// payload CRC, full structural scan), and cross-checks the accumulated
// per-chunk statistics and stream CRC against the cfStats frame. A nil
// return means every byte between header and trailer has been validated.
func (r *Reader) Verify() error {
	expect := int64(containerHeaderLen)
	var crc uint32
	var lsum LLCStats
	for c := range r.chunks {
		ci := r.chunks[c]
		if ci.off != expect {
			return fmt.Errorf("trace: container chunk %d at offset %d, want %d (frames must tile the data region)", c, ci.off, expect)
		}
		p, err := r.chunkPayload(c)
		if err != nil {
			return err
		}
		s, err := scanLLCFrom(p, 0)
		if err != nil {
			r.release(int64(len(p)))
			return fmt.Errorf("trace: container chunk %d: %w", c, err)
		}
		lsum.Accesses += s.Accesses
		lsum.Writes += s.Writes
		lsum.Writebacks += s.Writebacks
		lsum.VertexUpdates += s.VertexUpdates
		lsum.Iterations += s.Iterations
		lsum.TileSwitches += s.TileSwitches
		crc = crc32.Update(crc, crc32.IEEETable, p)
		// The chunk frame's on-disk header length is implied by its values;
		// recompute the end from the re-parsed header via chunkPayload's
		// bounds, i.e. the next frame starts after header+payload.
		expect = ci.off + int64(frameHeaderLen(ci)) + int64(ci.length)
		r.release(int64(len(p)))
	}
	if expect != r.footerOff {
		return fmt.Errorf("trace: container data region ends at %d but the footer starts at %d", expect, r.footerOff)
	}
	if crc != r.streamCRC {
		return fmt.Errorf("trace: container stream CRC mismatch: stored %08x, computed %08x", r.streamCRC, crc)
	}
	if lsum != r.lstats {
		return fmt.Errorf("trace: container stats frame %+v disagrees with the scanned chunks %+v", r.lstats, lsum)
	}
	var sum uint64
	for c := range r.chunks {
		sum += r.chunks[c].events
	}
	if sum != r.events {
		return fmt.Errorf("trace: container index events %d disagree with total %d", sum, r.events)
	}
	return nil
}

// frameHeaderLen returns the encoded length of ci's chunk frame header:
// the marker byte plus the four uvarints writeChunkFrame emits.
func frameHeaderLen(ci chunkInfo) int {
	return 1 + uvarintLen(ci.events) + uvarintLen(ci.firstPC) + uvarintLen(ci.length) + uvarintLen(uint64(ci.crc))
}

// uvarintLen returns the LEB128-encoded byte length of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// ReplayOptions bounds a container replay's parallelism and memory.
type ReplayOptions struct {
	// Workers is the number of parallel chunk decoders. Zero means
	// min(GOMAXPROCS, 8); one forces sequential decode.
	Workers int
	// Window is the maximum number of chunks resident at once — the
	// out-of-core bound. Zero means 2x Workers.
	Window int
}

// DefaultReplayWorkers returns the worker count a zero ReplayOptions
// resolves to on this host — min(GOMAXPROCS, 8) — so footprint reports
// can state the default window bound (2x workers x chunk bytes) without
// duplicating the policy.
func DefaultReplayWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// resolve applies the documented defaults.
func (o ReplayOptions) resolve() (workers, window int) {
	workers = o.Workers
	if workers <= 0 {
		workers = DefaultReplayWorkers()
	}
	window = o.Window
	if window <= 0 {
		window = 2 * workers
	}
	if window < 1 {
		window = 1
	}
	return workers, window
}

// llcChunk is one decoded chunk in flight between a decode worker and the
// in-order feed stage. Each mark's At indexes probes: the feed stage
// delivers it (flushing the probe batch first) between probes[At-1] and
// probes[At], exactly where LLCTrace.Replay would.
type llcChunk struct {
	probes []cache.Probe
	marks  []Mark
	bytes  int64
	err    error
}

// ReplayLLC drives sim's LLC with the container's stream and installs the
// setup-invariant totals, reproducing LLCTrace.Replay counter for counter
// (cache.Level.AccessBatch is batching-invariant, so the different batch
// boundaries cannot show). Chunks decode on a worker pool — each chunk's
// delta state is self-contained — while the feed stage consumes them in
// recorded order; the window semaphore caps chunks in flight, so peak
// resident trace memory is O(window x chunk), not O(stream). Decode
// errors abort the replay and leave sim partially advanced; callers
// discard it on error.
func (r *Reader) ReplayLLC(sim *Sim, opts ReplayOptions) error {
	workers, window := opts.resolve()
	nc := len(r.chunks)
	h := sim.H
	llc := h.LLC
	hooked := sim.Hook != nil
	var batch [cache.BatchMax]cache.Probe
	n := 0
	var firstErr error

	if workers <= 1 || nc <= 1 {
		for c := 0; c < nc; c++ {
			ck := r.decodeLLCChunk(c)
			if ck.err != nil {
				return ck.err
			}
			n = feedLLCChunk(sim, h, llc, &batch, n, &ck, hooked)
			r.release(ck.bytes)
		}
	} else {
		results := make([]chan llcChunk, nc)
		for c := range results {
			results[c] = make(chan llcChunk, 1) // cap 1: sends never block
		}
		next := make(chan int)
		done := make(chan struct{})
		sem := make(chan struct{}, window)
		go func() {
			defer close(next)
			for c := 0; c < nc; c++ {
				select {
				case sem <- struct{}{}: // hold a window slot before dispatch
				case <-done:
					return
				}
				select {
				case next <- c:
				case <-done:
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c := range next {
					results[c] <- r.decodeLLCChunk(c)
				}
			}()
		}
		for c := 0; c < nc; c++ {
			ck := <-results[c]
			if ck.err != nil {
				firstErr = ck.err
				break
			}
			n = feedLLCChunk(sim, h, llc, &batch, n, &ck, hooked)
			r.release(ck.bytes)
			<-sem
		}
		close(done)
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	flushProbes(h, llc, &batch, n)
	sim.Instructions += r.instructions
	h.L1.Stats.Add(r.l1)
	h.L2.Stats.Add(r.l2)
	return nil
}

// decodeLLCChunk reads and fully decodes chunk c: payload fetch + CRC,
// structural scan (so the hot decoder below never sees corrupt bytes),
// then the concrete probe/mark decode. Runs on the worker pool; the
// resident charge it takes is released by the feed stage.
func (r *Reader) decodeLLCChunk(c int) llcChunk {
	p, err := r.chunkPayload(c)
	if err != nil {
		return llcChunk{err: err}
	}
	if _, err := scanLLCFrom(p, 0); err != nil {
		r.release(int64(len(p)))
		return llcChunk{err: fmt.Errorf("trace: container chunk %d: %w", c, err)}
	}
	// Probe count <= events (every LLC event is at least one byte and none
	// expands to two probes), so the append below never grows.
	probes := make([]cache.Probe, 0, r.chunks[c].events)
	probes, marks := decodeLLCChunkEvents(p, probes)
	return llcChunk{probes: probes, marks: marks, bytes: int64(len(p))}
}

// decodeLLCChunkEvents decodes one structurally-validated chunk payload
// into its probe sequence and hook marks. The decode arms mirror
// LLCTrace.Replay opcode for opcode (codecpair holds them in lockstep);
// per-chunk delta state starts at zero because the encoder reset at the
// boundary. Allocation lives in the caller so this loop stays escape-free.
//
//popt:hot
//popt:codec llc dec
func decodeLLCChunkEvents(data []byte, probes []cache.Probe) ([]cache.Probe, []Mark) {
	var marks []Mark
	var last [pcSlots]uint64
	var lastWB uint64
	var lastV graph.V
	i := 0
	for i < len(data) {
		b := data[i]
		i++
		op := b & opMask
		switch op {
		case lopAccessR, lopAccessW:
			var pc uint64
			if hi := b >> 4; hi != pcEscape {
				pc = uint64(hi - 1)
			} else {
				pc, i = uvarint(data, i)
			}
			var d int64
			if i < len(data) && data[i] < 0x80 {
				ux := uint64(data[i])
				d = int64(ux>>1) ^ -int64(ux&1)
				i++
			} else {
				d, i = varint(data, i)
			}
			slot := uint16(pc) & pcSlotMask
			addr := last[slot] + uint64(d)
			last[slot] = addr
			kind := cache.ProbeRead
			if op == lopAccessW {
				kind = cache.ProbeWrite
			}
			probes = appendProbe(probes, cache.Probe{Addr: addr, PC: uint16(pc), Kind: kind})
		case lopWB:
			d, nn := varint(data, i)
			i = nn
			lastWB += uint64(d)
			probes = appendProbe(probes, cache.Probe{Addr: lastWB, Kind: cache.ProbeWB})
		case lopSetVertex:
			d, nn := varint(data, i)
			i = nn
			lastV = graph.V(int64(lastV) + d)
			marks = appendMark(marks, Mark{At: len(probes), Kind: MarkVertex, Val: int(lastV)})
		case lopStartIteration:
			marks = appendMark(marks, Mark{At: len(probes), Kind: MarkIteration})
		case lopSetTile:
			tl, nn := uvarint(data, i)
			i = nn
			marks = appendMark(marks, Mark{At: len(probes), Kind: MarkTile, Val: int(tl)})
		default:
			badOp(op, i-1)
		}
	}
	return probes, marks
}

// appendProbe and appendMark keep the decoded-event appends out of the
// annotated decode loop: the wire-format walker reads every append inside
// a //popt:codec function as an opcode-byte emission, and these append
// simulator values, not wire bytes.
func appendProbe(ps []cache.Probe, p cache.Probe) []cache.Probe { return append(ps, p) }

func appendMark(ms []Mark, m Mark) []Mark { return append(ms, m) }

// feedLLCChunk issues one decoded chunk in recorded order through the
// persistent probe batch, delivering hook marks at their positions exactly
// like LLCTrace.Replay: the batch flushes before a mark only when the sim
// actually has a hook. Returns the new batch length; the batch carries
// across chunks so hookless replays run long batches through boundaries.
//
//popt:hot
func feedLLCChunk(sim *Sim, h *cache.Hierarchy, llc *cache.Level, batch *[cache.BatchMax]cache.Probe, n int, ck *llcChunk, hooked bool) int {
	probes := ck.probes
	pos := 0
	for m := range ck.marks {
		mk := ck.marks[m]
		for _, pr := range probes[pos:mk.At] {
			if n == cache.BatchMax {
				n = flushProbes(h, llc, batch, n)
			}
			// The mask is a no-op (the flush above keeps n < BatchMax) that
			// lets the compiler drop the bounds check from the feed loop.
			batch[n&(cache.BatchMax-1)] = pr
			n++
		}
		pos = mk.At
		if hooked {
			n = flushProbes(h, llc, batch, n)
			sim.hook(mk)
		}
	}
	for _, pr := range probes[pos:] {
		if n == cache.BatchMax {
			n = flushProbes(h, llc, batch, n)
		}
		batch[n&(cache.BatchMax-1)] = pr
		n++
	}
	return n
}

// Rechunk rewrites the container on w with a new chunk-size target by
// decoding each chunk and re-encoding the identical event sequence
// through a fresh chunked encoder. Statistics and metadata carry over;
// the stream CRC changes with the chunk boundaries (delta state resets
// move), which is why Verify recomputes rather than compares across
// containers — equivalence is checked at the event level by the rechunk
// round-trip test.
func (r *Reader) Rechunk(w io.Writer, chunkBytes int) error {
	cw, err := NewContainerWriter(w, r.meta)
	if err != nil {
		return err
	}
	cw.SetChunkBytes(chunkBytes)
	enc := NewChunkedLLCEncoder(cw)
	for c := range r.chunks {
		p, err := r.chunkPayload(c)
		if err != nil {
			return err
		}
		if _, err := scanLLCFrom(p, 0); err != nil {
			r.release(int64(len(p)))
			return fmt.Errorf("trace: container chunk %d: %w", c, err)
		}
		reencodeLLCEvents(p, 0, enc)
		r.release(int64(len(p)))
	}
	if err := enc.Finish(r.instructions, r.l1, r.l2); err != nil {
		return err
	}
	return cw.Finish()
}
