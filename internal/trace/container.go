package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"

	"popt/internal/cache"
)

// This file is the write side of the chunked on-disk trace container
// (DESIGN.md §12) — the persistent form of the LLC-visible event stream.
// A container is:
//
//	header   'p' 'c' version kind innerVersion        (5 bytes)
//	frames   cfChunk ... cfChunk cfStats cfIndex cfMeta
//	trailer  footerOff:u64 footerLen:u64 'p' 'c' version kind  (20 bytes)
//
// Every frame is a marker byte plus a uvarint-described payload; chunk
// frames carry headerless event bytes whose delta state is reset at each
// chunk boundary, so any chunk decodes independently of the others — the
// property the seek index, the parallel decoder, and out-of-core
// windowed replay all rest on. The footer frames (stream statistics, the
// chunk seek index, and the identifying metadata) come last so recording
// is a single forward pass; readers find them through the fixed trailer.

// Frame markers. The block holds only the markers: the wireformat
// analyzer takes every constant of an iota block as the decoder's
// opcode universe.
const (
	cfChunk byte = iota + 1 // events, firstPC, len, crc, then payload
	cfStats                 // len, crc, then the stream-total payload
	cfIndex                 // len, crc, then the chunk seek index
	cfMeta                  // len, crc, then identifying key/value pairs
)

// DefaultChunkBytes is the target encoded size of one chunk. At the
// measured ~2 B/event density this is the issue's ~64K events per chunk;
// chunks close at the first event boundary past the target.
const DefaultChunkBytes = 128 << 10

// Meta identifies the recorded stream a container holds: the corpus key.
// Seed is the generator seed; Scale names the input scale (and with it
// the fixed L1/L2 shape the LLC form was recorded under).
type Meta struct {
	Workload string
	Schedule string
	Scale    string
	Seed     int64
}

// chunkInfo is one chunk's seek-index entry.
type chunkInfo struct {
	off     int64  // file offset of the chunk frame's marker byte
	events  uint64 // encoded events in the chunk
	firstPC uint64 // first access PC in the chunk + 1; 0 = no access
	length  uint64 // payload bytes
	crc     uint32 // IEEE CRC-32 of the payload
}

// ContainerWriter streams one container to an io.Writer. An encoder
// created with NewChunkedLLCEncoder emits chunk frames through it as they
// fill; the encoder's Finish sets the stats payload and the owner then
// calls Finish here to write the footer and trailer. Writers are
// single-goroutine, like the encoder that feeds them.
type ContainerWriter struct {
	w          io.Writer
	meta       Meta
	chunkBytes int
	off        int64 // bytes written so far
	chunks     []chunkInfo
	streamCRC  uint32 // running CRC over all chunk payloads, in order
	stats      []byte // set by the encoder's Finish
	scratch    []byte
	err        error
	finished   bool
}

// NewContainerWriter writes the container header and returns a writer for
// its frames. meta is recorded verbatim in the footer's cfMeta frame.
func NewContainerWriter(w io.Writer, meta Meta) (*ContainerWriter, error) {
	cw := &ContainerWriter{w: w, meta: meta, chunkBytes: DefaultChunkBytes}
	cw.writeAll([]byte{magic0, magicContainer1, ContainerFormatVersion, KindLLC, LLCFormatVersion})
	return cw, cw.err
}

// SetChunkBytes overrides the chunk-size target; it must be called before
// the chunked encoder is created (rechunking and tests use it).
func (w *ContainerWriter) SetChunkBytes(n int) {
	if n > 0 {
		w.chunkBytes = n
	}
}

// Err returns the first write error, if any.
func (w *ContainerWriter) Err() error { return w.err }

// writeAll appends bytes to the stream, tracking the offset and latching
// the first error.
func (w *ContainerWriter) writeAll(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.off += int64(n)
	if err != nil {
		w.err = err
	}
}

// writeChunk records one chunk's index entry and emits its frame. Called
// by the chunked encoder at event boundaries; empty chunks are dropped.
func (w *ContainerWriter) writeChunk(events, firstPC uint64, payload []byte) {
	if w.err != nil || len(payload) == 0 {
		return
	}
	crc := crc32.ChecksumIEEE(payload)
	w.chunks = append(w.chunks, chunkInfo{
		off: w.off, events: events, firstPC: firstPC,
		length: uint64(len(payload)), crc: crc,
	})
	w.streamCRC = crc32.Update(w.streamCRC, crc32.IEEETable, payload)
	w.writeChunkFrame(events, firstPC, payload, crc)
}

// writeChunkFrame emits one chunk frame: the marker, the uvarint header
// quad (event count, first PC, payload length, payload CRC), then the
// headerless event payload (copied out of line in writeAll).
//
//popt:codec container enc
func (w *ContainerWriter) writeChunkFrame(events, firstPC uint64, payload []byte, crc uint32) {
	hdr := w.scratch[:0]
	hdr = append(hdr, cfChunk)
	hdr = appendUvarint(hdr, events)
	hdr = appendUvarint(hdr, firstPC)
	hdr = appendUvarint(hdr, uint64(len(payload)))
	hdr = appendUvarint(hdr, uint64(crc))
	w.scratch = hdr
	w.writeAll(hdr)
	w.writeAll(payload)
}

// writeStatsFrame emits the stream-totals footer frame.
//
//popt:codec container enc
func (w *ContainerWriter) writeStatsFrame(payload []byte) {
	hdr := w.scratch[:0]
	hdr = append(hdr, cfStats)
	hdr = appendUvarint(hdr, uint64(len(payload)))
	hdr = appendUvarint(hdr, uint64(crc32.ChecksumIEEE(payload)))
	w.scratch = hdr
	w.writeAll(hdr)
	w.writeAll(payload)
}

// writeIndexFrame emits the chunk seek-index footer frame.
//
//popt:codec container enc
func (w *ContainerWriter) writeIndexFrame(payload []byte) {
	hdr := w.scratch[:0]
	hdr = append(hdr, cfIndex)
	hdr = appendUvarint(hdr, uint64(len(payload)))
	hdr = appendUvarint(hdr, uint64(crc32.ChecksumIEEE(payload)))
	w.scratch = hdr
	w.writeAll(hdr)
	w.writeAll(payload)
}

// writeMetaFrame emits the identifying-metadata footer frame.
//
//popt:codec container enc
func (w *ContainerWriter) writeMetaFrame(payload []byte) {
	hdr := w.scratch[:0]
	hdr = append(hdr, cfMeta)
	hdr = appendUvarint(hdr, uint64(len(payload)))
	hdr = appendUvarint(hdr, uint64(crc32.ChecksumIEEE(payload)))
	w.scratch = hdr
	w.writeAll(hdr)
	w.writeAll(payload)
}

// setStats installs the encoded stream-totals payload; the chunked
// encoder calls it from Finish, before the owner calls ContainerWriter
// Finish.
func (w *ContainerWriter) setStats(payload []byte) { w.stats = payload }

// Finish writes the footer frames and trailer. It must run after the
// feeding encoder's Finish (which flushes the final chunk and sets the
// stats payload); Finish is idempotent and returns the first error.
func (w *ContainerWriter) Finish() error {
	if w.finished {
		return w.err
	}
	w.finished = true
	if w.stats == nil && w.err == nil {
		w.err = fmt.Errorf("trace: container finished before its encoder (stats payload missing)")
		return w.err
	}
	footerOff := w.off
	w.writeStatsFrame(w.stats)
	w.writeIndexFrame(encodeIndex(w.chunks))
	w.writeMetaFrame(encodeMeta(w.meta))
	footerLen := w.off - footerOff
	var tr [containerTrailerLen]byte
	binary.LittleEndian.PutUint64(tr[0:8], uint64(footerOff))
	binary.LittleEndian.PutUint64(tr[8:16], uint64(footerLen))
	tr[16], tr[17], tr[18], tr[19] = magic0, magicContainer1, ContainerFormatVersion, KindLLC
	w.writeAll(tr[:])
	return w.err
}

// encodeIndex renders the seek index: a chunk count, then per chunk the
// frame-offset delta (first entry absolute), event count, first PC,
// payload length and payload CRC, all uvarints. The entries duplicate the
// chunk frame headers so a reader never touches a chunk it does not
// replay; Verify cross-checks the two copies.
func encodeIndex(chunks []chunkInfo) []byte {
	buf := appendUvarint(nil, uint64(len(chunks)))
	var prev int64
	for _, ci := range chunks {
		buf = appendUvarint(buf, uint64(ci.off-prev))
		prev = ci.off
		buf = appendUvarint(buf, ci.events)
		buf = appendUvarint(buf, ci.firstPC)
		buf = appendUvarint(buf, ci.length)
		buf = appendUvarint(buf, uint64(ci.crc))
	}
	return buf
}

// encodeMeta renders the identifying metadata as length-prefixed
// key/value pairs in fixed order (decodeMeta ignores unknown keys, so the
// set can grow under the container version's discipline).
func encodeMeta(m Meta) []byte {
	pairs := [4][2]string{
		{"workload", m.Workload},
		{"schedule", m.Schedule},
		{"scale", m.Scale},
		{"seed", strconv.FormatInt(m.Seed, 10)},
	}
	buf := appendUvarint(nil, uint64(len(pairs)))
	for _, p := range pairs {
		buf = appendUvarint(buf, uint64(len(p[0])))
		buf = append(buf, p[0]...)
		buf = appendUvarint(buf, uint64(len(p[1])))
		buf = append(buf, p[1]...)
	}
	return buf
}

// encodeLLCStats renders the cfStats payload of a container: the
// whole-stream CRC, the setup-invariant totals (instructions, L1, L2 —
// what the in-memory form carries in its fixed header), then the LLCStats
// counters.
func encodeLLCStats(s LLCStats, instructions uint64, l1, l2 cache.Stats, streamCRC uint32) []byte {
	buf := appendUvarint(nil, uint64(streamCRC))
	buf = appendUvarint(buf, instructions)
	for _, lv := range [2]cache.Stats{l1, l2} {
		for _, x := range [5]uint64{lv.Accesses, lv.Hits, lv.Misses, lv.Evictions, lv.Writebacks} {
			buf = appendUvarint(buf, x)
		}
	}
	for _, x := range [6]uint64{
		s.Accesses, s.Writes, s.Writebacks, s.VertexUpdates, s.Iterations, s.TileSwitches,
	} {
		buf = appendUvarint(buf, x)
	}
	return buf
}
