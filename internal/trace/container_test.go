package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// testMeta is the identifying metadata the container tests record.
func testMeta() Meta {
	return Meta{Workload: "PR-uniform", Schedule: "pull", Scale: "tiny", Seed: 42}
}

// The totals every test stream records with.
var (
	testL1 = cache.Stats{Accesses: 1000, Hits: 900, Misses: 100, Evictions: 40, Writebacks: 20}
	testL2 = cache.Stats{Accesses: 100, Hits: 50, Misses: 50, Evictions: 10, Writebacks: 5}
)

const testInstructions = 123456

// flatTrace records feed's events as an in-memory LLC stream.
func flatTrace(feed func(*LLCEncoder)) *LLCTrace {
	enc := NewLLCEncoder()
	feed(enc)
	return enc.Trace(testInstructions, testL1, testL2)
}

// writeContainer records feed's events straight into a container with
// the given chunk target (0 keeps the default) and returns its bytes.
func writeContainer(t testing.TB, meta Meta, chunkBytes int, feed func(*LLCEncoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, meta)
	if err != nil {
		t.Fatalf("NewContainerWriter: %v", err)
	}
	cw.SetChunkBytes(chunkBytes)
	enc := NewChunkedLLCEncoder(cw)
	feed(enc)
	if err := enc.Finish(testInstructions, testL1, testL2); err != nil {
		t.Fatalf("encoder Finish: %v", err)
	}
	if err := cw.Finish(); err != nil {
		t.Fatalf("container Finish: %v", err)
	}
	return buf.Bytes()
}

// encodeRandomLLCStream builds a pseudo-random LLC-visible stream
// exercising every opcode, inline and escaped PCs, and full-range
// addresses (delta wraparound).
func encodeRandomLLCStream(seed int64, n int) *LLCTrace {
	return flatTrace(func(enc *LLCEncoder) {
		feedRandomLLCEvents(rand.New(rand.NewSource(seed)), enc, n)
	})
}

// randomLLCContainer records the encodeRandomLLCStream(seed, n) stream
// as a container.
func randomLLCContainer(t testing.TB, seed int64, n, chunkBytes int) []byte {
	return writeContainer(t, testMeta(), chunkBytes, func(enc *LLCEncoder) {
		feedRandomLLCEvents(rand.New(rand.NewSource(seed)), enc, n)
	})
}

// containerEvents decodes every chunk of r the way replay does and
// concatenates the events, rebasing each mark onto the whole sequence.
func containerEvents(t *testing.T, r *Reader) ([]cache.Probe, []Mark) {
	t.Helper()
	var probes []cache.Probe
	var marks []Mark
	for c := 0; c < r.Chunks(); c++ {
		ck := r.decodeLLCChunk(c)
		if ck.err != nil {
			t.Fatalf("chunk %d: %v", c, ck.err)
		}
		for _, m := range ck.marks {
			m.At += len(probes)
			marks = append(marks, m)
		}
		probes = append(probes, ck.probes...)
		r.release(ck.bytes)
	}
	return probes, marks
}

// setProcs sets GOMAXPROCS until the test ends. It selects ReplayLLC's
// path: sequential at 1, else that many decode workers and a window of
// twice as many chunks.
func setProcs(t testing.TB, n int) {
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// decodeAll decodes an LLC event body through the shared decoder in
// windows of the given number of probes and of marks, concatenating the
// probes and rebasing each mark onto the whole sequence.
func decodeAll(data []byte, window int) ([]cache.Probe, []Mark) {
	d := llcDecoder{data: data}
	pwin, mwin := make([]cache.Probe, window), make([]Mark, window)
	var probes []cache.Probe
	var marks []Mark
	for d.i < len(data) {
		ps, ms := d.decode(pwin, mwin)
		for _, m := range ms {
			m.At += len(probes)
			marks = append(marks, m)
		}
		probes = append(probes, ps...)
	}
	return probes, marks
}

// feedRandomLLCEvents drives the same pseudo-random event mix into any
// LLC encoder (in-memory or chunked).
func feedRandomLLCEvents(rng *rand.Rand, enc *LLCEncoder, n int) {
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			enc.SetVertex(graph.V(rng.Uint32()))
		case 1:
			enc.StartIteration()
		case 2:
			enc.SetTile(rng.Intn(64))
		case 3:
			enc.LLCWriteback(rng.Uint64())
		default:
			enc.LLCAccess(mem.Access{
				Addr:  rng.Uint64(),
				PC:    uint16(rng.Intn(1 << 12)),
				Write: rng.Intn(2) == 0,
			})
		}
	}
}

// llcCounters distills the replay-visible state of a sim for equivalence
// checks.
type llcCounters struct {
	instr  uint64
	l1, l2 cache.Stats
	llc    cache.Stats
	dramR  uint64
	dramW  uint64
}

func countersOf(sim *Sim) llcCounters {
	return llcCounters{
		instr: sim.Instructions,
		l1:    sim.H.L1.Stats, l2: sim.H.L2.Stats, llc: sim.H.LLC.Stats,
		dramR: sim.H.DRAMReads, dramW: sim.H.DRAMWrites,
	}
}

// TestTraceContainerRoundTrip pins the container against the in-memory
// form event for event: for several chunk sizes (including ones that force
// many chunk boundaries mid-stream) the container must verify clean,
// report the encoder's totals and metadata, and its chunks, decoded from
// fresh delta state and concatenated, must yield the in-memory stream's
// exact probe sequence with every hook mark at its recorded position.
func TestTraceContainerRoundTrip(t *testing.T) {
	tr := encodeRandomLLCStream(3, 2000)
	wantProbes, wantMarks := decodeAll(tr.Bytes()[llcHeaderLen:], replayWindow)
	for _, chunkBytes := range []int{48, 512, DefaultChunkBytes} {
		r, err := OpenContainerBytes(randomLLCContainer(t, 3, 2000, chunkBytes))
		if err != nil {
			t.Fatalf("chunk %d: OpenContainerBytes: %v", chunkBytes, err)
		}
		if r.Meta() != testMeta() {
			t.Fatalf("chunk %d: meta %+v did not round trip", chunkBytes, r.Meta())
		}
		if _, _, _, stats := r.LLCTotals(); stats != tr.Stats() || r.Events() != tr.Stats().Events() {
			t.Fatalf("chunk %d: container stats %+v (%d events) != encoder stats %+v", chunkBytes, stats, r.Events(), tr.Stats())
		}
		if chunkBytes < 512 && r.Chunks() < 4 {
			t.Fatalf("chunk %d: only %d chunks; the round trip is not exercising boundaries", chunkBytes, r.Chunks())
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("chunk %d: Verify on a fresh container: %v", chunkBytes, err)
		}
		probes, marks := containerEvents(t, r)
		if !reflect.DeepEqual(probes, wantProbes) || !reflect.DeepEqual(marks, wantMarks) {
			t.Fatalf("chunk %d: container events diverge from the in-memory stream", chunkBytes)
		}
	}
}

// TestLLCContainerRoundTrip pins the LLC container against LLCTrace.Replay
// counter for counter, across chunk sizes and worker counts (and with
// them window sizes), hookless and hooked — the equivalence the
// corpus-backed sweep path rests on.
func TestLLCContainerRoundTrip(t *testing.T) {
	tr := encodeRandomLLCStream(5, 3000)
	want := func(hook *countingHook) llcCounters {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if hook != nil {
			sim.Hook = hook
		}
		tr.Replay(sim)
		return countersOf(sim)
	}
	ref := want(nil)
	refHook := &countingHook{}
	refHooked := want(refHook)

	for _, chunkBytes := range []int{64, 1024, DefaultChunkBytes} {
		data := randomLLCContainer(t, 5, 3000, chunkBytes)
		r, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("chunk %d: OpenContainer: %v", chunkBytes, err)
		}
		instr, l1, l2, stats := r.LLCTotals()
		if instr != testInstructions || l1 != tr.l1 || l2 != tr.l2 || stats != tr.Stats() {
			t.Fatalf("chunk %d: LLC totals did not round trip (instr %d l1 %+v l2 %+v stats %+v)", chunkBytes, instr, l1, l2, stats)
		}
		if err := r.Verify(); err != nil {
			t.Fatalf("chunk %d: Verify: %v", chunkBytes, err)
		}
		for _, procs := range []int{1, 2, 4} {
			setProcs(t, procs)
			sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
			if err := r.ReplayLLC(sim); err != nil {
				t.Fatalf("chunk %d procs %d: ReplayLLC: %v", chunkBytes, procs, err)
			}
			if got := countersOf(sim); got != ref {
				t.Fatalf("chunk %d procs %d: container replay %+v != in-memory replay %+v", chunkBytes, procs, got, ref)
			}
		}
		// Hooked replay: marks must fire at their recorded positions.
		setProcs(t, 3)
		hook := &countingHook{}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), hook)
		if err := r.ReplayLLC(sim); err != nil {
			t.Fatalf("chunk %d hooked: ReplayLLC: %v", chunkBytes, err)
		}
		if got := countersOf(sim); got != refHooked {
			t.Fatalf("chunk %d hooked: container replay %+v != in-memory replay %+v", chunkBytes, got, refHooked)
		}
		if hook.updates != refHook.updates {
			t.Fatalf("chunk %d hooked: %d hook updates, in-memory replay saw %d", chunkBytes, hook.updates, refHook.updates)
		}
	}
}

// countingHook counts update_index deliveries.
type countingHook struct{ updates int }

func (h *countingHook) UpdateIndex(v graph.V) { h.updates++ }

// TestContainerWindowedAccounting pins the out-of-core bound: replaying a
// many-chunk container under a small window must never hold more than
// window x chunk payload bytes resident, far below the total stream size.
func TestContainerWindowedAccounting(t *testing.T) {
	data := randomLLCContainer(t, 11, 20000, 256)
	r, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("OpenContainer: %v", err)
	}
	if r.Chunks() < 16 {
		t.Fatalf("only %d chunks; the accounting test needs a long stream", r.Chunks())
	}
	const workers = 2
	setProcs(t, workers)
	window := 2 * workers
	sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := r.ReplayLLC(sim); err != nil {
		t.Fatalf("ReplayLLC: %v", err)
	}
	peak := r.MaxResidentBytes()
	if peak == 0 {
		t.Fatal("accounting recorded no resident bytes")
	}
	if r.resident.Load() != 0 {
		t.Fatalf("%d payload bytes still charged after the replay", r.resident.Load())
	}
	if bound := int64(window) * r.MaxChunkBytes(); peak > bound {
		t.Fatalf("peak resident %d bytes exceeds the window bound %d (window %d x max chunk %d)",
			peak, bound, window, r.MaxChunkBytes())
	}
	if total := r.PayloadBytes(); peak*2 > total {
		t.Fatalf("peak resident %d bytes is not out-of-core against the %d-byte stream", peak, total)
	}
}

// TestContainerRejectsCorruption drives the open/verify error paths: a
// container damaged anywhere — truncated, bit-flipped in a chunk, in the
// footer, or in the trailer — must come back as an error naming the
// problem, never a panic or a silent misread.
func TestContainerRejectsCorruption(t *testing.T) {
	valid := randomLLCContainer(t, 7, 1500, 128)
	open := func(data []byte) (*Reader, error) {
		return OpenContainer(bytes.NewReader(data), int64(len(data)))
	}
	mutate := func(at int) []byte {
		m := append([]byte{}, valid...)
		m[at] ^= 0xff
		return m
	}

	if _, err := open(nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("empty container: %v, want truncated error", err)
	}
	if _, err := open(valid[:containerHeaderLen]); err == nil {
		t.Error("header-only container was accepted")
	}
	if _, err := open(valid[:len(valid)-3]); err == nil {
		t.Error("container with a truncated trailer was accepted")
	}
	if _, err := open(mutate(1)); err == nil || !strings.Contains(err.Error(), "not a container") {
		t.Errorf("bad magic: %v, want not-a-container error", err)
	}
	{
		m := append([]byte{}, valid...)
		m[2]++ // container version bump
		if _, err := open(m); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Errorf("future container version: %v, want format-version error", err)
		}
	}
	{
		m := append([]byte{}, valid...)
		m[3] = 't' // a container of another inner stream kind
		if _, err := open(m); err == nil || !strings.Contains(err.Error(), "kind") {
			t.Errorf("foreign container kind: %v, want kind error", err)
		}
	}
	{
		m := append([]byte{}, valid...)
		m[4]++ // inner stream version bump
		if _, err := open(m); err == nil || !strings.Contains(err.Error(), "inner stream version") {
			t.Errorf("future inner version: %v, want inner-version error", err)
		}
	}
	if _, err := open(mutate(len(valid) - 1)); err == nil {
		t.Error("container with a corrupt trailer kind was accepted")
	}
	if _, err := open(mutate(len(valid) - containerTrailerLen)); err == nil {
		t.Error("container with a corrupt footer offset was accepted")
	}

	// Chunk payload corruption is caught at verify/replay time, not open
	// (the footer frames still check out).
	r, err := open(valid)
	if err != nil {
		t.Fatalf("OpenContainer on the valid container: %v", err)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify on the valid container: %v", err)
	}
	damaged := mutate(containerHeaderLen + 32) // inside the first chunk's payload
	rd, err := open(damaged)
	if err != nil {
		t.Fatalf("OpenContainer with a damaged chunk body: %v (damage is pre-footer, open must succeed)", err)
	}
	if err := rd.Verify(); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("Verify on a damaged chunk: %v, want CRC error", err)
	}
	for _, procs := range []int{1, 2} {
		setProcs(t, procs)
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if err := rd.ReplayLLC(sim); err == nil {
			t.Errorf("procs %d: ReplayLLC replayed a chunk whose CRC does not match", procs)
		}
	}
}

// TestReplayLLCReleasesOnError pins the resident accounting across a
// failed parallel replay: chunks decoded ahead of the damaged one must
// give their charge back, or every later MaxResidentBytes reading of a
// Reader the corpus shares across cells is inflated.
func TestReplayLLCReleasesOnError(t *testing.T) {
	setProcs(t, 4)
	data := randomLLCContainer(t, 19, 20000, 256)
	r, err := OpenContainerBytes(data)
	if err != nil {
		t.Fatalf("OpenContainerBytes: %v", err)
	}
	if r.Chunks() < 64 {
		t.Fatalf("only %d chunks; the test needs many in flight", r.Chunks())
	}
	ci := r.chunks[1]
	damaged := append([]byte{}, data...)
	damaged[ci.off+int64(frameHeaderLen(ci))] ^= 0xff // chunk 1's first payload byte
	rd, err := OpenContainerBytes(damaged)
	if err != nil {
		t.Fatalf("OpenContainerBytes(damaged): %v", err)
	}
	for run := 0; run < 8; run++ {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		if err := rd.ReplayLLC(sim); err == nil || !strings.Contains(err.Error(), "chunk 1 CRC") {
			t.Fatalf("run %d: ReplayLLC on a damaged chunk 1: %v, want its CRC error", run, err)
		}
		if got := rd.resident.Load(); got != 0 {
			t.Fatalf("run %d: %d payload bytes still charged after the failed replay", run, got)
		}
	}
}

// TestContainerRechunk pins Rechunk: rewriting under a different chunk
// target preserves the event sequence, the stream totals, and the
// metadata, and the result verifies clean.
func TestContainerRechunk(t *testing.T) {
	small := randomLLCContainer(t, 9, 2500, 96)
	rs, err := OpenContainer(bytes.NewReader(small), int64(len(small)))
	if err != nil {
		t.Fatalf("OpenContainer(small): %v", err)
	}
	var big bytes.Buffer
	if err := rs.Rechunk(&big, 4096); err != nil {
		t.Fatalf("Rechunk: %v", err)
	}
	rb, err := OpenContainer(bytes.NewReader(big.Bytes()), int64(big.Len()))
	if err != nil {
		t.Fatalf("OpenContainer(rechunked): %v", err)
	}
	if rb.Chunks() >= rs.Chunks() {
		t.Fatalf("rechunk to a larger target kept %d chunks (source had %d)", rb.Chunks(), rs.Chunks())
	}
	if rb.Meta() != rs.Meta() || rb.Events() != rs.Events() {
		t.Fatalf("rechunk changed identity: meta %+v events %d, want %+v / %d", rb.Meta(), rb.Events(), rs.Meta(), rs.Events())
	}
	if err := rb.Verify(); err != nil {
		t.Fatalf("Verify(rechunked): %v", err)
	}
	wantProbes, wantMarks := containerEvents(t, rs)
	if probes, marks := containerEvents(t, rb); !reflect.DeepEqual(probes, wantProbes) || !reflect.DeepEqual(marks, wantMarks) {
		t.Fatal("rechunked container events diverge from the source stream")
	}
	a := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	b := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := rs.ReplayLLC(a); err != nil {
		t.Fatalf("ReplayLLC(small): %v", err)
	}
	if err := rb.ReplayLLC(b); err != nil {
		t.Fatalf("ReplayLLC(rechunked): %v", err)
	}
	if countersOf(a) != countersOf(b) {
		t.Fatal("rechunked container replays differently from its source")
	}
}

// TestChunkedEncoderRequiresFinish pins the finalize contract both ways:
// Trace on a chunked encoder and Finish on an in-memory one are
// programming errors, and a container sealed before its encoder is an
// error, not a torn file.
func TestChunkedEncoderRequiresFinish(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewContainerWriter(&buf, testMeta())
	if err != nil {
		t.Fatalf("NewContainerWriter: %v", err)
	}
	if err := cw.Finish(); err == nil || !strings.Contains(err.Error(), "before its encoder") {
		t.Fatalf("Finish before the encoder's Finish: %v, want finished-before-encoder error", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Trace on a chunked encoder did not panic")
			}
		}()
		var buf2 bytes.Buffer
		cw2, _ := NewContainerWriter(&buf2, testMeta())
		NewChunkedLLCEncoder(cw2).Trace(0, cache.Stats{}, cache.Stats{})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Finish on an in-memory encoder did not panic")
			}
		}()
		_ = NewLLCEncoder().Finish(0, cache.Stats{}, cache.Stats{})
	}()
}
