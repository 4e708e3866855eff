package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// TestEncoderRoundTrip drives pseudo-random LLC event streams and the
// window-boundary streams through the encoder and checks the decoder, at
// several window sizes, yields the original probe sequence with every
// hook event at its recorded position. Addresses span the full uint64
// range (delta encoding must survive wraparound) and PCs exceed the slot
// count (collisions must only cost size, never correctness).
func TestEncoderRoundTrip(t *testing.T) {
	check := func(name string, tr *LLCTrace, probes []cache.Probe, marks []Mark) {
		t.Helper()
		for _, window := range []int{1, 7, replayWindow} {
			gotProbes, gotMarks := decodeAll(tr.Bytes()[llcHeaderLen:], window)
			if !reflect.DeepEqual(gotProbes, probes) || !reflect.DeepEqual(gotMarks, marks) {
				t.Fatalf("%s, window %d: round trip diverged (%d probes and %d marks in, %d and %d out)",
					name, window, len(probes), len(marks), len(gotProbes), len(gotMarks))
			}
		}
	}
	for _, st := range boundaryStreams() {
		check(st.name, flatTrace(st.encode), st.probes, st.marks)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		enc := NewLLCEncoder()
		var probes []cache.Probe
		var marks []Mark
		n := 1 + rng.Intn(2000)
		for i := 0; i < n; i++ {
			switch rng.Intn(10) {
			case 0:
				v := graph.V(rng.Uint32())
				enc.SetVertex(v)
				marks = append(marks, Mark{At: len(probes), Kind: MarkVertex, Val: int(v)})
			case 1:
				enc.StartIteration()
				marks = append(marks, Mark{At: len(probes), Kind: MarkIteration})
			case 2:
				tile := rng.Intn(64)
				enc.SetTile(tile)
				marks = append(marks, Mark{At: len(probes), Kind: MarkTile, Val: tile})
			case 3:
				line := rng.Uint64()
				enc.LLCWriteback(line)
				probes = append(probes, cache.Probe{Addr: line, Kind: cache.ProbeWB})
			default:
				acc := mem.Access{Addr: rng.Uint64(), PC: uint16(rng.Intn(1 << 16)), Write: rng.Intn(2) == 0}
				enc.LLCAccess(acc)
				kind := cache.ProbeRead
				if acc.Write {
					kind = cache.ProbeWrite
				}
				probes = append(probes, cache.Probe{Addr: acc.Addr, PC: acc.PC, Kind: kind})
			}
		}
		check(fmt.Sprintf("trial %d", trial), enc.Trace(0, cache.Stats{}, cache.Stats{}), probes, marks)
	}
}

// TestEncoderDeltaLocality pins the compression property the format exists
// for: a strided same-PC walk must encode in ~2 bytes/event.
func TestEncoderDeltaLocality(t *testing.T) {
	enc := NewLLCEncoder()
	for i := 0; i < 10000; i++ {
		enc.LLCAccess(mem.Access{Addr: 1<<30 + uint64(i)*64, PC: 3})
	}
	tr := enc.Trace(0, cache.Stats{}, cache.Stats{})
	if bpe := float64(len(tr.Bytes())) / float64(tr.Stats().Events()); bpe > 3.5 {
		t.Errorf("sequential walk encodes at %.2f bytes/event, want <= 3.5", bpe)
	}
	if tr.Stats().Accesses != 10000 {
		t.Errorf("accesses = %d", tr.Stats().Accesses)
	}
}

// TestTraceReplayIsRepeatable checks an LLCTrace carries no mutable decode
// state: two replays into fresh sims must leave identical counters and
// deliver the same hook events.
func TestTraceReplayIsRepeatable(t *testing.T) {
	tr := encodeRandomLLCStream(4, 500)
	var runs [2]llcCounters
	var hooks [2]countingHook
	for i := range runs {
		sim := NewSim(cache.NewHierarchy(tinyConfig()), &hooks[i])
		tr.Replay(sim)
		runs[i] = countersOf(sim)
	}
	if runs[0] != runs[1] || hooks[0] != hooks[1] {
		t.Fatalf("two replays of one trace diverged: %+v vs %+v", runs[0], runs[1])
	}
	if runs[0].llc.Accesses == 0 || hooks[0].updates == 0 {
		t.Fatalf("replay delivered nothing: %+v, %d hook updates", runs[0], hooks[0].updates)
	}
}

// eventStream is a hand-placed LLC event sequence: probes, with marks
// placed among them the way llcDecoder yields them.
type eventStream struct {
	name   string
	probes []cache.Probe
	marks  []Mark
}

// encode records the stream through enc.
func (s eventStream) encode(enc *LLCEncoder) { record(enc, s.probes, s.marks) }

// boundaryStreams returns streams whose marks sit on and around the
// replay window's edges: one before, on and after a boundary, a run of
// back-to-back marks at one, marks with no probes at all, a stream that
// ends in marks right at a full window, and a run of marks longer than
// two mark windows.
func boundaryStreams() []eventStream {
	const w = replayWindow
	rng := rand.New(rand.NewSource(3))
	probes := func(n int) []cache.Probe {
		ps := make([]cache.Probe, n)
		for i := range ps {
			// A small line pool in the tiny LLC, so replays hit, miss,
			// evict dirty lines and take writeback hits alike.
			addr := uint64(rng.Intn(96)) * mem.LineSize
			switch rng.Intn(5) {
			case 0:
				ps[i] = cache.Probe{Addr: addr, Kind: cache.ProbeWB}
			case 1:
				ps[i] = cache.Probe{Addr: addr + 8, PC: 200, Kind: cache.ProbeWrite} // escaped PC
			default:
				ps[i] = cache.Probe{Addr: addr + 4, PC: uint16(rng.Intn(6)), Kind: cache.ProbeRead}
			}
		}
		return ps
	}
	v := func(at, val int) Mark { return Mark{At: at, Kind: MarkVertex, Val: val} }
	it := func(at int) Mark { return Mark{At: at, Kind: MarkIteration} }
	tile := func(at, val int) Mark { return Mark{At: at, Kind: MarkTile, Val: val} }
	var run []Mark // more back-to-back marks than one mark window holds
	for k := 0; k <= 2*w; k++ {
		run = append(run, v(5, k))
	}
	return []eventStream{
		{"around a boundary", probes(3*w + 5), []Mark{v(0, 1), v(w-1, 5), it(w), tile(w+1, 3), v(2*w+1, 9)}},
		{"back-to-back at a boundary", probes(2*w + 3), []Mark{v(w, 7), it(w), tile(w, 1), v(w, 8), v(2*w, 1), v(2*w, 2)}},
		{"marks only", nil, []Mark{v(0, 1), it(0), tile(0, 2), v(0, 3)}},
		{"ends in marks", probes(w), []Mark{v(w/2, 6), v(w, 4), tile(w, 5)}},
		{"more marks than a window", probes(10), append(run, tile(10, 4))},
	}
}

// logHook records every hook call with the LLC and DRAM counters at the
// moment it fires, so a mark delivered one probe early or late shows.
type logHook struct {
	h   *cache.Hierarchy
	log []string
}

func (l *logHook) note(call string) {
	s := l.h.LLC.Stats
	l.log = append(l.log, fmt.Sprintf("%s@%d/%d/%d/%d/%d", call, s.Accesses, s.Hits, s.Writebacks, l.h.DRAMReads, l.h.DRAMWrites))
}

func (l *logHook) UpdateIndex(v graph.V) { l.note(fmt.Sprintf("vertex %d", v)) }
func (l *logHook) ResetEpoch()           { l.note("iteration") }
func (l *logHook) SetTile(t int)         { l.note(fmt.Sprintf("tile %d", t)) }

// replayOneByOne is the reference replay: each event of st issued alone
// in stream order, a probe as a one-probe AccessBatch and a mark as the
// hook call at once, then the recorded totals installed.
func replayOneByOne(sim *Sim, st eventStream) {
	h := sim.H
	marks := st.marks
	for i := 0; ; i++ {
		for len(marks) > 0 && marks[0].At == i {
			sim.hook(marks[0])
			marks = marks[1:]
		}
		if i == len(st.probes) {
			break
		}
		dr, dw := h.LLC.AccessBatch([]cache.Probe{st.probes[i]})
		h.DRAMReads += dr
		h.DRAMWrites += dw
	}
	sim.Instructions += testInstructions
	h.L1.Stats.Add(testL1)
	h.L2.Stats.Add(testL2)
}

// TestReplayWindowBoundaries checks flat and container replay, hooked and
// hookless, against the event-at-a-time reference on streams whose marks
// sit on window edges: every level's statistics, the DRAM counters, and
// the hook call log (with the counters at each call) must match.
func TestReplayWindowBoundaries(t *testing.T) {
	for _, st := range boundaryStreams() {
		for _, hooked := range []bool{false, true} {
			run := func(replay func(*Sim)) (llcCounters, []string) {
				sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
				hook := &logHook{h: sim.H}
				if hooked {
					sim.Hook = hook
				}
				replay(sim)
				return countersOf(sim), hook.log
			}
			want, wantLog := run(func(sim *Sim) { replayOneByOne(sim, st) })
			if hooked && len(wantLog) != len(st.marks) {
				t.Fatalf("%s: reference delivered %d hook calls for %d marks", st.name, len(wantLog), len(st.marks))
			}
			check := func(path string, got llcCounters, log []string) {
				t.Helper()
				if got != want || !reflect.DeepEqual(log, wantLog) {
					t.Fatalf("%s, hooked %v, %s:\n got  %+v %q\n want %+v %q", st.name, hooked, path, got, log, want, wantLog)
				}
			}
			tr := flatTrace(st.encode)
			got, log := run(tr.Replay)
			check("flat", got, log)
			for _, chunkBytes := range []int{24, 64, 0} {
				r, err := OpenContainerBytes(writeContainer(t, testMeta(), chunkBytes, st.encode))
				if err != nil {
					t.Fatalf("%s: OpenContainerBytes: %v", st.name, err)
				}
				for _, procs := range []int{1, 4} {
					setProcs(t, procs)
					got, log := run(func(sim *Sim) {
						if err := r.ReplayLLC(sim); err != nil {
							t.Fatalf("%s: ReplayLLC: %v", st.name, err)
						}
					})
					check(fmt.Sprintf("container chunk %d procs %d", chunkBytes, procs), got, log)
				}
			}
		}
	}
}

// leaderTap reaches a leader Sim the way a live run does: probes through
// its hierarchy's LLC tap, hook marks through the Sim itself.
type leaderTap struct{ sim *Sim }

func (l leaderTap) LLCAccess(acc mem.Access) { l.sim.H.Tap.LLCAccess(acc) }
func (l leaderTap) LLCWriteback(line uint64) { l.sim.H.Tap.LLCWriteback(line) }
func (l leaderTap) mark(m Mark)              { l.sim.mark(m) }

// loggedSim returns a Sim over a fresh tiny hierarchy and the logHook
// that is its hook when hooked is set.
func loggedSim(hooked bool) (*Sim, *logHook) {
	sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	hook := &logHook{h: sim.H}
	if hooked {
		sim.Hook = hook
	}
	return sim, hook
}

// fanOutScript drives st through a leader Sim with a Fanout attached, as a
// live run would, with the test's setup-invariant totals on the leader,
// and finishes the fan-out.
func fanOutScript(st eventStream, f *Fanout) {
	leader := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	leader.Record(f)
	record(leaderTap{leader}, st.probes, st.marks)
	leader.Record(nil)
	leader.Instructions = testInstructions
	leader.H.L1.Stats.Add(testL1)
	leader.H.L2.Stats.Add(testL2)
	f.Finish(leader)
}

// TestFanoutWindowBoundaries drives the window-boundary streams through a
// leader Sim with a Fanout attached into hooked and hookless followers,
// and checks each follower against the event-at-a-time reference: every
// level's statistics, the DRAM counters, and the hook call log with the
// counters at each call. The followers are checked on a fan-out without a
// recorder (a sweep cell without a corpus) and on one that also records
// through a chunked encoder, at a small and the default chunk target:
// that container must hold the bytes a direct encoding of the stream
// writes, and its replay must match the same reference.
func TestFanoutWindowBoundaries(t *testing.T) {
	for _, st := range boundaryStreams() {
		want := make(map[bool]llcCounters)
		wantLog := make(map[bool][]string)
		for _, hooked := range []bool{false, true} {
			sim, hook := loggedSim(hooked)
			replayOneByOne(sim, st)
			want[hooked], wantLog[hooked] = countersOf(sim), hook.log
		}
		check := func(path string, hooked bool, sim *Sim, hook *logHook) {
			t.Helper()
			got := countersOf(sim)
			if got != want[hooked] || hooked && !reflect.DeepEqual(hook.log, wantLog[true]) {
				t.Errorf("%s, %s, hooked %v:\n got  %+v %q\n want %+v %q", st.name, path, hooked, got, hook.log, want[hooked], wantLog[hooked])
			}
		}

		plain, plainHook := loggedSim(false)
		hooked, hook := loggedSim(true)
		fanOutScript(st, NewFanout(nil, plain, hooked))
		check("follower without recorder", false, plain, plainHook)
		check("follower without recorder", true, hooked, hook)

		for _, chunkBytes := range []int{24, 0} {
			var buf bytes.Buffer
			cw, err := NewContainerWriter(&buf, testMeta())
			if err != nil {
				t.Fatal(err)
			}
			cw.SetChunkBytes(chunkBytes)
			enc := NewChunkedLLCEncoder(cw)
			plain, plainHook := loggedSim(false)
			hooked, hook := loggedSim(true)
			fanOutScript(st, NewFanout(enc, plain, hooked))
			check(fmt.Sprintf("follower with recorder, chunk %d", chunkBytes), false, plain, plainHook)
			check(fmt.Sprintf("follower with recorder, chunk %d", chunkBytes), true, hooked, hook)

			if err := enc.Finish(testInstructions, testL1, testL2); err != nil {
				t.Fatalf("%s: encoder Finish: %v", st.name, err)
			}
			if err := cw.Finish(); err != nil {
				t.Fatalf("%s: container Finish: %v", st.name, err)
			}
			if direct := writeContainer(t, testMeta(), chunkBytes, st.encode); !bytes.Equal(buf.Bytes(), direct) {
				t.Errorf("%s, chunk %d: fan-out recorded a %d-byte container, a direct encoding %d bytes of other content", st.name, chunkBytes, buf.Len(), len(direct))
			}
			r, err := OpenContainerBytes(buf.Bytes())
			if err != nil {
				t.Fatalf("%s: OpenContainerBytes: %v", st.name, err)
			}
			for _, h := range []bool{false, true} {
				sim, hook := loggedSim(h)
				if err := r.ReplayLLC(sim); err != nil {
					t.Fatalf("%s: ReplayLLC: %v", st.name, err)
				}
				check(fmt.Sprintf("recorded container, chunk %d", chunkBytes), h, sim, hook)
			}
		}
	}
}

// failingWriter accepts its first ok writes and fails every later one.
type failingWriter struct{ ok int }

var errDiskFull = errors.New("disk full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.ok == 0 {
		return 0, errDiskFull
	}
	w.ok--
	return len(p), nil
}

// TestFanoutSurvivesRecorderWriteError pins what a failed corpus
// publication leaves of a cell's pass: the container's writer fails after
// the header and the first chunk frame, yet the followers still end
// exactly as the event-at-a-time reference, and the encoder's Finish
// reports the write error.
func TestFanoutSurvivesRecorderWriteError(t *testing.T) {
	st := boundaryStreams()[0]
	want, wantHook := loggedSim(true)
	replayOneByOne(want, st)

	// One write for the header, two (marker and payload) for the chunk.
	cw, err := NewContainerWriter(&failingWriter{ok: 3}, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	cw.SetChunkBytes(24)
	enc := NewChunkedLLCEncoder(cw)
	sim, hook := loggedSim(true)
	fanOutScript(st, NewFanout(enc, sim))
	if got := countersOf(sim); got != countersOf(want) || !reflect.DeepEqual(hook.log, wantHook.log) {
		t.Errorf("follower of a failing recorder:\n got  %+v %q\n want %+v %q", got, hook.log, countersOf(want), wantHook.log)
	}
	if err := enc.Finish(testInstructions, testL1, testL2); !errors.Is(err, errDiskFull) {
		t.Errorf("encoder Finish = %v, want the write error %v", err, errDiskFull)
	}
}

// TestStatsEvents checks the event total matches a hand count, and that
// what stays invisible to the LLC — an access that hits L1 and the
// non-memory instructions of a recording Sim's batch — is not recorded.
func TestStatsEvents(t *testing.T) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1, PC: 1, Write: true})
	enc.LLCWriteback(7)
	enc.SetVertex(1)
	enc.StartIteration()
	enc.SetTile(2)
	sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	sim.Record(enc)
	// The first access misses to the LLC (one event); the repeat hits L1.
	sim.Consume(Batch{Accesses: []mem.Access{{Addr: 1 << 20, PC: 1}, {Addr: 1 << 20, PC: 1}}, Ticks: 5})
	st := enc.Trace(0, cache.Stats{}, cache.Stats{}).Stats()
	if got := st.Events(); got != 6 {
		t.Errorf("Events() = %d, want 6", got)
	}
	if st.Accesses != 2 || st.Writes != 1 || st.Writebacks != 1 {
		t.Errorf("stats %+v, want two accesses (one a write) and one writeback", st)
	}
}

// TestSimMPKI relocates the old Hierarchy MPKI unit test: the sink owns
// the instruction counter now.
func TestSimMPKI(t *testing.T) {
	h := cache.NewHierarchy(cache.Scaled(func() cache.Policy { return cache.NewLRU() }))
	s := NewSim(h, nil)
	s.Consume(Batch{Ticks: 1000})
	for i := 0; i < 10; i++ {
		h.Access(mem.Access{Addr: uint64(i) * 4096 * mem.LineSize})
	}
	if got := s.MPKI(); got != 10 {
		t.Errorf("MPKI = %v, want 10", got)
	}
	if empty := (&Sim{}); empty.MPKI() != 0 {
		t.Error("hierarchy-less Sim must report 0 MPKI")
	}
}

// TestSimChargesAbsorbedAccesses pins the filter contract: an absorbed
// access retires its instruction without reaching the hierarchy.
func TestSimChargesAbsorbedAccesses(t *testing.T) {
	h := cache.NewHierarchy(cache.Scaled(func() cache.Policy { return cache.NewLRU() }))
	s := NewSim(h, nil)
	s.Filter = func(acc mem.Access) bool { return acc.Write }
	s.Consume(Batch{Accesses: []mem.Access{{Addr: 64, Write: true}, {Addr: 64}}})
	if s.Instructions != 2 {
		t.Errorf("Instructions = %d, want 2", s.Instructions)
	}
	if h.L1.Stats.Accesses != 1 {
		t.Errorf("L1 accesses = %d, want 1", h.L1.Stats.Accesses)
	}
}
