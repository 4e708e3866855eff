package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// TestEncoderRoundTrip drives pseudo-random LLC event streams through the
// encoder and checks the decoder yields the original probe sequence with
// every hook event at its recorded position. Addresses span the full
// uint64 range (delta encoding must survive wraparound) and PCs exceed the
// slot count (collisions must only cost size, never correctness).
func TestEncoderRoundTrip(t *testing.T) {
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
		tr := enc.Trace(0, cache.Stats{}, cache.Stats{})
		gotProbes, gotMarks := decodeLLCChunkEvents(tr.Bytes()[llcHeaderLen:], nil)
		if !reflect.DeepEqual(gotProbes, probes) || !reflect.DeepEqual(gotMarks, marks) {
			t.Fatalf("trial %d: round trip diverged (%d probes and %d marks in, %d and %d out)",
				trial, len(probes), len(marks), len(gotProbes), len(gotMarks))
		}
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
	if bpe := tr.BytesPerEvent(); bpe > 3.5 {
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
