package trace

import (
	"popt/internal/cache"
	"popt/internal/mem"
)

// Fanout hands one live run's LLC-visible stream to follower Sims while
// the run produces it, so every LLC policy setup of a cell is simulated in
// a single kernel pass. Attached to the leader's Sim (Sim.Record) it sits
// where an LLCEncoder would: as the hierarchy's Tap it sees the accesses
// and writebacks that reach the LLC, and from the Sim it sees each hook
// mark between them. It buffers them in one fixed window of probes and one
// of marks, each mark's At counting the probes buffered before it, and
// feeds a full window to every follower through Sim.feed, the same feed
// replay uses. cache.Level.AccessBatch is batching-invariant, so a
// follower ends exactly as a replay of the recorded stream would, and so
// as a live run would.
//
// An optional Recorder (a corpus encoder) gets each window too, through
// record, before the window resets, so it encodes what a direct tap would.
//
// The followers' hierarchies must have the leader's L1/L2 shape (the
// stream depends on it); their LLCs may differ in policy and geometry.
type Fanout struct {
	rec       Recorder
	followers []*Sim
	n, m      int // probes and marks buffered
	probes    [replayWindow]cache.Probe
	marks     [replayWindow]Mark
}

// NewFanout returns a fan-out feeding the given followers and, when rec
// is non-nil, recording the stream through rec.
func NewFanout(rec Recorder, followers ...*Sim) *Fanout {
	return &Fanout{rec: rec, followers: followers}
}

// LLCAccess implements cache.LLCTap.
//
//popt:hot
func (f *Fanout) LLCAccess(acc mem.Access) {
	if f.n == len(f.probes) {
		f.flush()
	}
	kind := cache.ProbeRead
	if acc.Write {
		kind = cache.ProbeWrite
	}
	f.probes[f.n] = cache.Probe{Addr: acc.Addr, PC: acc.PC, Kind: kind}
	f.n++
}

// LLCWriteback implements cache.LLCTap.
//
//popt:hot
func (f *Fanout) LLCWriteback(lineAddr uint64) {
	if f.n == len(f.probes) {
		f.flush()
	}
	f.probes[f.n] = cache.Probe{Addr: lineAddr, Kind: cache.ProbeWB}
	f.n++
}

// mark buffers one hook event of the leader, placed after the probes
// buffered so far. A mark arriving at a full probe window stays in it
// (At == len(probes) fires after the window's last probe).
//
//popt:hot
func (f *Fanout) mark(m Mark) {
	if f.m == len(f.marks) {
		f.flush()
	}
	m.At = f.n
	f.marks[f.m] = m
	f.m++
}

// flush hands the buffered window to the recorder and every follower and
// empties it.
//
//popt:hot
func (f *Fanout) flush() {
	probes, marks := f.probes[:f.n], f.marks[:f.m]
	if f.rec != nil {
		record(f.rec, probes, marks)
	}
	for _, s := range f.followers {
		s.feed(probes, marks)
	}
	f.n, f.m = 0, 0
}

// Finish flushes the last window and installs the leader's setup-invariant
// totals (instructions, L1/L2 statistics) on every follower, as a replay
// installs the recorded ones. Call it after the leader's run has ended;
// finalizing the recorder (LLCEncoder.Finish) stays with its owner.
func (f *Fanout) Finish(leader *Sim) {
	f.flush()
	for _, s := range f.followers {
		s.addTotals(leader.Instructions, leader.H.L1.Stats, leader.H.L2.Stats)
	}
}
