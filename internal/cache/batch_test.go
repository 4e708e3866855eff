package cache

import (
	"testing"

	"popt/internal/mem"
)

// probeStream builds a deterministic pseudo-random mixed stream of
// demand reads/writes and writebacks over a footprint of lines.
func probeStream(events int, footprintLines uint64, seed uint64) []Probe {
	ps := make([]Probe, events)
	x := seed | 1
	for i := range ps {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		addr := (x % footprintLines) * mem.LineSize
		switch x % 10 {
		case 0, 1: // writebacks are the rarest event in real streams
			ps[i] = Probe{Addr: addr, Kind: ProbeWB}
		case 2, 3, 4:
			ps[i] = Probe{Addr: addr + x%mem.LineSize, PC: uint16(x % 7), Kind: ProbeWrite}
		default:
			ps[i] = Probe{Addr: addr + x%mem.LineSize, PC: uint16(x % 7), Kind: ProbeRead}
		}
	}
	return ps
}

// applySequential issues one probe through the one-event-at-a-time API
// exactly as Hierarchy.Access's LLC arm / LLCTrace's old replay loop
// would, returning the DRAM traffic.
func applySequential(l *Level, p Probe) (dramReads, dramWrites uint64) {
	if p.Kind == ProbeWB {
		if !l.MarkDirty(p.Addr &^ uint64(mem.LineSize-1)) {
			dramWrites++
		}
		return
	}
	acc := mem.Access{Addr: p.Addr, PC: p.PC, Write: p.Kind == ProbeWrite}
	if !l.Access(acc) {
		dramReads++
		if ev, ok := l.Fill(acc); ok && ev.Dirty {
			dramWrites++
		}
	}
	return
}

// levelStateEqual compares the complete replacement-visible state of two
// levels: statistics, tags and valid/dirty masks.
func levelStateEqual(t *testing.T, a, b *Level) {
	t.Helper()
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.tags {
		if a.tags[i] != b.tags[i] {
			t.Fatalf("tag %d diverges: %#x vs %#x", i, a.tags[i], b.tags[i])
		}
	}
	for s := range a.valid {
		if a.valid[s] != b.valid[s] || a.dirty[s] != b.dirty[s] {
			t.Fatalf("set %d masks diverge: valid %#x/%#x dirty %#x/%#x",
				s, a.valid[s], b.valid[s], a.dirty[s], b.dirty[s])
		}
	}
}

// TestAccessBatchMatchesSequential is the batch-probe equivalence
// property: for mixed demand/writeback streams, every batch partition of
// the stream leaves the level in exactly the state — counters, tags,
// valid and dirty bits — that per-event
// Access/Fill/MarkDirty calls produce, and reports the same DRAM
// traffic. Covered across the set-mapping split (power-of-two mask vs
// fastmod), policy dispatch split (devirtualized BitPLRU vs interface),
// and reserved ways (the P-OPT partitioning case).
func TestAccessBatchMatchesSequential(t *testing.T) {
	configs := []struct {
		name    string
		size    int // 48 KB -> 48 sets (fastmod); 64 KB -> 64 sets (mask)
		pol     func() Policy
		reserve int
	}{
		{"fastmod-lru", 48 << 10, func() Policy { return NewLRU() }, 0},
		{"mask-lru", 64 << 10, func() Policy { return NewLRU() }, 0},
		{"fastmod-plru", 48 << 10, func() Policy { return NewBitPLRU() }, 0},
		{"fastmod-drrip", 48 << 10, func() Policy { return NewDRRIP(1) }, 0},
		{"fastmod-lru-reserved", 48 << 10, func() Policy { return NewLRU() }, 3},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			// Footprint 4x capacity so misses, evictions and dirty victims
			// are all frequent.
			stream := probeStream(1<<15, uint64(4*cfg.size/mem.LineSize), 7)
			for _, batchSize := range []int{1, 3, 64, len(stream)} {
				seq := NewLevel("seq", cfg.size, 16, cfg.pol())
				bat := NewLevel("bat", cfg.size, 16, cfg.pol())
				if cfg.reserve > 0 {
					seq.Reserve(cfg.reserve)
					bat.Reserve(cfg.reserve)
				}
				var seqR, seqW, batR, batW uint64
				for _, p := range stream {
					dr, dw := applySequential(seq, p)
					seqR += dr
					seqW += dw
				}
				for lo := 0; lo < len(stream); lo += batchSize {
					hi := lo + batchSize
					if hi > len(stream) {
						hi = len(stream)
					}
					// AccessBatch scribbles set indices into the probes; copy
					// so every batch size sees the same input.
					batch := append([]Probe(nil), stream[lo:hi]...)
					dr, dw := bat.AccessBatch(batch)
					batR += dr
					batW += dw
				}
				if seqR != batR || seqW != batW {
					t.Fatalf("batchSize=%d: DRAM traffic diverges: seq %d/%d, batch %d/%d",
						batchSize, seqR, seqW, batR, batW)
				}
				levelStateEqual(t, seq, bat)
			}
		})
	}
}

// BenchmarkLevelAccessBatch measures the batch-probe path on the same
// warmed hit-dominated level as BenchmarkLevelAccess, so the two numbers
// are directly comparable: the difference is the per-event overhead the
// batch amortizes.
func BenchmarkLevelAccessBatch(b *testing.B) {
	l, addrs := benchLevel(1, 2)
	for _, a := range addrs {
		acc := mem.Access{Addr: a}
		if !l.Access(acc) {
			l.Fill(acc)
		}
	}
	const batchLen = 64
	var batch [batchLen]Probe
	b.ResetTimer()
	for i := 0; i < b.N; i += batchLen {
		for j := 0; j < batchLen; j++ {
			batch[j] = Probe{Addr: addrs[(i+j)&(len(addrs)-1)]}
		}
		l.AccessBatch(batch[:])
	}
}
