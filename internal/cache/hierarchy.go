package cache

import (
	"fmt"
	"strings"

	"popt/internal/mem"
)

// Config describes the simulated hierarchy. The paper's Table I platform is
// an 8-core Nehalem-like part: 32 KB/8-way L1, 256 KB/8-way L2 (Bit-PLRU),
// 3 MB/core 16-way LLC (24 MB total, DRRIP). The cache-only simulator (like
// the paper's) models a serial execution, so the default here is a
// single-core slice scaled so that the scaled input graphs exceed the LLC
// by the same ratio as the paper's graphs exceed 24 MB.
type Config struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	// LLCPolicy builds the LLC replacement policy. L1/L2 always use
	// Bit-PLRU per Table I.
	LLCPolicy func() Policy
}

// TableI returns the paper's full-size configuration (24 MB shared LLC)
// with the given LLC policy.
func TableI(llc func() Policy) Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		LLCSize: 24 << 20, LLCWays: 16,
		LLCPolicy: llc,
	}
}

// Scaled returns the default experiment configuration: the Table I shape
// shrunk so that the default ~128 K-vertex graphs stand in the same
// relation to the LLC as the paper's 18-34 M-vertex graphs to 24 MB:
// 4-byte irregular data is ~3.2× the LLC (misses dominate) and P-OPT's
// reserved ways land at 2/16 for single-stream kernels and 3-4/16 for
// frontier kernels, matching the paper's range (Fig. 11's annotations).
// The odd 160 KB size avoids a degenerate fit where a Rereference Matrix
// column is exactly a whole way and the tiny frontier column forces an
// extra way — rounding slack the paper's 1.5 MB ways naturally have.
func Scaled(llc func() Policy) Config {
	return Config{
		L1Size: 8 << 10, L1Ways: 8,
		L2Size: 32 << 10, L2Ways: 8,
		LLCSize: 160 << 10, LLCWays: 16,
		LLCPolicy: llc,
	}
}

// HitLevel identifies where an access was satisfied.
type HitLevel int

const (
	HitL1 HitLevel = iota
	HitL2
	HitLLC
	HitDRAM
)

func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitL2:
		return "L2"
	case HitLLC:
		return "LLC"
	default:
		return "DRAM"
	}
}

// Hierarchy is a three-level cache plus DRAM traffic counters. Writebacks
// propagate downward without allocating (non-inclusive, writeback,
// no-write-allocate-on-writeback), which keeps eviction handling simple
// while preserving DRAM write traffic accounting. Every probe below —
// demand lookups, fills, and the MarkDirty writeback sinks — runs on the
// Level's SoA datapath: sentinel-tag scans, bitmask free-way selection,
// and fastmod set mapping (see Level), so the hierarchy itself adds no
// per-access division or per-way branching.
type Hierarchy struct {
	L1, L2, LLC *Level
	// DRAMReads counts demand fills from memory, DRAMWrites counts dirty
	// writebacks that reached memory. Their sum is the paper's "DRAM
	// traffic". Instruction accounting (the MPKI denominator) lives with
	// the event sink (trace.Sim), not here: the hierarchy only ever sees
	// the references that reach it, and filters may absorb some.
	DRAMReads, DRAMWrites uint64
	// PrefetchIssued/PrefetchFills count software/hardware prefetches
	// (issued vs. actually fetched from DRAM); prefetch traffic is kept
	// out of the demand Stats but adds to DRAMReads.
	PrefetchIssued, PrefetchFills uint64
	// Tap, when non-nil, observes the LLC-visible reference stream: every
	// demand access that missed L2 (before the LLC sees it) and every
	// writeback arriving at the LLC. Because L1 and L2 run fixed Bit-PLRU
	// and the hierarchy is non-inclusive (the LLC never back-invalidates
	// them), this stream is independent of the LLC policy — the trace
	// package records it once and replays it into any policy's LLC.
	Tap LLCTap
}

// LLCTap receives the LLC-visible stream during a live run; see
// Hierarchy.Tap.
type LLCTap interface {
	// LLCAccess observes a demand access about to reach the LLC.
	LLCAccess(acc mem.Access)
	// LLCWriteback observes an upper-level dirty victim (line address)
	// about to be offered to the LLC.
	LLCWriteback(lineAddr uint64)
}

// NewHierarchy builds a hierarchy from cfg.
func NewHierarchy(cfg Config) *Hierarchy {
	if cfg.LLCPolicy == nil {
		panic("cache: Config.LLCPolicy is required")
	}
	return &Hierarchy{
		L1:  NewLevel("L1", cfg.L1Size, cfg.L1Ways, NewBitPLRU()),
		L2:  NewLevel("L2", cfg.L2Size, cfg.L2Ways, NewBitPLRU()),
		LLC: NewLevel("LLC", cfg.LLCSize, cfg.LLCWays, cfg.LLCPolicy()),
	}
}

// Access runs one memory reference through the hierarchy and reports the
// level that satisfied it.
//
//popt:hot
func (h *Hierarchy) Access(acc mem.Access) HitLevel {
	if h.L1.Access(acc) {
		return HitL1
	}
	return h.missL1(acc)
}

// Run issues accs through the hierarchy in order, with exactly the effect
// of calling Access on each. The L1 hit path is one tight loop that keeps
// the L1 demand counters in locals until the run ends; an L1 miss drops
// into missL1, the same below-L1 path Access takes. Nothing below L1 reads
// those counters, so holding them back changes no simulated bit.
//
//popt:hot
func (h *Hierarchy) Run(accs []mem.Access) {
	l1 := h.L1
	plru := l1.plru
	var hits, misses uint64
	for _, acc := range accs {
		la := acc.LineAddr()
		set := l1.SetIndex(la)
		way := l1.probe(set, la)
		if way < 0 {
			misses++
			h.missL1(acc)
			continue
		}
		// Level.Access's hit arm, spelled out so the loop keeps it inline.
		hits++
		if acc.Write {
			l1.lines[set*l1.ways+way].Dirty = true
			l1.dirty[set] |= 1 << uint(way)
		}
		if plru != nil {
			plru.OnHit(set, way, acc)
		} else {
			l1.pol.OnHit(set, way, acc)
		}
	}
	l1.Stats.Accesses += hits + misses
	l1.Stats.Hits += hits
	l1.Stats.Misses += misses
}

// missL1 resolves a demand access that missed L1: L2, the LLC tap, the
// LLC, DRAM, the fills on the way back up, and the writebacks those fills
// push down. It reports the level that satisfied the access.
//
//popt:hot
func (h *Hierarchy) missL1(acc mem.Access) HitLevel {
	level := HitDRAM
	if h.L2.Access(acc) {
		level = HitL2
	} else {
		if h.Tap != nil {
			h.Tap.LLCAccess(acc)
		}
		if h.LLC.Access(acc) {
			level = HitLLC
		} else {
			h.DRAMReads++
			// Fill LLC; its victim may write back to DRAM.
			if ev, ok := h.LLC.Fill(acc); ok && ev.Dirty {
				h.DRAMWrites++
			}
		}
	}
	if level == HitDRAM || level == HitLLC {
		// Fill L2; victim writes back into LLC if present there.
		if ev, ok := h.L2.Fill(acc); ok && ev.Dirty {
			if h.Tap != nil {
				h.Tap.LLCWriteback(ev.Addr)
			}
			if !h.LLC.MarkDirty(ev.Addr) {
				h.DRAMWrites++
			}
		}
	}
	if ev, ok := h.L1.Fill(acc); ok && ev.Dirty {
		if !h.L2.MarkDirty(ev.Addr) {
			if h.Tap != nil {
				h.Tap.LLCWriteback(ev.Addr)
			}
			if !h.LLC.MarkDirty(ev.Addr) {
				h.DRAMWrites++
			}
		}
	}
	return level
}

// ReserveLLC partitions n LLC ways away from demand use and writes any
// displaced dirty lines back to memory, keeping DRAM traffic accounting
// honest when repartitioning a warm cache.
func (h *Hierarchy) ReserveLLC(n int) {
	dirty := h.LLC.Reserve(n)
	h.DRAMWrites += uint64(len(dirty))
}

// Prefetch brings the line of acc into the LLC without touching demand
// statistics (beyond eviction bookkeeping and DRAM traffic). Prefetchers
// in the literature targeting graph irregular data (IMP, DROPLET) fill at
// LLC or L2; this models LLC fill.
func (h *Hierarchy) Prefetch(acc mem.Access) {
	h.PrefetchIssued++
	la := acc.LineAddr()
	if _, _, ok := h.LLC.Lookup(la); ok {
		return
	}
	h.PrefetchFills++
	h.DRAMReads++
	if ev, wasEv := h.LLC.Fill(acc); wasEv && ev.Dirty {
		h.DRAMWrites++
	}
}

// LLCMissRate returns the LLC local miss ratio.
func (h *Hierarchy) LLCMissRate() float64 { return h.LLC.Stats.MissRate() }

// Summary renders a compact multi-line report of all levels. Formatting
// lives here, entirely off the access path, and builds the report in a
// single buffer rather than by string concatenation.
func (h *Hierarchy) Summary() string {
	var out strings.Builder
	for _, l := range []*Level{h.L1, h.L2, h.LLC} {
		fmt.Fprintf(&out, "%-4s accesses=%-12d misses=%-12d missRate=%5.1f%%\n",
			l.Name, l.Stats.Accesses, l.Stats.Misses, 100*l.Stats.MissRate())
	}
	fmt.Fprintf(&out, "DRAM reads=%d writes=%d\n", h.DRAMReads, h.DRAMWrites)
	return out.String()
}
