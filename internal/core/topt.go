package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"sync"

	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// infDist marks "no future reference" in victim scans.
const infDist = math.MaxInt64

// OracleStream describes one irregularly accessed array to T-OPT: the
// array's address range plus the adjacency that encodes its references.
// For a pull kernel over the CSC, Ref is the graph's out-adjacency (its
// transpose); for push over the CSR, Ref is the in-adjacency.
type OracleStream struct {
	Arr *mem.Array
	Ref *graph.Adj

	// LR is the per-cache-line merge of the vertices' sorted reference
	// lists, so a next-reference query searches one sorted list instead of
	// scanning each vertex. NewTOPT builds it when nil; callers that simulate
	// the same (transpose, line geometry) many times can build it once
	// with BuildLineRefs and share it read-only across runs. This is a
	// simulator-speed optimization only: hardware T-OPT would scan the
	// transpose, and the paper charges it nothing either way (T-OPT is
	// the idealized bound).
	LR *LineRefs
}

// LineRefs is the immutable merged-transpose table behind an
// OracleStream: for each cache line of the irregular array, the sorted
// union of its vertices' reference positions. Like core.Table it never
// changes after construction and is safe to share across concurrent
// simulations.
//
//popt:frozen
type LineRefs struct {
	oa   []uint64
	refs []graph.V
}

// BuildLineRefs merges the sorted neighbor lists of the vertices sharing
// each cache line (elemsPerLine of them) into one sorted list per line.
// Lines are independent, so the merge is partitioned across GOMAXPROCS
// workers; the result is identical at every worker count.
func BuildLineRefs(ref *graph.Adj, elemsPerLine int) *LineRefs {
	numLines := (ref.N() + elemsPerLine - 1) / elemsPerLine
	workers := runtime.GOMAXPROCS(0)
	if max := numLines / minLinesPerWorker; workers > max {
		workers = max
	}
	return buildLineRefs(ref, elemsPerLine, workers)
}

// buildLineRefs is BuildLineRefs at a fixed worker count.
func buildLineRefs(ref *graph.Adj, elemsPerLine, workers int) *LineRefs {
	n := ref.N()
	numLines := (n + elemsPerLine - 1) / elemsPerLine
	lr := &LineRefs{oa: make([]uint64, numLines+1)}
	total := uint64(0)
	for l := 0; l < numLines; l++ {
		lr.oa[l] = total
		lo, hi := l*elemsPerLine, (l+1)*elemsPerLine
		if hi > n {
			hi = n
		}
		for v := lo; v < hi; v++ {
			total += uint64(ref.Degree(graph.V(v)))
		}
	}
	lr.oa[numLines] = total
	lr.refs = make([]graph.V, total)
	if workers <= 1 {
		lr.mergeLines(ref, elemsPerLine, 0, numLines)
		return lr
	}
	var wg sync.WaitGroup
	chunk := (numLines + workers - 1) / workers
	for lo := 0; lo < numLines; lo += chunk {
		hi := lo + chunk
		if hi > numLines {
			hi = numLines
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			lr.mergeLines(ref, elemsPerLine, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return lr
}

// mergeLines fills the reference segments of lines [lineLo, lineHi); each
// worker of the parallel build owns a disjoint range. A segment starts as
// the concatenation of its vertices' neighbor lists, each already sorted,
// so it is merged run by run (mergeRuns) rather than sorted from scratch.
// The merge scratch is sized to the range's longest segment, so only the
// worker whose range holds a hub's line pays for that line's length.
func (lr *LineRefs) mergeLines(ref *graph.Adj, elemsPerLine, lineLo, lineHi int) {
	longest := uint64(0)
	for l := lineLo; l < lineHi; l++ {
		if d := lr.oa[l+1] - lr.oa[l]; d > longest {
			longest = d
		}
	}
	lr.mergeSegments(ref, elemsPerLine, lineLo, lineHi, make([]graph.V, longest), make([]int, elemsPerLine+1))
}

// mergeSegments is mergeLines' loop. scratch (at least the longest segment)
// and runs (elemsPerLine+1 entries) are allocated by the caller, which
// keeps this loop allocation-free.
//
//popt:hot
func (lr *LineRefs) mergeSegments(ref *graph.Adj, elemsPerLine, lineLo, lineHi int, scratch []graph.V, runs []int) {
	n := ref.N()
	for l := lineLo; l < lineHi; l++ {
		seg := lr.refs[lr.oa[l]:lr.oa[l+1]]
		lo, hi := l*elemsPerLine, (l+1)*elemsPerLine
		if hi > n {
			hi = n
		}
		// runs[:k+1] bounds the k non-empty neighbor lists in seg.
		k, w := 0, 0
		runs[0] = 0
		for v := lo; v < hi; v++ {
			if c := ref.CopyNeighbors(seg[w:], graph.V(v)); c > 0 {
				w += c
				k++
				runs[k] = w
			}
		}
		mergeRuns(seg, scratch[:len(seg)], runs[:k+1])
	}
}

// mergeRuns sorts a, the concatenation of the sorted runs
// a[runs[i]:runs[i+1]], without sorting from scratch. Neighboring short
// runs are first folded together by insertion into groups of at most
// insertMergeMax elements (a line of low-degree vertices is typically one
// such group); the groups are then merged pairwise, bottom up, ping-ponging
// between a and tmp (len(tmp) == len(a)), so each pass halves the group
// count. runs is overwritten.
//
//popt:hot
func mergeRuns(a, tmp []graph.V, runs []int) {
	g := 0
	for r := 0; r+1 < len(runs); g++ {
		lo, e := runs[r], r+1
		for e+1 < len(runs) && runs[e+1]-lo <= insertMergeMax {
			e++
		}
		insertRuns(a, lo, runs[r:e+1])
		runs[g] = lo
		r = e
	}
	runs[g] = runs[len(runs)-1]
	runs = runs[:g+1]
	src, dst, inTmp := a, tmp, false
	for r := len(runs) - 1; r > 1; r = len(runs) - 1 {
		j := 0
		for i := 0; i < r; i += 2 {
			lo := runs[i]
			if i+1 < r {
				mid, hi := runs[i+1], runs[i+2]
				mergeTwo(dst[lo:hi], src[lo:mid], src[mid:hi])
			} else {
				copy(dst[lo:runs[r]], src[lo:runs[r]]) // odd group out
			}
			runs[j] = lo
			j++
		}
		runs[j] = runs[r]
		runs = runs[:j+1]
		src, dst, inTmp = dst, src, !inTmp
	}
	if inTmp {
		copy(a, src)
	}
}

// insertMergeMax bounds the groups mergeRuns folds by insertion: over a
// few dozen elements in one- or two-element runs, insertion moves fewer
// bytes than the merge passes it replaces and has none of their per-pair
// overhead.
const insertMergeMax = 32

// insertRuns folds the consecutive sorted runs a[runs[i]:runs[i+1]] into
// one sorted run starting at runs[0], inserting each run's elements into
// the sorted prefix before it; nothing moves below lo. A run that starts
// at or above the prefix's last element is already in place and costs one
// comparison.
//
//popt:hot
func insertRuns(a []graph.V, lo int, runs []int) {
	for r := 1; r+1 < len(runs); r++ {
		start, end := runs[r], runs[r+1]
		if start == lo || start == end || a[start-1] <= a[start] {
			continue
		}
		for i := start; i < end; i++ {
			x := a[i]
			j := i
			for ; j > lo && a[j-1] > x; j-- {
				a[j] = a[j-1]
			}
			a[j] = x
		}
	}
}

// mergeTwo merges the sorted runs x and y into dst (len(x)+len(y) long).
// The choice of run is written branch-free (a conditional move and index
// arithmetic): which run supplies the next element is unpredictable, and
// a mispredicted branch per element costs more than the move itself.
//
//popt:hot
func mergeTwo(dst, x, y []graph.V) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		c := 0
		if b < a {
			a, c = b, 1
		}
		dst[k] = a
		k++
		i += 1 - c
		j += c
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
}

// MemBytes returns the resident size of the merged reference table, for
// footprint reports (-memstats).
func (lr *LineRefs) MemBytes() uint64 {
	return uint64(8*len(lr.oa)) + uint64(4*len(lr.refs))
}

// Checksum returns an FNV-1a hash of the merged reference table; tests
// use it to assert immutability under concurrent sharing.
func (lr *LineRefs) Checksum() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range lr.oa {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, r := range lr.refs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(r))
		h.Write(buf[:4])
	}
	return h.Sum64()
}

// seek returns the first reference of line l at index from or later in
// the merged table that is strictly greater than cur, with its index; a
// line with no such reference yields its segment end and noRef. from must
// lie within the line's segment and every reference before it must be
// <= cur. The search gallops forward from from (probing 1, 2, 4, ...
// entries ahead) and then binary-searches the bracket it found, so a
// query whose answer is near from costs a few probes rather than a search
// of the whole segment. Both loops are written out by hand rather than
// through sort.Search: the closure-based form costs an indirect call per
// probe on what runs once per candidate way per LLC eviction.
//
//popt:hot
func (lr *LineRefs) seek(l int, from uint64, cur graph.V) (uint64, graph.V) {
	end := lr.oa[l+1]
	lo, hi := from, from
	for step := uint64(1); hi < end && lr.refs[hi] <= cur; step <<= 1 {
		lo = hi + 1
		hi += step
	}
	if hi > end {
		hi = end
	}
	// The answer lies in [lo, hi]: refs[lo-1] <= cur, and hi is either the
	// segment end or holds a reference > cur.
	for lo < hi {
		mid := lo + (hi-lo)>>1
		if lr.refs[mid] > cur {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == end {
		return end, noRef
	}
	return lo, lr.refs[lo]
}

// noRef is the memoized "no further reference" answer. It compares
// greater than every outer-loop vertex, so a memo holding it is always a
// hit: once a line has no reference after cur, it has none after any
// later cur either.
const noRef = ^graph.V(0)

// memoEntry is one line's memoized next-reference answer: the answer next
// (or noRef), its index pos in the merged table (the segment end for
// noRef), and the generation gen it was computed in. The three fields sit
// in one 16-byte entry so a lookup touches a single host cache line.
type memoEntry struct {
	pos  uint64
	next graph.V
	gen  uint32
}

// oracle is one irregular stream of a TOPT run: the caller's OracleStream
// plus this run's next-reference memo, one entry per line.
type oracle struct {
	OracleStream
	memo []memoEntry
}

// TOPT is transpose-based optimal replacement (Section III): at eviction
// time it scans the transpose neighbor lists of every vertex in each
// candidate line to find exact next references, evicting the line used
// furthest in the future. It is idealized — the simulator charges nothing
// for the transpose lookups — so it upper-bounds P-OPT (Fig. 4, 7, 10).
//
// A run memoizes each line's last next-reference answer (see nextRef).
// The memo is per-run state, so it lives here rather than on the shared,
// frozen LineRefs.
type TOPT struct {
	g       cache.Geometry
	streams []oracle
	cur     graph.V
	// gen is the memo generation: it advances whenever cur moves
	// backwards, so within one generation cur never decreases. Memo
	// entries stamped with an older generation are stale.
	gen uint32
	tie *cache.DRRIP
	// Ties counts victim selections where multiple lines shared the
	// maximal next reference and the tie-breaker decided.
	Ties uint64
}

// NewTOPT builds a T-OPT policy over the given irregular streams,
// building any merged-transpose tables the caller did not supply. The
// streams are copied, so the caller's slice is never written.
func NewTOPT(streams ...OracleStream) *TOPT {
	p := &TOPT{streams: make([]oracle, len(streams)), gen: 1, tie: cache.NewDRRIP(1)}
	for i, s := range streams {
		if s.LR == nil {
			s.LR = BuildLineRefs(s.Ref, s.Arr.ElemsPerLine())
		}
		p.streams[i] = oracle{OracleStream: s, memo: make([]memoEntry, len(s.LR.oa)-1)}
	}
	return p
}

// Name implements cache.Policy.
func (p *TOPT) Name() string { return "T-OPT" }

// Bind implements cache.Policy.
func (p *TOPT) Bind(g cache.Geometry) {
	p.g = g
	p.tie.Bind(g)
}

// UpdateIndex models the paper's update_index instruction: the kernel
// reports the outer-loop vertex it is currently processing. A backward
// move (an iteration restart, a tile switch, or interleaved multicore
// vertices) starts a new memo generation.
func (p *TOPT) UpdateIndex(v graph.V) {
	if v < p.cur {
		p.newGeneration()
	}
	p.cur = v
}

// newGeneration invalidates every memo entry in O(1) by advancing gen;
// only when the counter wraps are the stamps cleared for real.
func (p *TOPT) newGeneration() {
	p.gen++
	if p.gen != 0 {
		return
	}
	for i := range p.streams {
		memo := p.streams[i].memo
		for l := range memo {
			memo[l].gen = 0
		}
	}
	p.gen = 1
}

// OnHit implements cache.Policy (tie-breaker state piggybacks on DRRIP).
func (p *TOPT) OnHit(set, way int, acc mem.Access) { p.tie.OnHit(set, way, acc) }

// OnFill implements cache.Policy.
func (p *TOPT) OnFill(set, way int, acc mem.Access) { p.tie.OnFill(set, way, acc) }

// OnEvict implements cache.Policy.
func (p *TOPT) OnEvict(set, way int) { p.tie.OnEvict(set, way) }

// stream returns the irregular stream containing addr, or nil (streaming
// data), i.e. the irreg_base/irreg_bound register comparison.
func (p *TOPT) stream(addr uint64) *oracle {
	for i := range p.streams {
		if p.streams[i].Arr.Contains(addr) {
			return &p.streams[i]
		}
	}
	return nil
}

// nextRef returns the exact distance (in outer-loop vertices) to the next
// reference of the line at addr within s, or infDist.
//
// The line's memo answers it with one load when the entry is from the
// current generation and still lies ahead of cur. That is exact: the
// entry was the first reference after some earlier cur' <= cur of the
// same generation, so no reference lies in (cur', next], and next > cur
// makes it the first after cur too. A current-generation entry that cur
// has passed is resumed: every reference up to its index is <= cur, so
// the search gallops on from the next index. An older entry restarts at
// the segment head.
//
//popt:hot
func (p *TOPT) nextRef(s *oracle, addr uint64) int64 {
	l := s.Arr.LineID(addr)
	m := &s.memo[l]
	if m.gen != p.gen {
		m.pos, m.next = s.LR.seek(l, s.LR.oa[l], p.cur)
		m.gen = p.gen
	} else if m.next <= p.cur {
		m.pos, m.next = s.LR.seek(l, m.pos+1, p.cur)
	}
	if m.next == noRef {
		return infDist
	}
	return int64(m.next) - int64(p.cur)
}

// Victim implements cache.Policy following Section V-C's candidate search:
// prefer any way holding streaming (non-irregular) data; otherwise evict
// the irregular line referenced furthest in the future, breaking ties with
// DRRIP.
//
//popt:hot
func (p *TOPT) Victim(set int, lines []cache.Line, acc mem.Access) int {
	best, bestDist, tied := -1, int64(-1), false
	for w := p.g.ReservedWays; w < p.g.Ways; w++ {
		s := p.stream(lines[w].Addr)
		if s == nil {
			return w // streaming data has re-reference distance infinity
		}
		d := p.nextRef(s, lines[w].Addr)
		switch {
		case d > bestDist:
			best, bestDist, tied = w, d, false
		case d == bestDist:
			tied = true
			if p.tie.RRPV(set, w) > p.tie.RRPV(set, best) {
				best = w
			}
		}
	}
	if tied {
		p.Ties++
	}
	return best
}
