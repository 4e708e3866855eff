package core

import (
	"popt/internal/cache"
	"popt/internal/graph"
	"popt/internal/mem"
)

// Tiling support (Fig. 13): with CSR-segmenting, a pull execution runs
// once per source-range tile, so P-OPT only needs Rereference Matrix
// columns for the tile's slice of the irregular array — fewer reserved
// ways — while each tile's smaller address range also improves raw
// locality. TilePolicy holds one P-OPT instance per tile and switches
// between them as the kernel advances.

// SubArray returns a view of the irregular array restricted to vertices
// [lo, hi): the address sub-range a tiled P-OPT manages.
func SubArray(a *mem.Array, lo, hi int) *mem.Array {
	return &mem.Array{
		Name:      a.Name,
		Base:      a.Addr(lo),
		ElemBits:  a.ElemBits,
		Len:       hi - lo,
		Irregular: true,
	}
}

// TilePolicy is a P-OPT per tile behind one cache.Policy facade.
type TilePolicy struct {
	tiles  []*POPT
	active int
	g      cache.Geometry
}

// NewTiledPOPT builds per-tile P-OPT instances for a segmented pull
// execution over the irregular array irreg: tile i manages the sub-range
// [SrcLo, SrcHi) with a matrix built from the tile's transpose slice.
func NewTiledPOPT(seg *graph.Segmented, irreg *mem.Array, kind Kind, bits uint) *TilePolicy {
	n := seg.G.NumVertices()
	tp := &TilePolicy{tiles: make([]*POPT, len(seg.Tiles))}
	for i, t := range seg.Tiles {
		sub := SubArray(irreg, int(t.SrcLo), int(t.SrcHi))
		adj := seg.G.Out.Sub(t.SrcLo, t.SrcHi)
		m := BuildMatrix(&adj, n, sub.ElemsPerLine(), kind, bits)
		tp.tiles[i] = NewPOPT(Stream{Arr: sub, M: m})
	}
	return tp
}

// SetTile switches the active tile; kernels call it at tile boundaries.
func (tp *TilePolicy) SetTile(i int) { tp.active = i }

// ReservedWays returns the ways needed for the largest tile's columns
// (tiles run one at a time, so the reservation is the max, not the sum).
func (tp *TilePolicy) ReservedWays(sets int) int {
	max := 0
	for _, t := range tp.tiles {
		if w := t.ReservedWays(sets); w > max {
			max = w
		}
	}
	return max
}

// BytesStreamed totals Rereference Matrix streaming traffic over tiles.
func (tp *TilePolicy) BytesStreamed() uint64 {
	var total uint64
	for _, t := range tp.tiles {
		total += t.BytesStreamed
	}
	return total
}

// Name implements cache.Policy.
func (tp *TilePolicy) Name() string { return "P-OPT-tiled" }

// Bind implements cache.Policy.
func (tp *TilePolicy) Bind(g cache.Geometry) {
	tp.g = g
	for _, t := range tp.tiles {
		t.Bind(g)
	}
}

// OnHit implements cache.Policy.
func (tp *TilePolicy) OnHit(set, way int, acc mem.Access) { tp.tiles[tp.active].OnHit(set, way, acc) }

// OnFill implements cache.Policy.
func (tp *TilePolicy) OnFill(set, way int, acc mem.Access) {
	tp.tiles[tp.active].OnFill(set, way, acc)
}

// OnEvict implements cache.Policy.
func (tp *TilePolicy) OnEvict(set, way int) { tp.tiles[tp.active].OnEvict(set, way) }

// Victim implements cache.Policy.
func (tp *TilePolicy) Victim(set int, tags []uint64, acc mem.Access) int {
	return tp.tiles[tp.active].Victim(set, tags, acc)
}

// UpdateIndex implements VertexIndexed.
func (tp *TilePolicy) UpdateIndex(v graph.V) { tp.tiles[tp.active].UpdateIndex(v) }

// ResetEpoch restarts the active tile's epoch tracking.
func (tp *TilePolicy) ResetEpoch() { tp.tiles[tp.active].ResetEpoch() }
