// Package wiremod seeds one violation per wireformat check for the
// `-run wireformat` exit-code tests: stream "pair" has an asymmetric
// codec arm (parity), stream "silent" has a dispatch switch that misses
// an opcode and whose default clause swallows corrupt opcodes
// (dispatch), and stream "drift" changed its payload layout without
// bumping FormatVersions (fingerprint lock, against the checked-in
// wireformat.baseline next to this file).
package wiremod

var FormatVersions = map[string]byte{
	"pair":   1,
	"silent": 1,
	"drift":  1,
}

const (
	aopA byte = iota + 1
	aopB
)

const (
	bopA byte = iota + 1
	bopB
	bopC // declared but never dispatched: the uncovered-opcode seed
)

const (
	copA byte = iota + 1
)

type enc struct{ buf []byte }

// The varint primitives are stubs: the walk recognizes them by name.
func appendUvarint(buf []byte, x uint64) []byte { return buf }
func appendVarint(buf []byte, x int64) []byte   { return buf }
func uvarint(data []byte, i int) (uint64, int)  { return 0, i + 1 }
func varint(data []byte, i int) (int64, int)    { return 0, i + 1 }

// PairA and PairB encode stream "pair"; the decoder reads aopB's payload
// as one varint where PairB wrote two.
//
//popt:codec pair enc
func (e *enc) PairA(x uint64) {
	e.buf = append(e.buf, aopA)
	e.buf = appendUvarint(e.buf, x)
}

//popt:codec pair enc
func (e *enc) PairB(a, b int64) {
	e.buf = append(e.buf, aopB)
	e.buf = appendVarint(e.buf, a)
	e.buf = appendVarint(e.buf, b)
}

//popt:codec pair dec
func replayPair(data []byte) {
	i := 0
	for i < len(data) {
		op := data[i]
		i++
		switch op {
		case aopA:
			_, i = uvarint(data, i)
		case aopB:
			_, i = varint(data, i)
		default:
			panic("wiremod: bad pair opcode")
		}
	}
}

// Silent's codec arms match, but the dispatch misses the declared bopC
// and its default swallows unknown opcodes instead of failing loudly.
//
//popt:codec silent enc
func (e *enc) Silent(x uint64, d int64) {
	e.buf = append(e.buf, bopA)
	e.buf = appendUvarint(e.buf, x)
	e.buf = append(e.buf, bopB)
	e.buf = appendVarint(e.buf, d)
}

//popt:codec silent dec
func replaySilent(data []byte) {
	i := 0
	for i < len(data) {
		op := data[i]
		i++
		switch op {
		case bopA:
			_, i = uvarint(data, i)
		case bopB:
			_, i = varint(data, i)
		default:
			_ = op
		}
	}
}

// Drift's codec arms match each other, but the payload changed from the
// uvarint the baseline records to a varint while FormatVersions["drift"]
// stayed at 1.
//
//popt:codec drift enc
func (e *enc) Drift(d int64) {
	e.buf = append(e.buf, copA)
	e.buf = appendVarint(e.buf, d)
}

//popt:codec drift dec
func replayDrift(data []byte) {
	i := 0
	for i < len(data) {
		op := data[i]
		i++
		switch op {
		case copA:
			_, i = varint(data, i)
		default:
			panic("wiremod: bad drift opcode")
		}
	}
}
