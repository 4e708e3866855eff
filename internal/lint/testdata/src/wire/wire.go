// Package wire is a miniature of the trace codecs for the wireformat
// analyzer's parity check, locked against testdata/wire.baseline. Stream
// "w" seeds the parity defects, and its clean opcodes use the walk's
// idioms: an opcode local assigned from constants, both PC nibble forms,
// and the 0x80 one-byte varint fold. The remaining functions seed the
// extraction and annotation defects.
package wire

var FormatVersions = map[string]byte{
	"w": 1,
}

const (
	wopA byte = iota + 1 // uvarint payload
	wopB                 // encoded as two varints, decoded as one
	wopC                 // encoded but never dispatched
	wopD                 // dispatched but never encoded
	wopE                 // PC nibble + varint delta
	wopF                 // wopE's write form, chosen by the same encoder
)

const (
	opMask   byte = 0x0f
	pcEscape byte = 15
	pcInline      = 13
)

type enc struct{ buf []byte }

// The varint primitives are stubs: the walk recognizes them by name.
func appendUvarint(buf []byte, x uint64) []byte { return buf }
func appendVarint(buf []byte, x int64) []byte   { return buf }
func uvarint(data []byte, i int) (uint64, int)  { return 0, i + 1 }
func varint(data []byte, i int) (int64, int)    { return 0, i + 1 }

// bad panics out of line, like the real codec's badOp.
func bad(op byte) {
	panic("wire: bad opcode")
}

//popt:codec w enc
func (e *enc) A(x uint64) {
	e.buf = append(e.buf, wopA)
	e.buf = appendUvarint(e.buf, x)
}

//popt:codec w enc
func (e *enc) B(a, b int64) {
	e.buf = append(e.buf, wopB)
	e.buf = appendVarint(e.buf, a)
	e.buf = appendVarint(e.buf, b)
}

//popt:codec w enc
func (e *enc) C() {
	e.buf = append(e.buf, wopC) // want `opcode wopC of stream "w" is encoded by C but never dispatched in decoder replay`
}

// E emits wopE or wopF from one opcode local, with either PC nibble form.
//
//popt:codec w enc
func (e *enc) E(pc uint16, d int64, write bool) {
	op := wopE
	if write {
		op = wopF
	}
	if pc <= pcInline {
		e.buf = append(e.buf, op|byte(pc+1)<<4)
	} else {
		e.buf = append(e.buf, op|pcEscape<<4)
		e.buf = appendUvarint(e.buf, uint64(pc))
	}
	e.buf = appendVarint(e.buf, d)
}

// Raw appends a byte the walk cannot tie to an opcode constant.
//
//popt:codec w enc
func (e *enc) Raw(b byte) {
	e.buf = append(e.buf, b) // want `cannot determine the opcode value of this buffer append`
}

// Loop hides its payload in a loop, which the walk refuses to model.
//
//popt:codec w enc
func (e *enc) Loop(xs []uint64) {
	for _, x := range xs { // want `codec walk does not model this statement`
		e.buf = append(e.buf, wopA)
		e.buf = appendUvarint(e.buf, x)
	}
}

//popt:codec w dec
func replay(data []byte) {
	i := 0
	for i < len(data) {
		b := data[i]
		i++
		op := b & opMask
		switch op { // want `opcode dispatch in replay does not handle wopC \(declared in the wopA opcode block\)`
		case wopA:
			if i >= len(data) {
				panic("wire: truncated") // a failure path, not a layout
			}
			_, i = uvarint(data, i)
		case wopB: // want `asymmetric codec for opcode wopB of stream "w": B encodes \[varint varint\] but replay decodes \[varint\]`
			_, i = varint(data, i)
		case wopD: // want `opcode wopD of stream "w" is dispatched in decoder replay but never encoded`
			_, i = uvarint(data, i)
		case wopE, wopF:
			if hi := b >> 4; hi == pcEscape {
				_, i = uvarint(data, i)
			}
			if i < len(data) && data[i] < 0x80 {
				i++
			} else {
				_, i = varint(data, i)
			}
		default:
			bad(op)
		}
	}
}

//popt:codec y dec
func decodeY(data []byte) {} // want `stream "y" has decoder annotations but no //popt:codec y enc function`

//popt:codec z encode // want `malformed codec annotation`
func z() {}
