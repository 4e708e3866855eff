// Package wireop is a miniature of the trace codecs for the wireformat
// analyzer's dispatch check, locked against testdata/wireop.baseline.
// Stream "v" seeds the dispatch-coverage and dispatch-loudness defects
// beside a clean error-returning decoder.
package wireop

import "errors"

var FormatVersions = map[string]byte{
	"v": 1,
}

const (
	vopA byte = iota + 1
	vopB
)

var errBad = errors.New("wireop: bad opcode")

type enc struct{ buf []byte }

// The varint primitives are stubs: the walk recognizes them by name.
func appendUvarint(buf []byte, x uint64) []byte              { return buf }
func appendVarint(buf []byte, x int64) []byte                { return buf }
func uvarint(data []byte, i int) (uint64, int)               { return 0, i + 1 }
func varint(data []byte, i int) (int64, int)                 { return 0, i + 1 }
func uvarintChecked(data []byte, i int) (uint64, int, error) { return 0, i + 1, nil }
func varintChecked(data []byte, i int) (int64, int, error)   { return 0, i + 1, nil }

//popt:codec v enc
func (e *enc) V(x uint64, d int64) {
	e.buf = append(e.buf, vopA)
	e.buf = appendUvarint(e.buf, x)
	e.buf = append(e.buf, vopB) // want `opcode vopB of stream "v" is encoded by V but never dispatched in decoder silentV`
	e.buf = appendVarint(e.buf, d)
}

// scanV is clean: its error returns are failure paths, not layouts.
//
//popt:codec v dec
func scanV(data []byte) error {
	for i := 0; i < len(data); {
		op := data[i]
		i++
		var err error
		switch op {
		case vopA:
			if _, i, err = uvarintChecked(data, i); err != nil {
				return err
			}
		case vopB:
			if _, i, err = varintChecked(data, i); err != nil {
				return err
			}
		default:
			return errBad
		}
	}
	return nil
}

//popt:codec v dec
func silentV(data []byte) error {
	for i := 0; i < len(data); {
		op := data[i]
		i++
		switch op { // want `opcode dispatch in silentV does not handle vopB`
		case vopA:
			_, i = uvarint(data, i)
		default: // want `default clause of the opcode dispatch in silentV is silent`
			return nil
		}
	}
	return nil
}

//popt:codec v dec
func noDefaultV(data []byte) {
	for i := 0; i < len(data); {
		op := data[i]
		i++
		switch op { // want `opcode dispatch in noDefaultV has no default clause`
		case vopA:
			_, i = uvarint(data, i)
		case vopB:
			_, i = varint(data, i)
		}
	}
}

//popt:codec v dec
func flatV(data []byte) {} // want `decoder flatV of stream "v" has no opcode dispatch switch`
