// Package wirelock is a miniature of the trace codecs for the wireformat
// analyzer's fingerprint lock, checked against testdata/wirelock.baseline.
// Stream "fresh" matches its baseline entry, header fields included;
// "drift" changed layout without a version bump; "stale" bumped its
// version without regenerating the baseline; "x" is annotated but missing
// from FormatVersions; and "retired" is in the baseline but no longer
// declared (reported at the registry's first entry).
package wirelock

var FormatVersions = map[string]byte{
	"fresh": 1, // want `wire-format baseline records stream "retired", which FormatVersions no longer declares`
	"drift": 1, // want `wire fingerprint of stream "drift" changed but FormatVersions\["drift"\] is still 1`
	"stale": 2, // want `wire-format baseline for stream "stale" is stale \(baseline version 1, package declares 2\)`
}

var HeaderFields = map[string][]string{
	"fresh": {"magic:pf", "version:u8"},
}

const (
	fopA byte = iota + 1
)

type enc struct{ buf []byte }

// The varint primitives are stubs: the walk recognizes them by name.
func appendUvarint(buf []byte, x uint64) []byte { return buf }
func appendVarint(buf []byte, x int64) []byte   { return buf }
func uvarint(data []byte, i int) (uint64, int)  { return 0, i + 1 }

// Fresh matches its baseline entry exactly.
//
//popt:codec fresh enc
func (e *enc) Fresh(x uint64) {
	e.buf = append(e.buf, fopA)
	e.buf = appendUvarint(e.buf, x)
}

//popt:codec fresh dec
func decodeFresh(data []byte) {
	for i := 0; i < len(data); {
		op := data[i]
		i++
		switch op {
		case fopA:
			_, i = uvarint(data, i)
		default:
			panic("wirelock: bad opcode")
		}
	}
}

// Drift changed fopA's payload from the uvarint the baseline records to
// a varint without bumping FormatVersions["drift"].
//
//popt:codec drift enc
func (e *enc) Drift(d int64) { // want `stream "drift" has encoder annotations but no //popt:codec drift dec function`
	e.buf = append(e.buf, fopA)
	e.buf = appendVarint(e.buf, d)
}

// Stale bumped FormatVersions["stale"] to 2; the baseline still records 1.
//
//popt:codec stale enc
func (e *enc) Stale(x uint64) { // want `stream "stale" has encoder annotations but no //popt:codec stale dec function`
	e.buf = append(e.buf, fopA)
	e.buf = appendUvarint(e.buf, x)
}

//popt:codec x enc
func (e *enc) X() { // want `stream "x" has encoder annotations but no //popt:codec x dec function` `stream "x" has //popt:codec annotations but no FormatVersions entry`
	e.buf = append(e.buf, fopA)
}
