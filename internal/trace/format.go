package trace

import "fmt"

// Wire-format discipline (DESIGN.md §10). Every encoded stream begins
// with a fixed-width header — a two-byte magic naming the stream and a
// one-byte format version — so that bytes which outlive the process (the
// roadmap's persistent trace corpus) can be rejected instead of
// misdecoded when the layout evolves. The version constants below are the
// single source of truth: the encoders write them into the header, the
// replay paths and the validating decoders check them, and the poptlint
// wireformat analyzer pins the layout they version — any change to an
// opcode's payload op sequence or a header field fails
// `poptlint -run wireformat` until the stream's entry here is bumped and
// the checked-in fingerprint baseline is regenerated with
// `poptlint -run wireformat -update`.

// Format versions, one per wire stream. Bump a stream's constant whenever
// its encoded layout changes (opcodes, payload op order, header fields);
// the wireformat analyzer refuses fingerprint drift that is not
// accompanied by a bump.
const (
	// LLCFormatVersion versions the LLC-visible stream (llc.go).
	LLCFormatVersion byte = 1
	// ContainerFormatVersion versions the chunked on-disk container
	// (container.go): the frame markers, the chunk/stats/index/meta frame
	// payload layouts, and the fixed header/trailer. The event bytes
	// inside chunk payloads are versioned separately by the inner
	// stream's own entry, which rides in the container header.
	ContainerFormatVersion byte = 1
)

// FormatVersions is the stream-name -> current-version registry the
// wireformat analyzer cross-checks against the `//popt:codec <stream>`
// annotations. The keys are the stream names used in those annotations.
var FormatVersions = map[string]byte{
	"llc":       LLCFormatVersion,
	"container": ContainerFormatVersion,
}

// HeaderFields declares each stream's fixed-width header layout in wire
// order. The wireformat analyzer folds these lines into the stream
// fingerprint (so header changes need version bumps like opcode changes
// do), and TestHeaderLayoutMatchesDeclaration pins the declared widths
// against the real header sizes and offsets used by the encoders.
var HeaderFields = map[string][]string{
	"llc": {
		"magic:pl", "version:u8", "instructions:u64",
		"l1.accesses:u64", "l1.hits:u64", "l1.misses:u64", "l1.evictions:u64", "l1.writebacks:u64",
		"l2.accesses:u64", "l2.hits:u64", "l2.misses:u64", "l2.evictions:u64", "l2.writebacks:u64",
	},
	// The container's fixed-width bytes are split across the two ends of
	// the file: a 5-byte header up front (kind is 'l', naming the LLC
	// event stream inside; inner.version is that stream's FormatVersions
	// entry at record time) and a 20-byte trailer at EOF that locates the
	// footer frames (stats/index/meta) so readers can seek without
	// scanning. Everything between is length-prefixed frames, fingerprinted
	// through the //popt:codec container annotations.
	"container": {
		"magic:pc", "version:u8", "kind:u8", "inner.version:u8",
		"trailer.footer_off:u64", "trailer.footer_len:u64",
		"trailer.magic:pc", "trailer.version:u8", "trailer.kind:u8",
	},
}

// Stream magics: 'p' plus one stream letter.
const (
	magic0          byte = 'p'
	magicLLC1       byte = 'l'
	magicContainer1 byte = 'c'
)

// KindLLC is the container kind byte: the inner event stream a container
// holds. It reuses the LLC stream's magic letter so hexdumps read the same
// way. It is the only kind; readers reject any other.
const KindLLC byte = magicLLC1

// llcHeaderLen is the LLC-stream header size: magic (2) + version (1) +
// instructions (8) + two cache.Stats blocks of five u64 counters each.
// The totals are fixed-width (not varints) so the encoder can reserve the
// space up front and fill it at finalize time without copying the event
// buffer.
const llcHeaderLen = 3 + 8 + 2*5*8

// containerHeaderLen is the container header size: magic (2) + container
// version (1) + kind (1) + inner stream version (1).
const containerHeaderLen = 5

// containerTrailerLen is the fixed trailer at EOF: footer offset (8) +
// footer length (8) + magic echo (2) + version (1) + kind (1). Readers
// seek here first, so it is fixed-width and last.
const containerTrailerLen = 20

// badLLCHeader panics on an LLC-stream header mismatch. Out of line so
// the replay hot loop stays escape-free, like badOp.
//
//go:noinline
func badLLCHeader(m0, m1, v byte) {
	panic(fmt.Sprintf("trace: bad LLC stream header % x (want magic %c%c version %d); the flat form is only built in-process, so this is an encoder bug",
		[]byte{m0, m1, v}, magic0, magicLLC1, LLCFormatVersion))
}
