package trace

import (
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/mem"
)

// tinyConfig is a minimal hierarchy for decode/replay parity tests; the
// shape is irrelevant, only that replay runs a real LLC datapath.
func tinyConfig() cache.Config {
	return cache.Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 2 << 10, L2Ways: 2,
		LLCSize: 4 << 10, LLCWays: 4,
		LLCPolicy: func() cache.Policy { return cache.NewLRU() },
	}
}

// TestDecodeLLCTraceRoundTrip checks a hand-built stream through both
// decoders: scanLLCFrom, the validating scan untrusted chunk payloads
// pass through, recomputes the encoder's statistics from the headerless
// body, and the same events recorded into a container carry the header
// totals back out and replay exactly like the flat stream.
func TestDecodeLLCTraceRoundTrip(t *testing.T) {
	feed := func(enc *LLCEncoder) {
		enc.LLCAccess(mem.Access{Addr: 1 << 20, PC: 3})
		enc.LLCAccess(mem.Access{Addr: 1<<20 + 64, PC: 3, Write: true})
		enc.LLCAccess(mem.Access{Addr: 9999, PC: 200}) // escaped PC
		enc.LLCWriteback(1 << 14)
		enc.SetVertex(17)
		enc.StartIteration()
		enc.SetTile(5)
	}
	tr := flatTrace(feed)
	body := tr.Bytes()[llcHeaderLen:]
	if got, err := scanLLCFrom(body, 0); err != nil || got != tr.Stats() {
		t.Fatalf("scanLLCFrom on a real body: stats %+v, err %v; want %+v", got, err, tr.Stats())
	}
	if got, err := scanLLCFrom(nil, 0); err != nil || got != (LLCStats{}) {
		t.Fatalf("scanLLCFrom on an empty body: stats %+v, err %v", got, err)
	}

	r, err := OpenContainerBytes(writeContainer(t, testMeta(), 0, feed))
	if err != nil {
		t.Fatalf("OpenContainerBytes: %v", err)
	}
	instructions, l1, l2, stats := r.LLCTotals()
	if instructions != testInstructions || l1 != testL1 || l2 != testL2 {
		t.Fatalf("header totals did not round trip: instructions=%d l1=%+v l2=%+v", instructions, l1, l2)
	}
	if stats != tr.Stats() {
		t.Fatalf("container stats %+v != encoder stats %+v", stats, tr.Stats())
	}

	flat := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	tr.Replay(flat)
	chunked := NewSim(cache.NewHierarchy(tinyConfig()), nil)
	if err := r.ReplayLLC(chunked); err != nil {
		t.Fatalf("ReplayLLC: %v", err)
	}
	if countersOf(flat) != countersOf(chunked) {
		t.Fatalf("container replay %+v differs from flat replay %+v", countersOf(chunked), countersOf(flat))
	}
}

// TestDecodeLLCTraceRejectsCorruptInput drives the error paths: every
// corruption of headerless event bytes, the form untrusted chunk payloads
// take, comes back from scanLLCFrom as an error naming the problem, never
// a panic; an unknown opcode reaching the hot decoder, and a bad
// flat-stream header, which only an encoder bug can produce, panic naming
// the opcode or the header instead of misdecoding.
func TestDecodeLLCTraceRejectsCorruptInput(t *testing.T) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1 << 20, PC: 3})
	enc.SetVertex(17)
	valid := enc.Trace(1, cache.Stats{}, cache.Stats{}).Bytes()
	body := valid[llcHeaderLen:]
	unknownOp := append(append([]byte{}, body...), 0x07)
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown opcode", unknownOp, "opcode 7"},
		{"missing payload", []byte{lopWB}, "truncated varint"},
		{"truncated escaped pc", []byte{lopAccessW | pcEscape<<4}, "truncated varint"},
		{"dangling continuation", append(append([]byte{}, body...), lopSetTile, 0x80), "truncated varint"},
	}
	for _, tc := range cases {
		if _, err := scanLLCFrom(tc.data, 0); err == nil {
			t.Errorf("%s: scanLLCFrom accepted corrupt input", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "opcode 7") {
				t.Errorf("unknown opcode: llcDecoder panic %q does not name opcode 7", msg)
			}
		}()
		d := llcDecoder{data: unknownOp}
		var probes [4]cache.Probe
		var marks [4]Mark
		d.decode(probes[:], marks[:])
	}()

	header := valid[:llcHeaderLen]
	badVersion := append([]byte{}, header...)
	badVersion[2]++
	headers := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"header only magic", []byte{magic0, magicLLC1, LLCFormatVersion}},
		{"bad magic", append([]byte{'q', 'q'}, header[2:]...)},
		{"future version", badVersion},
	}
	for _, tc := range headers {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: checkLLCHeader accepted a bad header", tc.name)
				} else if msg, _ := r.(string); !strings.Contains(msg, "header") {
					t.Errorf("%s: panic %v does not mention the header", tc.name, r)
				}
			}()
			checkLLCHeader(tc.data)
		}()
	}
	if got := checkLLCHeader(valid); got != llcHeaderLen {
		t.Fatalf("checkLLCHeader on a valid stream returned %d, want %d", got, llcHeaderLen)
	}
}

// TestFormatVersionsRideTheHeaders pins the registry-to-wire link: the
// byte the encoder writes at the version offset is the stream's
// FormatVersions entry, and replaying a mismatched version fails loudly
// rather than misdecoding.
func TestFormatVersionsRideTheHeaders(t *testing.T) {
	llc := NewLLCEncoder().Trace(0, cache.Stats{}, cache.Stats{}).Bytes()
	if got := llc[2]; got != FormatVersions["llc"] {
		t.Fatalf("llc header carries version %d, FormatVersions says %d", got, FormatVersions["llc"])
	}

	mutated := append([]byte{}, llc...)
	mutated[2]++
	// Replaying under the wrong version would silently misdecode every
	// delta that follows.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Replay decoded a stream with a mismatched format version")
		}
		if !strings.Contains(r.(string), "header") {
			t.Fatalf("Replay panic %q does not mention the header", r)
		}
	}()
	bad := &LLCTrace{data: mutated}
	bad.Replay(NewSim(cache.NewHierarchy(tinyConfig()), nil))
}

// TestHeaderLayoutMatchesDeclaration pins the declarative HeaderFields
// layout (what wireformat fingerprints) against the real header sizes
// the encoders reserve: a field added to one side without the other is a
// test failure here and a fingerprint drift there.
func TestHeaderLayoutMatchesDeclaration(t *testing.T) {
	width := func(fields []string) int {
		total := 0
		for _, f := range fields {
			name, kind, ok := strings.Cut(f, ":")
			if !ok {
				t.Fatalf("header field %q is not name:kind", f)
			}
			switch {
			case name == "magic" || strings.HasSuffix(name, ".magic"):
				total += len(kind)
			case kind == "u8":
				total++
			case kind == "u64":
				total += 8
			default:
				t.Fatalf("header field %q has unknown kind", f)
			}
		}
		return total
	}
	if got := width(HeaderFields["llc"]); got != llcHeaderLen {
		t.Errorf("declared llc header is %d bytes, encoder reserves %d", got, llcHeaderLen)
	}
	// The container's fixed-width bytes split across the two file ends:
	// fields prefixed "trailer." are the trailer, the rest the header.
	var head, tail []string
	for _, f := range HeaderFields["container"] {
		if strings.HasPrefix(f, "trailer.") {
			tail = append(tail, f)
		} else {
			head = append(head, f)
		}
	}
	if got := width(head); got != containerHeaderLen {
		t.Errorf("declared container header is %d bytes, writer emits %d", got, containerHeaderLen)
	}
	if got := width(tail); got != containerTrailerLen {
		t.Errorf("declared container trailer is %d bytes, writer emits %d", got, containerTrailerLen)
	}
	for _, stream := range []string{"llc", "container"} {
		fields := HeaderFields[stream]
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "magic:p") || fields[1] != "version:u8" {
			t.Errorf("%s header must open with the magic and version fields, got %v", stream, fields)
		}
		if _, ok := FormatVersions[stream]; !ok {
			t.Errorf("stream %q has header fields but no FormatVersions entry", stream)
		}
	}
}
