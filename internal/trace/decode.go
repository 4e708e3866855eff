package trace

import "fmt"

// This file is the untrusted-input half of the wire format. The shared
// hot decoder (llcDecoder in llc.go) assumes bytes this process's encoder
// produced and panics on corruption (badOp / badEOF / badLLCHeader), which
// is the right contract for in-memory streams but not for bytes read back
// off disk. Untrusted LLC bytes only ever arrive as container chunk
// payloads, and the container reader runs scanLLCFrom over each one —
// every opcode, every varint boundary — before the hot decoder touches it.

// Bytes returns the encoded LLC stream, header included. The slice
// aliases the trace's storage.
func (t *LLCTrace) Bytes() []byte { return t.data }

// scanLLCFrom validates LLC-stream event bytes starting at i (a headerless
// chunk payload) and recomputes the statistics the encoder collected. The
// opcode dispatch mirrors llcDecoder.decode arm for arm; the wireformat
// analyzer holds both decoders to the encoder's opcode payloads.
//
//popt:codec llc dec
func scanLLCFrom(data []byte, i int) (LLCStats, error) {
	var stats LLCStats
	for i < len(data) {
		b := data[i]
		at := i
		i++
		op := b & opMask
		var err error
		switch op {
		case lopAccessR, lopAccessW:
			if hi := b >> 4; hi == pcEscape {
				if _, i, err = uvarintChecked(data, i); err != nil {
					return LLCStats{}, err
				}
			}
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.Accesses++
			if op == lopAccessW {
				stats.Writes++
			}
		case lopWB:
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.Writebacks++
		case lopSetVertex:
			if _, i, err = varintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.VertexUpdates++
		case lopStartIteration:
			stats.Iterations++
		case lopSetTile:
			if _, i, err = uvarintChecked(data, i); err != nil {
				return LLCStats{}, err
			}
			stats.TileSwitches++
		default:
			return LLCStats{}, fmt.Errorf("trace: corrupt llc stream: opcode %d at byte %d", op, at)
		}
	}
	return stats, nil
}

// uvarintChecked decodes a LEB128 varint at data[i:], returning an error
// (instead of uvarint's panic) when the varint runs off the buffer.
func uvarintChecked(data []byte, i int) (uint64, int, error) {
	var x uint64
	var shift uint
	for i < len(data) {
		b := data[i]
		i++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return x, i, nil
		}
		shift += 7
	}
	return 0, i, fmt.Errorf("trace: corrupt stream: truncated varint at byte %d", i)
}

// varintChecked decodes a zigzag varint with error reporting.
func varintChecked(data []byte, i int) (int64, int, error) {
	ux, n, err := uvarintChecked(data, i)
	return int64(ux>>1) ^ -int64(ux&1), n, err
}
