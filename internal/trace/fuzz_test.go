package trace

import (
	"bytes"
	"testing"

	"popt/internal/cache"
	"popt/internal/mem"
)

// The fuzz targets below hold the validating decoders to their contract:
// on arbitrary bytes they either return an error or accept bytes whose
// replay through the panic-based hot decoder runs to completion. Seeds are
// real encoded streams plus hand-built corruptions near the interesting
// boundaries (unknown opcode, dangling varint), so mutation starts from
// well-formed structure instead of noise.

// FuzzDecodeLLCTrace fuzzes headerless LLC event bytes, the form
// untrusted chunk payloads take, straight into the validator with no CRC
// in front: whatever scanLLCFrom accepts must decode through the shared
// decoder in small windows and feed a hooked sim without panicking.
func FuzzDecodeLLCTrace(f *testing.F) {
	enc := NewLLCEncoder()
	enc.LLCAccess(mem.Access{Addr: 1 << 22, PC: 1})
	enc.LLCAccess(mem.Access{Addr: 1<<22 + 128, PC: 4000, Write: true}) // escaped PC
	enc.LLCWriteback(1 << 16)
	enc.SetVertex(9)
	enc.StartIteration()
	enc.SetTile(2)
	valid := enc.Trace(0, cache.Stats{}, cache.Stats{}).Bytes()[llcHeaderLen:]
	f.Add(valid)
	f.Add([]byte{})
	f.Add(append(append([]byte{}, valid...), 0x07))
	f.Add(append(append([]byte{}, valid...), lopWB, 0xff))
	f.Add([]byte{lopAccessW | pcEscape<<4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := scanLLCFrom(data, 0); err != nil {
			return
		}
		sim := NewSim(cache.NewHierarchy(tinyConfig()), &countingHook{})
		d := llcDecoder{data: data}
		var probes [3]cache.Probe
		var marks [2]Mark
		for d.i < len(data) {
			sim.feed(d.decode(probes[:], marks[:]))
		}
	})
}

// FuzzReadContainer holds the container reader to the decoder contract on
// arbitrary bytes: OpenContainer, Verify, and ReplayLLC must return errors
// on damage — truncated footers, corrupt CRCs, index/frame disagreements,
// foreign kinds — and must never panic. Seeds are real containers (small
// chunks, so mutation hits frame machinery, not just event bytes) plus
// targeted corruptions of the fixed header and trailer.
func FuzzReadContainer(f *testing.F) {
	meta := Meta{Workload: "fuzz", Schedule: "pull", Scale: "tiny", Seed: 1}

	events := func(enc *LLCEncoder) {
		enc.LLCAccess(mem.Access{Addr: 1 << 22, PC: 1})
		enc.LLCAccess(mem.Access{Addr: 1<<22 + 128, PC: 4000, Write: true})
		enc.LLCWriteback(1 << 16)
		enc.SetVertex(9)
		enc.StartIteration()
		enc.SetTile(2)
	}
	lbuf := writeContainer(f, meta, 16, events)
	one := writeContainer(f, meta, 0, events) // the same stream in a single chunk

	f.Add(lbuf)
	f.Add(one)
	f.Add([]byte{})
	f.Add([]byte{magic0, magicContainer1, ContainerFormatVersion, KindLLC, LLCFormatVersion})
	f.Add(lbuf[:len(lbuf)-containerTrailerLen+3]) // truncated trailer
	flip := func(src []byte, at int) []byte {
		m := append([]byte{}, src...)
		m[at] ^= 0xff
		return m
	}
	f.Add(flip(lbuf, len(lbuf)-containerTrailerLen)) // footer offset
	f.Add(flip(lbuf, containerHeaderLen+2))          // chunk frame header
	f.Add(flip(lbuf, len(lbuf)/2))                   // mid-stream
	// A container of another inner stream kind, header and trailer alike.
	foreign := append([]byte{}, lbuf...)
	foreign[3], foreign[len(foreign)-1] = 't', 't'
	f.Add(foreign)
	setProcs(f, 2) // replay through the parallel path

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenContainer(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Whatever Open accepted must verify and replay without panicking;
		// errors are fine (chunk damage is caught lazily).
		_ = r.Verify()
		sim := NewSim(cache.NewHierarchy(tinyConfig()), nil)
		_ = r.ReplayLLC(sim)
	})
}
