package analysis

import (
	"popt/internal/kernels"
	"popt/internal/trace"
)

// captureSink records access addresses and ignores every other event.
type captureSink struct {
	addrs []uint64
	// keep, when non-nil, restricts recording to matching addresses.
	keep func(addr uint64) bool
}

// Consume implements trace.Sink.
func (s *captureSink) Consume(b trace.Batch) {
	for _, acc := range b.Accesses {
		if s.keep == nil || s.keep(acc.Addr) {
			s.addrs = append(s.addrs, acc.Addr)
		}
	}
}

// Capture runs a workload and records its memory reference trace without
// simulating a cache: the runner emits into a recording sink and no
// hierarchy exists at all. onlyIrregular restricts the trace to the
// workload's irregular arrays — the stream whose locality P-OPT manages.
func Capture(w *kernels.Workload, onlyIrregular bool) []uint64 {
	s := &captureSink{}
	if onlyIrregular {
		s.keep = func(addr uint64) bool {
			for _, a := range w.Irregular {
				if a.Contains(addr) {
					return true
				}
			}
			return false
		}
	}
	w.Run(kernels.NewSinkRunner(s))
	return s.addrs
}
