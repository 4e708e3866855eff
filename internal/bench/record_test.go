package bench

import (
	"testing"

	"popt/internal/cache"
	"popt/internal/kernels"
)

// TestConservationInvariants checks that the counters of every level
// balance, for every kernel on every tiny graph, live and while recording
// under LRU: hits + misses = accesses at each level, each level below L1
// sees exactly the misses of the level above it, the recorded stream holds
// exactly the LLC's demand accesses, and (with no prefetcher) every LLC
// miss is one DRAM read. The batched L1 loop holds its counters in locals
// until a run ends; these identities catch a count it drops or doubles.
func TestConservationInvariants(t *testing.T) {
	c := TinyConfig()
	builders := append(kernels.All(), kernels.Extensions()...)
	for _, g := range c.Suite() {
		for _, k := range builders {
			live := RunWorkload(c, k.New(g), LRUSetup())
			rec, tr := RecordLLC(c, k.New(g), LRUSetup())
			for _, run := range []struct {
				mode string
				h    *cache.Hierarchy
			}{{"live", live.H}, {"record", rec.H}} {
				h := run.h
				name := k.Name + "/" + g.Name + "/" + run.mode
				for _, l := range []*cache.Level{h.L1, h.L2, h.LLC} {
					if s := l.Stats; s.Hits+s.Misses != s.Accesses {
						t.Errorf("%s: %s hits %d + misses %d != accesses %d", name, l.Name, s.Hits, s.Misses, s.Accesses)
					}
				}
				if h.L2.Stats.Accesses != h.L1.Stats.Misses {
					t.Errorf("%s: L2 accesses %d != L1 misses %d", name, h.L2.Stats.Accesses, h.L1.Stats.Misses)
				}
				if h.LLC.Stats.Accesses != h.L2.Stats.Misses {
					t.Errorf("%s: LLC accesses %d != L2 misses %d", name, h.LLC.Stats.Accesses, h.L2.Stats.Misses)
				}
				if h.LLC.Stats.Misses != h.DRAMReads {
					t.Errorf("%s: LLC misses %d != DRAM reads %d", name, h.LLC.Stats.Misses, h.DRAMReads)
				}
				if h.L1.Stats.Accesses == 0 {
					t.Errorf("%s: no accesses reached L1", name)
				}
			}
			if got := tr.Stats().Accesses; got != rec.H.LLC.Stats.Accesses {
				t.Errorf("%s/%s: recorded LLC accesses %d != LLC accesses %d", k.Name, g.Name, got, rec.H.LLC.Stats.Accesses)
			}
			if live.H.LLC.Stats != rec.H.LLC.Stats || live.Instructions != rec.Instructions {
				t.Errorf("%s/%s: recording changed the run: LLC %+v vs %+v", k.Name, g.Name, rec.H.LLC.Stats, live.H.LLC.Stats)
			}
		}
	}
}

// BenchmarkRecordLLC times the record path — kernel emit, the batched
// L1/L2 and the LLC encoder — on the tiny suite's PR and CC streams, one
// sub-benchmark per stream. Building the workload is outside the timer;
// ns/access divides the recording time by the L1 accesses it simulated.
func BenchmarkRecordLLC(b *testing.B) {
	c := TinyConfig()
	for _, k := range kernels.All()[:2] {
		for _, g := range c.Suite() {
			b.Run(k.Name+"/"+g.Name, func(b *testing.B) {
				var accesses uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := k.New(g)
					b.StartTimer()
					res, _ := RecordLLC(c, w, LRUSetup())
					accesses += res.H.L1.Stats.Accesses
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
			})
		}
	}
}
