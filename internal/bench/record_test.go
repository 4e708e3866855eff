package bench

import (
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/kernels"
	"popt/internal/mem"
	"popt/internal/trace"
)

// TestConservationInvariants checks that the counters of every level
// balance, for every kernel on every tiny graph: hits + misses = accesses
// at each level, each level below L1 sees exactly the misses of the level
// above it, and every DRAM read is an LLC miss or a prefetch fill. It
// checks LRU live and while recording (the recorded stream holds exactly
// the LLC's demand accesses, and recording changes nothing), and every run
// of a fan-out cell: the baseline zoo, T-OPT and P-OPT following one live
// pass under the checked Policy contract, once at the tiny LLC and once at
// an LLC that holds every line. There no policy ever evicts, so each run's
// LLC misses must equal the distinct lines of the cell's LLC-visible
// stream, which the test counts itself. The batched L1 loop and the
// fan-out's windows hold counts until a run ends; these identities catch a
// count either drops or doubles.
func TestConservationInvariants(t *testing.T) {
	c := TinyConfig()
	c.CheckPolicies = true
	big := c
	big.Cache = func(llc func() cache.Policy) cache.Config {
		cfg := c.cacheConfig(llc)
		cfg.LLCSize, cfg.LLCWays = 8<<20, 16
		return cfg
	}
	zoo := append(AllBaselineSetups(), TOPTSetup(), POPTSetup(core.InterIntra, 8, true))
	builders := append(kernels.All(), kernels.Extensions()...)
	for _, g := range c.Suite() {
		for _, k := range builders {
			name := k.Name + "/" + g.Name
			live := RunWorkload(c, k.New(g), LRUSetup())
			rec, tr := RecordLLC(c, k.New(g), LRUSetup())
			checkConservation(t, name+"/live", live)
			checkConservation(t, name+"/record", rec)
			if got := tr.Stats().Accesses; got != rec.H.LLC.Stats.Accesses {
				t.Errorf("%s: recorded LLC accesses %d != LLC accesses %d", name, got, rec.H.LLC.Stats.Accesses)
			}
			if live.H.LLC.Stats != rec.H.LLC.Stats || live.Instructions != rec.Instructions {
				t.Errorf("%s: recording changed the run: LLC %+v vs %+v", name, rec.H.LLC.Stats, live.H.LLC.Stats)
			}
			for _, r := range c.runSetups(g, k.Name, k.New(g), zoo...) {
				checkConservation(t, name+"/fanout/"+r.Policy, r)
			}
			lines := distinctLLCLines(t, c, k.New(g))
			for _, r := range big.runSetups(g, k.Name, k.New(g), zoo...) {
				checkConservation(t, name+"/fanout-big/"+r.Policy, r)
				llc := r.H.LLC
				if free := llc.Ways() - r.Reserved; lines.perSet(llc) > free {
					t.Fatalf("%s/%s: a set of the big LLC needs %d ways, only %d are free; grow the LLC", name, r.Policy, lines.perSet(llc), free)
				}
				if got, want := llc.Stats.Misses, uint64(len(lines)); got != want {
					t.Errorf("%s/%s: LLC misses %d with room for every line, want the stream's %d distinct lines", name, r.Policy, got, want)
				}
			}
		}
	}
}

// checkConservation checks one run's counter identities.
func checkConservation(t *testing.T, name string, r Result) {
	t.Helper()
	h := r.H
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
	if h.DRAMReads != h.LLC.Stats.Misses+h.PrefetchFills {
		t.Errorf("%s: DRAM reads %d != LLC misses %d + prefetch fills %d", name, h.DRAMReads, h.LLC.Stats.Misses, h.PrefetchFills)
	}
	if h.L1.Stats.Accesses == 0 {
		t.Errorf("%s: no accesses reached L1", name)
	}
}

// lineSet is the set of line addresses an LLC-visible stream demands.
type lineSet map[uint64]bool

func (ls lineSet) LLCAccess(acc mem.Access) { ls[acc.LineAddr()] = true }
func (ls lineSet) LLCWriteback(uint64)      {}

// perSet returns the most lines of the set that map to one set of l.
func (ls lineSet) perSet(l *cache.Level) int {
	n := map[int]int{}
	most := 0
	for la := range ls { //lint:ordered (a maximum)
		set := l.SetIndex(la)
		n[set]++
		most = max(most, n[set])
	}
	return most
}

// distinctLLCLines runs w's kernel through c's L1 and L2 with a tap on
// the LLC seat and returns the lines the LLC-visible stream demands. The
// stream does not depend on the LLC policy, so LRU stands in.
func distinctLLCLines(t *testing.T, c Config, w *kernels.Workload) lineSet {
	t.Helper()
	h := cache.NewHierarchy(c.cacheConfig(func() cache.Policy { return cache.NewLRU() }))
	lines := lineSet{}
	h.Tap = lines
	w.Run(kernels.NewSinkRunner(trace.NewSim(h, nil)))
	if len(lines) == 0 {
		t.Fatal("the LLC-visible stream demanded no lines")
	}
	return lines
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
