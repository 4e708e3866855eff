package bench

import (
	"fmt"
	"strings"
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/kernels"
)

// fingerprint renders every counter a Result can report, so "byte
// identical" below means identical down to the last eviction.
func fingerprint(res Result) string {
	var sb strings.Builder
	h := res.H
	fmt.Fprintf(&sb, "policy=%s", res.Policy)
	for _, e := range []struct {
		name string
		l    *cache.Level
	}{{"l1", h.L1}, {"l2", h.L2}, {"llc", h.LLC}} {
		st := e.l.Stats
		fmt.Fprintf(&sb, " %s(a=%d,h=%d,m=%d,e=%d,wb=%d)", e.name,
			st.Accesses, st.Hits, st.Misses, st.Evictions, st.Writebacks)
	}
	fmt.Fprintf(&sb, " dram(r=%d,w=%d) instr=%d reserved=%d streamed=%d tie=%.6f",
		h.DRAMReads, h.DRAMWrites, res.Instructions, res.Reserved, res.Streamed, res.TieRate)
	return sb.String()
}

// TestReplayMatchesLiveAcrossZoo is the replay-equivalence golden: for
// every policy in the zoo (plus the paper's P-OPT/T-OPT variants), a
// replayed recorded LLC-visible stream must produce counters identical to
// a fresh live run — on a plain kernel (PR) and on a muting,
// frontier-driven one (Radii).
func TestReplayMatchesLiveAcrossZoo(t *testing.T) {
	c := TinyConfig()
	c.CheckPolicies = true
	setups := append(AllBaselineSetups(),
		TOPTSetup(),
		POPTSetup(core.InterIntra, 8, true),
		POPTSetup(core.InterOnly, 8, true),
		POPTSetup(core.SingleEpoch, 8, true),
	)
	builders := []kernels.Builder{
		{Name: "PR", New: kernels.NewPageRank},
		{Name: "Radii", New: kernels.NewRadii},
	}
	g := graph.Uniform(1<<10, 4<<10, c.Seed)
	for _, b := range builders {
		// One recording run per kernel; LRU is arbitrary (the stream is
		// policy-independent).
		recW := b.New(g)
		_, tr := RecordLLC(c, recW, LRUSetup())
		for _, s := range setups {
			t.Run(b.Name+"/"+s.Name, func(t *testing.T) {
				liveW := b.New(g)
				live := fingerprint(RunWorkload(c, liveW, s))
				if err := liveW.Check(); err != nil {
					t.Fatal(err)
				}
				if replayed := fingerprint(ReplayLLC(c, recW, tr, s)); live != replayed {
					t.Errorf("LLC replay diverged from live:\n live:   %s\n replay: %s", live, replayed)
				}
			})
		}
	}
}

// TestRunStreamPiggybacksRecording checks the sweep side: a sweepGrid
// cell with an artifact cache runs the kernel once per graph — one "live"
// phase, no record or replay — and every setup it follows in that pass
// reports counters identical to a live no-cache run.
func TestRunStreamPiggybacksRecording(t *testing.T) {
	c := TinyConfig().withArtifacts()
	var log phaseLog
	c.PhaseProgress = log.hook()
	plain := TinyConfig() // no cache, one setup per run
	g := graph.Uniform(1<<10, 4<<10, c.Seed)
	setups := []Setup{DRRIPSetup(), POPTSetup(core.InterIntra, 8, true), TOPTSetup()}
	got := sweepGrid(c, "test", []*graph.Graph{g}, setups)
	for i, s := range setups {
		if want := fingerprint(RunWorkload(plain, kernels.NewPageRank(g), s)); fingerprint(got[0][i]) != want {
			t.Errorf("%s: one-pass cell diverged from live:\n got:  %s\n want: %s", s.Name, fingerprint(got[0][i]), want)
		}
	}
	if n := log.get("live"); n != 1 {
		t.Errorf("grid ran %d live kernel passes over one graph, want 1", n)
	}
	if n, m := log.get("record"), log.get("replay"); n != 0 || m != 0 {
		t.Errorf("grid without a corpus ran %d record and %d replay phases, want none", n, m)
	}
}

// BenchmarkLiveVsReplay contrasts a live kernel execution against an LLC
// stream replay driving the same policy setup, and a cell's two ways of
// simulating four setups over one stream: a live LRU pass that fans the
// stream out to three followers, against recording it with LRU and
// replaying it into the three.
func BenchmarkLiveVsReplay(b *testing.B) {
	c := TinyConfig()
	g := graph.Uniform(1<<12, 4<<12, c.Seed)
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RunWorkload(c, kernels.NewPageRank(g), DRRIPSetup())
		}
	})
	recW := kernels.NewPageRank(g)
	_, tr := RecordLLC(c, recW, DRRIPSetup())
	b.Run("replay-llc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReplayLLC(c, recW, tr, DRRIPSetup())
		}
	})
	followers := []Setup{DRRIPSetup(), SHiPPCSetup(), HawkeyeSetup()}
	mk := func() *kernels.Workload { return kernels.NewPageRank(g) }
	b.Run("fanout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.runSetups(g, "PR", mk(), append([]Setup{LRUSetup()}, followers...)...)
		}
	})
	b.Run("record-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := mk()
			_, tr := RecordLLC(c, w, LRUSetup())
			for _, s := range followers {
				ReplayLLC(c, w, tr, s)
			}
		}
	})
}

// TestRunSetupsMatchesLive pins the one-pass cell against the live
// reference: every setup a cell follows — the baseline zoo, T-OPT and the
// three P-OPT encodings, on PR and on the frontier-driven Radii, checked
// against the Policy contract — must equal a fresh RunWorkload of the
// same setup, and so must a fig16-shaped cell whose followers each carry
// their own LLC geometry. A follower with another L1/L2 shape panics
// naming the cell.
func TestRunSetupsMatchesLive(t *testing.T) {
	g := graph.Uniform(1<<10, 4<<10, 42)
	c := TinyConfig()
	c.CheckPolicies = true
	setups := append(AllBaselineSetups(),
		TOPTSetup(),
		POPTSetup(core.InterIntra, 8, true),
		POPTSetup(core.InterOnly, 8, true),
		POPTSetup(core.SingleEpoch, 8, true),
	)
	for _, b := range []kernels.Builder{
		{Name: "PR", New: kernels.NewPageRank},
		{Name: "Radii", New: kernels.NewRadii},
	} {
		mk := func() *kernels.Workload { return b.New(g) }
		got := c.runSetups(g, b.Name, mk(), setups...)
		for i, s := range setups {
			if want := fingerprint(RunWorkload(c, mk(), s)); fingerprint(got[i]) != want {
				t.Errorf("%s/%s: runSetups diverged from live:\n got:  %s\n want: %s", b.Name, s.Name, fingerprint(got[i]), want)
			}
		}
	}

	mk := func() *kernels.Workload { return kernels.NewPageRank(g) }
	withLLC := func(size, ways int) Config {
		vc := c
		vc.Cache = func(llc func() cache.Policy) cache.Config {
			cfg := c.cacheConfig(llc)
			cfg.LLCSize, cfg.LLCWays = size, ways
			return cfg
		}
		return vc
	}
	runs := []cellRun{
		{withLLC(8<<10, 16), DRRIPSetup()},
		{withLLC(8<<10, 16), POPTSetup(core.InterIntra, 8, true)},
		{withLLC(32<<10, 16), DRRIPSetup()},
		{withLLC(16<<10, 8), POPTSetup(core.InterIntra, 8, true)},
		{withLLC(16<<10, 32), TOPTSetup()},
	}
	got := runCell(g, "PR", mk(), runs)
	for i, r := range runs {
		if want := fingerprint(RunWorkload(r.c, mk(), r.s)); fingerprint(got[i]) != want {
			t.Errorf("mixed LLCs, run %d (%s): diverged from live:\n got:  %s\n want: %s", i, r.s.Name, fingerprint(got[i]), want)
		}
	}

	bad := c
	bad.Cache = func(llc func() cache.Policy) cache.Config {
		cfg := c.cacheConfig(llc)
		cfg.L2Size *= 2
		return cfg
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, g.Name+"/PR") {
			t.Errorf("a follower with another L2 shape: panic %q, want one naming cell %s/PR", msg, g.Name)
		}
	}()
	runCell(g, "PR", mk(), []cellRun{{c, DRRIPSetup()}, {bad, LRUSetup()}})
}
