package bench

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/corpus"
	"popt/internal/graph"
	"popt/internal/kernels"
)

// phaseLog collects PhaseEvents from concurrent sweep workers.
type phaseLog struct {
	mu     sync.Mutex
	counts map[string]int // phase name -> events
	errs   []string       // "phase: error" for every event carrying one
}

func (p *phaseLog) hook() func(PhaseEvent) {
	p.counts = make(map[string]int)
	return func(e PhaseEvent) {
		p.mu.Lock()
		p.counts[e.Phase]++
		if e.Err != nil {
			p.errs = append(p.errs, e.Phase+": "+e.Err.Error())
		}
		p.mu.Unlock()
	}
}

func (p *phaseLog) get(phase string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[phase]
}

// TestCorpusSweepMatchesInMemory is the acceptance contract for the
// persistent corpus: a sweep with -corpus produces byte-identical reports
// to the in-memory path, cold (recording through the chunked container
// encoder) and warm (replaying a corpus another process wrote). The cold
// run must be one record pass per cell, its followers fed by the fan-out
// rather than replaying the new entry; the warm run must skip every
// record phase — the whole point of persisting streams. Fig2 exercises
// sweepGrid, one runSetups cell per suite graph; transitively this is
// golden-pinned, because the in-memory Fig2 CSV is itself checked against
// the sweep determinism goldens.
func TestCorpusSweepMatchesInMemory(t *testing.T) {
	base := TinyConfig()
	want := Fig2(base).CSV()
	dir := t.TempDir()

	// Cold: empty corpus, every stream records to disk.
	s1, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	cold := base
	cold.Corpus = s1
	var coldLog phaseLog
	cold.PhaseProgress = coldLog.hook()
	if got := Fig2(cold).CSV(); got != want {
		t.Errorf("cold-corpus Fig2 diverges from in-memory:\n--- in-memory\n%s--- corpus\n%s", want, got)
	}
	if n, m := coldLog.get("record"), coldLog.get("replay"); n != len(base.Suite()) || m != 0 {
		t.Errorf("cold-corpus sweep ran %d record and %d replay phase(s), want one record per suite graph (%d) and no replay", n, m, len(base.Suite()))
	}

	// Warm: a second store over the same directory stands in for a second
	// process. Byte-identical report, zero record phases, only replays.
	s2, err := corpus.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	warm := base
	warm.Corpus = s2
	var warmLog phaseLog
	warm.PhaseProgress = warmLog.hook()
	if got := Fig2(warm).CSV(); got != want {
		t.Errorf("warm-corpus Fig2 diverges from in-memory:\n--- in-memory\n%s--- corpus\n%s", want, got)
	}
	if n := warmLog.get("record"); n != 0 {
		t.Errorf("warm-corpus sweep ran %d record phase(s); a warm corpus must only replay", n)
	}
	if warmLog.get("replay") == 0 {
		t.Error("warm-corpus sweep emitted no replay phases")
	}

	// The corpus holds one entry per suite graph (stream "PR"), all
	// verifiable.
	items, err := s2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(base.Suite()) {
		t.Errorf("corpus holds %d entries after Fig2, want %d", len(items), len(base.Suite()))
	}
	for _, it := range items {
		if it.Err != nil {
			t.Errorf("corpus entry %s unreadable: %v", it.File, it.Err)
		}
		if it.Key.Schedule != "PR" || it.Key.Scale != base.Scale.String() {
			t.Errorf("corpus entry %s has unexpected key %+v", it.File, it.Key)
		}
	}
}

// TestCorpusRunSetupsMatchesInMemory covers the runSetups shape (per-cell
// streams with cell-private workloads, Fig11's pattern) the same way:
// in-memory, cold corpus, and warm corpus must agree. The cold pass is a
// single record phase, its followers fed by the fan-out, and the entry it
// writes holds the bytes RecordLLCToCorpus writes for the leader setup
// alone; the warm pass only replays.
func TestCorpusRunSetupsMatchesInMemory(t *testing.T) {
	g := graph.Uniform(1<<10, 4<<10, 42)
	mk := func() *kernels.Workload { return kernels.NewPageRank(g) }
	setups := []Setup{DRRIPSetup(), LRUSetup(), HawkeyeSetup()}
	c := TinyConfig()
	want := c.runSetups(g, "PR", mk(), setups...)
	key := c.StreamKey(g, "PR")

	dir := t.TempDir()
	for pass, label := range []string{"cold", "warm"} {
		s, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cc := c
		cc.Corpus = s
		var log phaseLog
		cc.PhaseProgress = log.hook()
		got := cc.runSetups(g, "PR", mk(), setups...)
		var cellPath string
		if pass == 0 {
			ent, err := s.Get(key)
			if err != nil {
				t.Fatalf("cold pass published no entry: %v", err)
			}
			cellPath = ent.Path
		}
		// Close before the warm pass opens the directory again, as a
		// later process would.
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if fingerprint(got[i]) != fingerprint(want[i]) {
				t.Errorf("%s corpus: setup %s diverges from in-memory", label, setups[i].Name)
			}
		}
		rec, rep, live := log.get("record"), log.get("replay"), log.get("live")
		switch {
		case pass == 0 && (rec != 1 || rep != 0 || live != 0):
			t.Errorf("cold corpus ran %d record, %d replay and %d live phase(s), want one record only", rec, rep, live)
		case pass == 1 && (rec != 0 || rep != len(setups) || live != 0):
			t.Errorf("warm corpus ran %d record, %d replay and %d live phase(s), want %d replays only", rec, rep, live, len(setups))
		}
		if pass == 1 {
			continue
		}

		solo, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer solo.Close()
		sc := c
		sc.Corpus = solo
		_, soloEnt, err := RecordLLCToCorpus(sc, mk(), setups[0], key)
		if err != nil {
			t.Fatal(err)
		}
		cellBytes, err := os.ReadFile(cellPath)
		if err != nil {
			t.Fatal(err)
		}
		soloBytes, err := os.ReadFile(soloEnt.Path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cellBytes, soloBytes) {
			t.Errorf("cold cell wrote a %d-byte entry; %s recorded alone writes %d bytes of other content", len(cellBytes), setups[0].Name, len(soloBytes))
		}
	}
}

// TestCorpusFailedPublishKeepsResults pins the fallback of a corpus that
// cannot take an entry, failing once before the pass starts and once
// after. Before: the directory is gone after Open, so Publish cannot
// create even its temp file, whatever the process's privileges. After: a
// follower's policy constructor removes the directory once the temp file
// is open, so the pass and its encoding run and the final rename fails.
// Either way the cell must still simulate every setup in one pass
// reported as live, with the no-corpus counters, and leave no entry
// behind; the live event carries the publish error, naming the cell and
// the corpus key.
func TestCorpusFailedPublishKeepsResults(t *testing.T) {
	g := graph.Uniform(1<<10, 4<<10, 42)
	setups := []Setup{DRRIPSetup(), LRUSetup(), HawkeyeSetup()}
	c := TinyConfig()
	want := c.runSetups(g, "PR", kernels.NewPageRank(g), setups...)

	for _, when := range []string{"before the pass", "after the pass"} {
		dir := filepath.Join(t.TempDir(), "corpus")
		s, err := corpus.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		run := append([]Setup(nil), setups...)
		if when == "before the pass" {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
		} else {
			follower := run[1]
			run[1].Make = func(c Config, w *kernels.Workload, cfg cache.Config) (cache.Policy, core.VertexIndexed, int) {
				if err := os.RemoveAll(dir); err != nil {
					t.Error(err)
				}
				return follower.Make(c, w, cfg)
			}
		}
		cc := c
		cc.Corpus = s
		var log phaseLog
		cc.PhaseProgress = log.hook()
		got := cc.runSetups(g, "PR", kernels.NewPageRank(g), run...)
		for i := range want {
			if fingerprint(got[i]) != fingerprint(want[i]) {
				t.Errorf("publish failing %s: setup %s diverges from the no-corpus run:\n got:  %s\n want: %s", when, setups[i].Name, fingerprint(got[i]), fingerprint(want[i]))
			}
		}
		if rec, rep, live := log.get("record"), log.get("replay"), log.get("live"); live != 1 || rec != 0 || rep != 0 {
			t.Errorf("publish failing %s: ran %d live, %d record and %d replay phase(s), want one live pass only", when, live, rec, rep)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("publish failing %s: left %s behind (stat: %v)", when, dir, err)
		}
		if len(log.errs) != 1 {
			t.Fatalf("publish failing %s: %d phase event(s) carry an error, want only the live one: %q", when, len(log.errs), log.errs)
		}
		cell, key := g.Name+"/PR", fmt.Sprintf("%+v", cc.StreamKey(g, "PR"))
		if msg := log.errs[0]; !strings.HasPrefix(msg, "live: ") || !strings.Contains(msg, cell) || !strings.Contains(msg, key) {
			t.Errorf("publish failing %s: phase error %q is not on the live event or does not name cell %s and corpus key %s", when, msg, cell, key)
		}
	}
}

// TestCorpusKeyNamesScale pins that corpus keys spell out the scale (the
// L1/L2 shape rides on it), so streams recorded at one scale can never be
// replayed into a sweep at another.
func TestCorpusKeyNamesScale(t *testing.T) {
	g := graph.Uniform(1<<10, 4<<10, 7)
	tiny := TinyConfig()
	big := DefaultConfig()
	kt := tiny.StreamKey(g, "PR")
	kd := big.StreamKey(g, "PR")
	if kt == kd {
		t.Fatalf("tiny and default configs share corpus key %+v", kt)
	}
	if !strings.Contains(kt.Scale, "tiny") {
		t.Errorf("tiny key scale %q does not name the scale", kt.Scale)
	}
}

// TestCorpusKeyCoversGraphContent pins the fig11 aliasing hazard: two
// graphs sharing a display name but not an edge list must get distinct
// corpus keys, or one experiment would replay the other's stream.
func TestCorpusKeyCoversGraphContent(t *testing.T) {
	c := TinyConfig()
	a := graph.Uniform(1<<12, 4<<12, c.Seed)
	b := graph.Uniform(1<<12, 8<<12, c.Seed).Renamed(a.Name)
	if a.Name != b.Name {
		t.Fatalf("test setup: names differ (%q vs %q)", a.Name, b.Name)
	}
	if c.StreamKey(a, "PR") == c.StreamKey(b, "PR") {
		t.Fatalf("same-name graphs with different edges share corpus key %+v", c.StreamKey(a, "PR"))
	}
}

// BenchmarkCorpusReplay compares the three stream paths on one PageRank
// stream: in-memory record, corpus record (chunked container encode +
// publish), in-memory replay, and out-of-core corpus replay (which also
// reports its peak resident trace bytes — the windowed-reader bound).
// POPT_CORPUS_BENCH_N selects the vertex count; BENCH_corpus.json records
// runs at 1<<23, the ScaleLarge vertex count, where the stream no longer
// fits comfortably in memory as one buffer.
func BenchmarkCorpusReplay(b *testing.B) {
	n := 1 << 12
	if s := os.Getenv("POPT_CORPUS_BENCH_N"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			b.Fatalf("POPT_CORPUS_BENCH_N: %v", err)
		}
		n = v
	}
	c := TinyConfig()
	switch {
	case n >= 1<<21:
		c.Scale = graph.ScaleLarge
	case n >= 1<<15:
		c.Scale = graph.ScaleDefault
	}
	g := graph.Uniform(n, 4*n, c.Seed)
	mk := func() *kernels.Workload { return kernels.NewPageRank(g) }

	b.Run("record-inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, tr := RecordLLC(c, mk(), DRRIPSetup())
			b.ReportMetric(float64(len(tr.Bytes())), "trace-bytes")
		}
	})

	store, err := corpus.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	cc := c
	cc.Corpus = store
	var ent *corpus.Entry
	b.Run("record-corpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// A distinct schedule name per iteration so every pass truly
			// records (Publish over a warm key would open, not encode).
			key := cc.StreamKey(g, fmt.Sprintf("PR#%d", i))
			_, e, err := RecordLLCToCorpus(cc, mk(), DRRIPSetup(), key)
			if err != nil {
				b.Fatal(err)
			}
			ent = e
			b.ReportMetric(float64(e.Size), "container-bytes")
		}
	})

	w := mk()
	_, tr := RecordLLC(c, w, DRRIPSetup())
	b.Run("replay-inmemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReplayLLC(c, w, tr, DRRIPSetup())
		}
		b.ReportMetric(float64(len(tr.Bytes())), "resident-trace-bytes")
	})
	b.Run("replay-corpus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ReplayLLCEntry(cc, w, ent, DRRIPSetup())
		}
		b.ReportMetric(float64(ent.Reader().MaxResidentBytes()), "resident-trace-bytes")
	})
}
