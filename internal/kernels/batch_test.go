package kernels

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"popt/internal/cache"
	"popt/internal/core"
	"popt/internal/graph"
	"popt/internal/mem"
	"popt/internal/trace"
)

// This file checks the Runner's event buffering against an oracle that
// does not come from a golden: a reference that issues the same scripted
// events one at a time through Hierarchy.Access and the Sim's hook
// methods, with the encoder tapped on the hierarchy and handed each hook
// event right after the Sim. Every counter, the hook call sequence and the
// encoded LLC stream must agree, wherever the batch boundaries fall.

type scriptOp uint8

const (
	opLoad scriptOp = iota
	opStore
	opTick
	opVertex
	opIter
	opTile
	opMute
	opUnmute
)

// scriptEvent is one Runner call: an access of element i of array arr,
// Tick(i), SetVertex(i), StartIteration, SetTile(i) or a mute toggle.
type scriptEvent struct {
	op  scriptOp
	arr int
	i   int
	pc  uint16
}

// batchArrays lays out arrays that miss at every level of the tiny
// hierarchy: one L1-sized, one past L2, one far past the LLC.
func batchArrays() []*mem.Array {
	sp := mem.NewSpace()
	return []*mem.Array{
		sp.AllocBytes("small", 128, 4, false),
		sp.AllocBytes("mid", 4096, 4, true),
		sp.AllocBytes("big", 1<<15, 8, true),
	}
}

// genScript builds a random script of access runs separated by bursts of
// other events. Run lengths straddle the Runner's buffer (0, 1, cap-1,
// cap, cap+1, 2cap+1, or short); bursts put marks back to back, now and
// then more of them than one buffer holds, and toggle muting.
func genScript(rng *rand.Rand, arrs []*mem.Array) []scriptEvent {
	lens := []int{0, 1, batchCap - 1, batchCap, batchCap + 1, 2*batchCap + 1}
	var s []scriptEvent
	for seg := 0; seg < 80; seg++ {
		n := lens[rng.Intn(len(lens))]
		if rng.Intn(3) == 0 {
			n = rng.Intn(40)
		}
		for j := 0; j < n; j++ {
			a := rng.Intn(len(arrs))
			op := opLoad
			if rng.Intn(4) == 0 {
				op = opStore
			}
			s = append(s, scriptEvent{op: op, arr: a, i: rng.Intn(arrs[a].Len), pc: uint16(1 + rng.Intn(20))})
		}
		// One burst in a dozen is unmuted hook marks alone, more than the
		// buffer holds.
		k, kinds := 1+rng.Intn(3), 10
		if rng.Intn(12) == 0 {
			s = append(s, scriptEvent{op: opUnmute})
			k, kinds = batchCap+1+rng.Intn(3), 6
		}
		for j := 0; j < k; j++ {
			switch rng.Intn(kinds) {
			case 0, 1, 2, 3:
				s = append(s, scriptEvent{op: opVertex, i: rng.Intn(1 << 12)})
			case 4:
				s = append(s, scriptEvent{op: opIter})
			case 5:
				s = append(s, scriptEvent{op: opTile, i: rng.Intn(4)})
			case 6:
				s = append(s, scriptEvent{op: opTick, i: 1 + rng.Intn(3)})
			case 7:
				s = append(s, scriptEvent{op: opMute})
			default:
				s = append(s, scriptEvent{op: opUnmute})
			}
		}
	}
	return s
}

// logHook records every hook call and, on some vertices, prefetches into
// the LLC, so a mark delivered at the wrong position among the accesses
// changes the simulated counters too.
type logHook struct {
	h   *cache.Hierarchy
	big *mem.Array
	log []string
}

func (k *logHook) UpdateIndex(v graph.V) {
	k.log = append(k.log, fmt.Sprint("v", v))
	if v%3 == 0 {
		k.h.Prefetch(mem.Access{Addr: k.big.Addr(int(v) * 8)})
	}
}

func (k *logHook) ResetEpoch() { k.log = append(k.log, "epoch") }

func (k *logHook) SetTile(t int) { k.log = append(k.log, fmt.Sprint("tile", t)) }

// spillFilter absorbs stores to target and writes every fourth absorbed
// line back through the hierarchy, the way the PHI buffer spills.
func spillFilter(h *cache.Hierarchy, target *mem.Array) func(mem.Access) bool {
	absorbed := 0
	return func(acc mem.Access) bool {
		if !acc.Write || !target.Contains(acc.Addr) {
			return false
		}
		absorbed++
		if absorbed%4 == 0 {
			h.Access(mem.Access{Addr: acc.LineAddr(), Write: true, PC: 0x7F})
		}
		return true
	}
}

// batchOutcome is everything a run produced.
type batchOutcome struct {
	l1, l2, llc                 cache.Stats
	dramR, dramW, pfIss, pfFill uint64
	instructions                uint64
	hookLog                     []string
	llcBytes                    []byte
}

func outcomeOf(h *cache.Hierarchy, sim *trace.Sim, hook *logHook, enc *trace.LLCEncoder) batchOutcome {
	o := batchOutcome{
		l1: h.L1.Stats, l2: h.L2.Stats, llc: h.LLC.Stats,
		dramR: h.DRAMReads, dramW: h.DRAMWrites, pfIss: h.PrefetchIssued, pfFill: h.PrefetchFills,
		instructions: sim.Instructions,
		llcBytes:     enc.Trace(sim.Instructions, h.L1.Stats, h.L2.Stats).Bytes(),
	}
	if hook != nil {
		o.hookLog = hook.log
	}
	return o
}

// newBatchSim builds the hierarchy, optional hook and optional filter of
// one run.
func newBatchSim(arrs []*mem.Array, hooked, filtered bool) (*cache.Hierarchy, *trace.Sim, *logHook) {
	h := newTinyHierarchy(func() cache.Policy { return cache.NewLRU() })
	var hook *logHook
	var vi core.VertexIndexed
	if hooked {
		hook = &logHook{h: h, big: arrs[2]}
		vi = hook
	}
	sim := trace.NewSim(h, vi)
	if filtered {
		sim.Filter = spillFilter(h, arrs[1])
	}
	return h, sim, hook
}

// runBatched drives the script through a Runner.
func runBatched(script []scriptEvent, arrs []*mem.Array, hooked, filtered bool) batchOutcome {
	h, sim, hook := newBatchSim(arrs, hooked, filtered)
	enc := trace.NewLLCEncoder()
	sim.Record(enc)
	r := NewSinkRunner(sim)
	for _, e := range script {
		switch e.op {
		case opLoad:
			r.Load(arrs[e.arr], e.i, e.pc)
		case opStore:
			r.Store(arrs[e.arr], e.i, e.pc)
		case opTick:
			r.Tick(uint64(e.i))
		case opVertex:
			r.SetVertex(graph.V(e.i))
		case opIter:
			r.StartIteration()
		case opTile:
			r.SetTile(e.i)
		case opMute:
			r.SetMuted(true)
		case opUnmute:
			r.SetMuted(false)
		}
	}
	r.Flush()
	return outcomeOf(h, sim, hook, enc)
}

// runReference issues the script one event at a time: each access through
// the filter and Hierarchy.Access, each hook event to the Sim and then to
// the encoder. Muting drops everything but tile switches, as the Runner
// does.
func runReference(script []scriptEvent, arrs []*mem.Array, hooked, filtered bool) batchOutcome {
	h, sim, hook := newBatchSim(arrs, hooked, filtered)
	enc := trace.NewLLCEncoder()
	h.Tap = enc
	muted := false
	for _, e := range script {
		switch e.op {
		case opMute:
			muted = true
			continue
		case opUnmute:
			muted = false
			continue
		case opTile:
			sim.SetTile(e.i)
			enc.SetTile(e.i)
			continue
		}
		if muted {
			continue
		}
		switch e.op {
		case opLoad, opStore:
			sim.Instructions++
			acc := mem.Access{Addr: arrs[e.arr].Addr(e.i), PC: e.pc, Write: e.op == opStore}
			if sim.Filter == nil || !sim.Filter(acc) {
				h.Access(acc)
			}
		case opTick:
			sim.Instructions += uint64(e.i)
		case opVertex:
			sim.SetVertex(graph.V(e.i))
			enc.SetVertex(graph.V(e.i))
		case opIter:
			sim.StartIteration()
			enc.StartIteration()
		}
	}
	return outcomeOf(h, sim, hook, enc)
}

func TestRunnerBatchesMatchOneEventAtATime(t *testing.T) {
	arrs := batchArrays()
	for seed := int64(1); seed <= 4; seed++ {
		script := genScript(rand.New(rand.NewSource(seed)), arrs)
		for _, hooked := range []bool{false, true} {
			for _, filtered := range []bool{false, true} {
				name := fmt.Sprintf("seed=%d/hook=%v/filter=%v", seed, hooked, filtered)
				got := runBatched(script, arrs, hooked, filtered)
				want := runReference(script, arrs, hooked, filtered)
				if want.llc.Accesses == 0 || want.dramW == 0 || (hooked && want.pfFill == 0) {
					t.Fatalf("%s: script too weak to test: %+v", name, want)
				}
				if !bytes.Equal(got.llcBytes, want.llcBytes) {
					t.Errorf("%s: encoded LLC streams differ (%d vs %d bytes)", name, len(got.llcBytes), len(want.llcBytes))
				}
				got.llcBytes, want.llcBytes = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: batched run diverged from the reference:\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}
