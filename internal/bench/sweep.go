package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the parallel sweep engine. The paper's evaluation is a
// large cross-product — 5 kernels × 5 graphs × a policy zoo across
// fig2..fig16 — and every (workload, setup) cell is an independent
// trace-driven simulation: it builds its own Workload (own address space),
// its own Hierarchy, and its own policy instance, sharing only immutable
// inputs (suite graphs, merged transposes).
// The engine fans cells across a bounded worker pool and leaves assembly
// of the report to the driver, which walks its cell results in
// enumeration order — so the rendered report is byte-identical to a
// serial run at every worker count. The determinism sweep test enforces
// that at -j 1, -j 2, and -j GOMAXPROCS against a checked-in golden.

// Cell is one independent unit of sweep work. Run executes the cell and
// stores its result into caller-owned state (typically a slot of a
// results slice indexed like the cell list — per-slot writes need no
// locking). Run must not touch other cells' state or mutate anything
// shared; shared inputs are read-only by contract.
type Cell struct {
	// Key labels the cell in progress events and failure messages,
	// e.g. "fig2/KRON-12".
	Key string
	Run func()
}

// CellEvent reports one completed cell to a Progress callback.
type CellEvent struct {
	// Index is the cell's position in the submitted cell list.
	Index int
	// Done and Total are the completion count including this cell and the
	// sweep size.
	Done, Total int
	// Key echoes the cell's label.
	Key string
	// Elapsed is the cell's wall-clock execution time.
	Elapsed time.Duration
}

// PhaseEvent reports one completed cell sub-phase to a Config.PhaseProgress
// callback: the heartbeat between cell completions on large-scale runs.
type PhaseEvent struct {
	// Key identifies the work, e.g. "KRON-23/PR" (graph/stream) for a
	// live or record pass, plus the setup name for a replay.
	Key string
	// Phase names the sub-phase: "live" (one kernel execution that
	// simulates every setup of a cell, the first directly and the rest
	// fed its LLC-visible stream as it runs), "record" (that same single
	// pass, also encoding the stream into a cold corpus entry that was
	// published) or "replay" (one setup fed a warm corpus entry,
	// simulating only its LLC). A cold cell whose entry fails to publish
	// reports its pass as live. A cell reports one live or record phase,
	// or one replay per setup.
	Phase string
	// Elapsed is the phase's wall-clock execution time.
	Elapsed time.Duration
	// Err is set only on the live phase of a cold cell whose corpus entry
	// failed to publish; it names the cell and the corpus key. The cell's
	// results stand: only the entry is missing.
	Err error
}

// phaseStart returns the phase timestamp, or the zero time when no
// PhaseProgress callback is installed (the common case pays no clock
// read).
func (c Config) phaseStart() time.Time {
	if c.PhaseProgress == nil {
		return time.Time{}
	}
	return time.Now() //lint:allow determinism (host-side progress timing, not simulated state)
}

// phaseDone emits one PhaseEvent if a callback is installed.
func (c Config) phaseDone(key, phase string, start time.Time, err error) {
	if c.PhaseProgress != nil {
		c.PhaseProgress(PhaseEvent{Key: key, Phase: phase, Elapsed: time.Since(start), Err: err}) //lint:allow determinism (host-side progress timing)
	}
}

// Sweep executes independent cells on a bounded worker pool.
type Sweep struct {
	// Workers bounds the pool; <= 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives one event per completed cell.
	// Events arrive in completion order (scheduling-dependent), never
	// concurrently; report content must not depend on them.
	Progress func(CellEvent)

	mu   sync.Mutex
	done int //popt:guardedby mu
}

// Run executes every cell and returns nil, or an error describing the
// first panicking cell (by cell order). A panic in one cell never wedges
// the pool: the panicking worker records the failure and keeps draining,
// so all other cells still complete and the pool always shuts down.
func (s *Sweep) Run(cells []Cell) error {
	s.mu.Lock()
	s.done = 0
	s.mu.Unlock()
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	errs := make([]error, len(cells))
	if workers <= 1 {
		for i := range cells {
			errs[i] = s.runCell(cells, i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.drain(idx, cells, errs)
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("sweep: cell %d (%s): %w", i, cells[i].Key, err)
		}
	}
	return nil
}

// drain is the sweep dispatch loop each worker runs: pull the next cell
// index, execute the cell, record its outcome into the worker's own slot
// of errs. All allocation (scratch, panic boxing) lives in runCell and
// its cold helpers so this loop stays clean.
//
//popt:hot
func (s *Sweep) drain(idx <-chan int, cells []Cell, errs []error) {
	for i := range idx {
		errs[i] = s.runCell(cells, i)
	}
}

// runCell executes one cell, converting a panic into an error and
// emitting the progress event.
func (s *Sweep) runCell(cells []Cell, i int) (err error) {
	start := time.Now() //lint:allow determinism (host-side progress timing, not simulated state)
	defer func() {
		if r := recover(); r != nil {
			err = panicErr(r)
		}
		s.finish(i, len(cells), cells[i].Key, time.Since(start)) //lint:allow determinism (host-side progress timing)
	}()
	cells[i].Run()
	return nil
}

// panicErr boxes a recovered panic value; kept out of line so the
// recovery path's fmt machinery never burdens runCell's frame.
//
//go:noinline
func panicErr(r any) error { return fmt.Errorf("cell panicked: %v", r) }

// finish serializes progress accounting and the callback.
func (s *Sweep) finish(i, total int, key string, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.done++
	if s.Progress != nil {
		s.Progress(CellEvent{Index: i, Done: s.done, Total: total, Key: key, Elapsed: elapsed})
	}
}

// runCells executes cells under c's sweep settings (Workers, Progress) and
// re-raises the first cell failure as a panic: experiment drivers have no
// error channel (Experiment.Run returns only a Report), and a cell panic
// there is a programming error exactly as it was in the serial loops.
func (c Config) runCells(cells []Cell) {
	s := &Sweep{Workers: c.Workers, Progress: c.Progress}
	if err := s.Run(cells); err != nil {
		panic(err)
	}
}
