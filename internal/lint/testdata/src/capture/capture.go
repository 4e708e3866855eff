// Package capture exercises the capture contract of the sharefreeze
// analyzer with the goroutine shapes the sweep engine and parallel fills
// use: worker pools draining a channel, range-sharded builders passing
// bounds as arguments, and the disjoint-slot error slice.
package capture

import "sync"

func use(int)          {}
func work(i int) error { _ = i; return nil }
func drainOK(cells chan int, errs []error) {
	for i := range cells {
		errs[i] = work(i)
	}
}

// workerPool is the legal sweep shape: the closure captures only the
// WaitGroup, the channel, and the error slice, and touches them through
// calls and channel ops, never direct writes.
func workerPool(workers int, cells chan int, errs []error) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			drainOK(cells, errs)
		}()
	}
	wg.Wait()
}

// argPassing is the legal shard shape: loop-derived bounds enter the
// goroutine as call arguments, so the closure's lo/hi are parameters.
func argPassing(n int) {
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += 8 {
		hi := lo + 8
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			use(lo + hi)
		}(lo, hi)
	}
	wg.Wait()
}

// disjointSlot is the legal per-worker result slot: the slice is shared
// but every goroutine indexes it with its own parameter.
func disjointSlot(n int, errs []error) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = work(i)
		}(i)
	}
	wg.Wait()
}

// capturesLoopVar reads the iteration variable from inside the closure.
// Since Go 1.22 every iteration has its own variable, so this is not a
// defect.
func capturesLoopVar(n int) {
	for i := 0; i < n; i++ {
		go use(i)
		go func() {
			use(i)
		}()
	}
}

// capturesRangeVar is the range-clause form of the same read.
func capturesRangeVar(gs []int) {
	for _, g := range gs {
		go func() {
			use(g)
		}()
	}
}

// sharedCounter: every worker increments one captured slot.
func sharedCounter(n int) {
	count := 0
	for j := 0; j < n; j++ {
		go func() {
			count++ // want `goroutine in a loop assigns to captured variable count`
		}()
	}
	use(count)
}

// mapWrite: even with distinct keys, concurrent map writes fault.
func mapWrite(keys []string) {
	m := map[string]int{}
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			m[k] = len(k) // want `goroutine in a loop writes captured map m`
		}(k)
	}
	wg.Wait()
	use(len(m))
}

// badSlotIndex writes a shared slice through an index that lives outside
// the goroutine, so slots are not disjoint.
func badSlotIndex(n int, out []int) {
	next := 0
	for j := 0; j < n; j++ {
		go func() {
			out[next] = 1 // want `writes captured slice out at an index that is not goroutine-local`
		}()
	}
	use(next)
}

type state struct{ count int }

// pointerWrite mutates shared state through a captured pointer.
func pointerWrite(n int, st *state) {
	for j := 0; j < n; j++ {
		go func() {
			st.count = 1 // want `goroutine in a loop writes shared state through captured st`
		}()
	}
}

// localWrite only touches goroutine-private storage: legal.
func localWrite(n int) {
	for i := 0; i < n; i++ {
		go func(i int) {
			buf := make([]int, 4)
			buf[0] = i
			sum := 0
			sum += buf[0]
			use(sum)
		}(i)
	}
}

// outsideLoop: a lone goroutine is out of the capture contract's
// jurisdiction (there is no per-iteration fan-out to race with).
func outsideLoop() {
	flag := 0
	go func() {
		flag = 1
	}()
	use(flag)
}

// allowed demonstrates suppression for deliberate one-shot cases.
func allowed(n int) {
	done := 0
	for j := 0; j < n; j++ {
		go func() {
			done = 1 //lint:allow sharefreeze
		}()
	}
	use(done)
}
