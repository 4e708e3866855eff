// Package bench is a miniature sweep-shaped module with one deliberate
// violation per sharefreeze contract (freeze, guard, capture), used by
// the poptlint command tests to exercise selecting the analyzer with -run
// and its exit code. The module is named popt and the package lives under
// internal/bench so the scoped determinism analyzer treats it as
// simulator code.
package bench

import "sync"

// Table mirrors the frozen artifact shape.
//
//popt:frozen
type Table struct {
	entries []uint16
}

// BuildTable is the legal constructor.
func BuildTable(n int) *Table {
	t := &Table{entries: make([]uint16, n)}
	for i := range t.entries {
		t.entries[i] = uint16(i)
	}
	return t
}

// Corrupt mutates a published table: the freeze contract flags it.
func Corrupt() int {
	t := BuildTable(8)
	t.entries[0] = 1
	return len(t.entries)
}

type cache struct {
	mu sync.Mutex
	n  int //popt:guardedby mu
}

// Skew reads n without holding the lock: the guard contract flags it.
func (c *cache) Skew() int {
	return c.n
}

// Fan launches workers that all add into one captured counter: the
// capture contract flags it.
func Fan(n int) int {
	var wg sync.WaitGroup
	total := 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			total += len(BuildTable(i).entries)
		}(i)
	}
	wg.Wait()
	return total
}
