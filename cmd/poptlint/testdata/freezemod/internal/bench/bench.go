// Package bench is a miniature sweep-shaped module with one deliberate
// violation per publish-safety analyzer, used by the poptlint command
// tests to exercise selecting that family with -run and its exit code. The
// module is named popt and the package lives under internal/bench so the
// scoped analyzers (loopcapture, determinism) treat it as simulator code.
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

// Corrupt mutates a published table: sharefreeze must flag it.
func Corrupt() int {
	t := BuildTable(8)
	t.entries[0] = 1
	return len(t.entries)
}

type cache struct {
	mu sync.Mutex
	n  int //popt:guardedby mu
}

// Skew reads n without holding the lock: lockguard must flag it.
func (c *cache) Skew() int {
	return c.n
}

// Fan launches workers that capture the loop variable by reference:
// loopcapture must flag it.
func Fan(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			BuildTable(i)
		}()
	}
	wg.Wait()
}
