// Package guard exercises the guard contract of the sharefreeze analyzer
// with the three guard shapes the artifact caches use: a named mutex
// field, an embedded mutex on a package variable, and a per-entry
// sync.Once.
package guard

import "sync"

type cache struct {
	mu sync.Mutex
	m  map[string]int //popt:guardedby mu
	n  int            //popt:guardedby mu
}

// get is the legal deferred-unlock shape.
func (c *cache) get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[k]
}

// put is the legal paired lock/unlock shape.
func (c *cache) put(k string, v int) {
	c.mu.Lock()
	c.m[k] = v
	c.n++
	c.mu.Unlock()
}

// bad reads the map with no lock at all.
func (c *cache) bad(k string) int {
	return c.m[k] // want `bad accesses c\.m without holding mu`
}

// badAfterUnlock keeps using the map after releasing the lock.
func (c *cache) badAfterUnlock(k string) {
	c.mu.Lock()
	c.m[k] = 1
	c.mu.Unlock()
	c.m[k] = 2 // want `badAfterUnlock accesses c\.m without holding mu`
}

// badGoroutine: the lock held at the go statement is not held by the
// goroutine it launches.
func (c *cache) badGoroutine(k string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() {
		c.m[k] = 1 // want `badGoroutine accesses c\.m without holding mu`
	}()
	c.n = 0
}

// earlyReturn unlocks on the early-exit path and returns; the fallthrough
// path still holds the lock, so the trailing access is fine.
func (c *cache) earlyReturn(k string, skip bool) {
	c.mu.Lock()
	if skip {
		c.mu.Unlock()
		return
	}
	c.m[k] = 1
	c.mu.Unlock()
}

// branchMerge: a lock taken on only one branch is not held after the
// merge point.
func (c *cache) branchMerge(k string, b bool) {
	if b {
		c.mu.Lock()
		c.m[k] = 1
		c.mu.Unlock()
	}
	c.n++ // want `branchMerge accesses c\.n without holding mu`
}

// unlockOnBranch releases the lock on one path only: after the join the
// lock is not held.
func (c *cache) unlockOnBranch(k string, b bool) {
	c.mu.Lock()
	if b {
		c.mu.Unlock()
	}
	c.m[k] = 1 // want `unlockOnBranch accesses c\.m without holding mu`
}

// registry uses an embedded mutex on a package variable, like the graph
// suite cache.
var registry struct {
	sync.Mutex
	m map[string]int //popt:guardedby Mutex
}

func lookup(k string) int {
	registry.Lock()
	defer registry.Unlock()
	if registry.m == nil {
		registry.m = make(map[string]int)
	}
	return registry.m[k]
}

func badLookup(k string) int {
	return registry.m[k] // want `badLookup accesses registry\.m without holding Mutex`
}

// entry mirrors the artifact-cache entries: fields published by a
// sync.Once are readable only inside or after the Do.
type entry struct {
	once sync.Once
	v    int //popt:guardedby once
}

func lazy(e *entry) int {
	e.once.Do(func() {
		e.v = 42
	})
	return e.v
}

func badLazy(e *entry) int {
	return e.v // want `badLazy accesses e\.v, which is guarded by sync\.Once once, outside its Do`
}

// writeAfterDo overwrites the once-published value after its Do: readers
// sequenced after the Do race with this write.
func writeAfterDo(e *entry) {
	e.once.Do(func() {
		e.v = 42
	})
	e.v = 7 // want `writeAfterDo writes e\.v, which is guarded by sync\.Once once, outside its Do closure`
}

// cell mirrors the sweep artifact cache: cells looked up in a package
// map, each built lazily inside its own Once.
type cell struct {
	once sync.Once
	t    []int //popt:guardedby once
}

var cells = map[string]*cell{}

// lazyCell builds the cell inside its Once and reads it after the Do.
func lazyCell(e *cell, n int) []int {
	e.once.Do(func() {
		e.t = make([]int, n)
	})
	return e.t
}

// Lookup exercises the full cache idiom end to end.
func Lookup(k string, n int) []int {
	e := cells[k]
	if e == nil {
		e = &cell{}
		cells[k] = e
	}
	return lazyCell(e, n)
}

// MutateEntry writes a cell's payload outside its Once after pulling it
// out of package-level state.
func MutateEntry(k string) {
	e := cells[k]
	e.t = nil // want `MutateEntry writes e\.t, which is guarded by sync\.Once once, outside its Do closure`
}

// badAnnotation names a guard that does not exist in the struct.
type badAnnotation struct {
	v int //popt:guardedby gone // want `//popt:guardedby gone on v names no sibling field`
}

// badGuardType names a sibling that is not a sync primitive.
type badGuardType struct {
	g int
	v int //popt:guardedby g // want `not a sync\.Mutex or sync\.Once`
}

// allowed demonstrates suppression for single-threaded test asserts.
func (c *cache) allowed(k string) int {
	return c.m[k] //lint:allow sharefreeze
}
