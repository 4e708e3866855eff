// Package freeze exercises the freeze contract of the sharefreeze
// analyzer: Table stands in for the artifacts (core.LineRefs, the graph
// CSR arrays) that sweep cells share read-only.
package freeze

// Table is the shared artifact under test.
//
//popt:frozen
type Table struct {
	entries []uint16
	epochs  int
}

var shared *Table

var registry = map[string]*Table{}

// Build is the legal constructor shape: fill the fresh value directly,
// through a helper, and from a constructor-launched goroutine, then
// return it.
func Build(n int) *Table {
	t := &Table{entries: make([]uint16, n)}
	t.epochs = n
	for i := range t.entries {
		t.entries[i] = uint16(i)
	}
	fill(t, 7)
	done := make(chan struct{})
	go func() {
		t.entries[0] = 1
		close(done)
	}()
	<-done
	return t
}

// fill writes through its parameter; legal only with fresh arguments —
// each call site is judged by this helper's summary.
func fill(t *Table, v uint16) {
	for i := range t.entries {
		t.entries[i] = v
	}
}

// zeroFirst is the bottom of a two-deep helper chain.
func zeroFirst(t *Table) {
	t.entries[0] = 0
}

// scrub delegates to zeroFirst; its summary inherits the write.
func scrub(t *Table) {
	zeroFirst(t)
}

// BuildZero shows the zero-value construction path.
func BuildZero() *Table {
	var t Table
	t.entries = make([]uint16, 4)
	t.entries[2] = 9
	return &t
}

// MutateResult mutates a constructor's return value: the canonical bug.
func MutateResult(n int) {
	t := Build(n)
	t.entries[0] = 9 // want `stores to t\.entries\[\.\.\.\], mutating frozen Table after publication`
}

// MutateShared writes the package-level published table.
func MutateShared() {
	shared.epochs = 3 // want `stores to shared\.epochs, mutating frozen Table after publication`
}

// PublishThenWrite stores a fresh table into a package variable and keeps
// mutating through the local: publication ends the construction window.
func PublishThenWrite(n int) {
	t := &Table{entries: make([]uint16, n)}
	shared = t
	t.entries[1] = 2 // want `stores to t\.entries\[\.\.\.\], mutating frozen Table after publication`
}

// SendThenWrite hands a fresh table to a channel and keeps writing: the
// receiver shares it from the send on.
func SendThenWrite(ch chan *Table) {
	t := &Table{}
	ch <- t
	t.epochs = 2 // want `stores to t\.epochs, mutating frozen Table after publication`
}

// HelperChainWrite passes a published table into a helper chain; the
// diagnostic names the offending store two calls down.
func HelperChainWrite() {
	t := Build(4)
	scrub(t) // want `passes published frozen Table to scrub, which stores to it`
}

// FreshHelperOK is the negative twin: the same helpers on a still-fresh
// value are constructor work.
func FreshHelperOK() *Table {
	t := &Table{entries: make([]uint16, 4)}
	scrub(t)
	fill(t, 3)
	return t
}

// AliasWrite mutates through an alias of the table's interior storage.
func AliasWrite() {
	t := Build(4)
	es := t.entries
	es[0] = 5 // want `writes frozen shared storage through alias es`
}

// AppendAlias appends to aliased frozen storage, which may write the
// shared backing array in place.
func AppendAlias() {
	t := Build(4)
	es := t.entries
	es = append(es, 1) // want `appends to frozen shared storage`
	_ = es
}

// CopyInto overwrites frozen storage with copy.
func CopyInto(src []uint16) {
	t := Build(4)
	copy(t.entries, src) // want `copies into frozen shared storage`
}

// RaceWrite launches a goroutine that mutates an already-published table:
// exactly the race the sweep workers would hit.
func RaceWrite() {
	t := Build(4)
	go func() {
		t.entries[2] = 7 // want `stores to t\.entries\[\.\.\.\], mutating frozen Table after publication`
	}()
}

// MutateRegistry mutates a table pulled out of package-level state.
func MutateRegistry(k string) {
	t := registry[k]
	t.epochs++ // want `stores to t\.epochs, mutating frozen Table after publication`
}

// Register publishes into the registry map; writing the non-frozen map
// itself is fine, and the fresh table may not be touched afterwards.
func Register(k string, n int) {
	t := &Table{entries: make([]uint16, n)}
	registry[k] = t
	t.epochs = 1 // want `stores to t\.epochs, mutating frozen Table after publication`
}

// suite returns a fresh slice of published tables, like the suite cache.
func suite() []*Table { return []*Table{shared} }

// RangeAlias writes a published table's storage through an alias taken
// while ranging over a returned suite: an element read out of a container
// is published.
func RangeAlias() {
	for _, t := range suite() {
		es := t.entries
		es[0] = 1 // want `RangeAlias writes frozen shared storage through alias es`
	}
}

// ReslotSuite writes the returned slice itself, which is the caller's own.
func ReslotSuite() {
	ts := suite()
	ts[0] = nil
}

// BuildPair fills two fresh tables through a literal of them.
func BuildPair() (*Table, *Table) {
	a, b := &Table{}, &Table{}
	for _, t := range []*Table{a, b} {
		t.epochs = 1
	}
	return a, b
}

// Exported mutators are flagged at the declaration: external callers are
// invisible, so no exported function may write through a frozen
// parameter or receiver.
func Reset(t *Table) { // want `exported Reset writes frozen Table through its parameter t`
	t.epochs = 0
}

// Bump is the method form of the same violation.
func (t *Table) Bump() { // want `exported Bump writes frozen Table through its receiver`
	t.epochs++
}

// Epochs is a legal exported read-only method.
func (t *Table) Epochs() int {
	return t.epochs
}

// allowDirective proves suppression works for deliberate test-fixture
// corruption (the graph Validate tests).
func allowDirective() {
	t := Build(2)
	t.entries[0] = 3 //lint:allow sharefreeze
}
