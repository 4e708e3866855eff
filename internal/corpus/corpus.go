// Package corpus manages the persistent trace corpus: a directory of
// chunked container files (internal/trace's on-disk stream form) keyed by
// the tuple that makes a recording reproducible — workload, schedule,
// scale, seed. The sweep engine records each stream once and every later
// process replays it out of core, so the corpus is the boundary where
// bytes outlive the process: publication is atomic (write to a hidden
// temp file, fsync, then rename), lookups self-heal (a damaged or
// unreadable file is a miss, and the next Publish renames a fresh
// recording over it), and open entries are shared — one *trace.Reader per
// file serves every sweep cell concurrently, which is safe because a
// Reader is immutable after open.
//
// Because recording is deterministic (the determinism gate pins the
// packages that feed it), two racing publishers of the same key write
// byte-identical files; whichever rename lands last is indistinguishable
// from the other, so the race needs no coordination beyond rename's
// atomicity. The corpus concurrency tests pin exactly that.
package corpus

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"popt/internal/trace"
)

// Ext is the corpus file extension.
const Ext = ".poptc"

// Key identifies one recorded stream: the workload (graph) name, the
// schedule (kernel/variant) name, the input scale, and the generator
// seed. Keys embed in filenames and in the container's metadata frame;
// Get cross-checks the two so a renamed file cannot impersonate another
// key.
type Key struct {
	Workload string
	Schedule string
	Scale    string
	Seed     int64
}

// Meta returns the container metadata form of the key.
func (k Key) Meta() trace.Meta {
	return trace.Meta{Workload: k.Workload, Schedule: k.Schedule, Scale: k.Scale, Seed: k.Seed}
}

// KeyOf returns the key recorded in container metadata.
func KeyOf(m trace.Meta) Key {
	return Key{Workload: m.Workload, Schedule: m.Schedule, Scale: m.Scale, Seed: m.Seed}
}

// filename renders the key as a corpus-relative filename: the sanitized
// human-readable parts for browsability, plus an FNV-64a hash of the
// exact tuple so sanitization collisions cannot alias two keys.
func (k Key) filename() string {
	h := fnv.New64a()
	for _, part := range []string{k.Workload, k.Schedule, k.Scale} {
		io.WriteString(h, part)
		h.Write([]byte{0})
	}
	io.WriteString(h, strconv.FormatInt(k.Seed, 10))
	return fmt.Sprintf("%s__%s__%s__%d-%016x%s",
		sanitize(k.Workload), sanitize(k.Schedule), sanitize(k.Scale), k.Seed, h.Sum64(), Ext)
}

// sanitize maps a key part onto the filename-safe alphabet.
func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-':
			return r
		}
		return '_'
	}, s)
}

// Entry is one opened corpus file. Entries are immutable once Get returns
// them and are shared across goroutines; the embedded Reader carries the
// concurrency contract.
//
//popt:frozen
type Entry struct {
	Key  Key
	Path string
	Size int64

	r *trace.Reader
}

// Reader returns the entry's container reader.
func (e *Entry) Reader() *trace.Reader { return e.r }

// Store is a corpus directory plus its cache of open entries.
type Store struct {
	dir string

	mu      sync.Mutex
	open    map[string]*Entry //popt:guardedby mu
	entries []*Entry          //popt:guardedby mu (close order; maps must not be ranged in sim packages)

	tmpSeq atomic.Uint64
}

// Open opens (creating if needed) the corpus directory at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return &Store{dir: dir, open: make(map[string]*Entry)}, nil
}

// Dir returns the corpus directory.
func (s *Store) Dir() string { return s.dir }

// Get opens the entry for k, validating the container's footer frames and
// checking that its recorded metadata matches the key. Entries are cached:
// later Gets of the same key share the open file and Reader.
func (s *Store) Get(k Key) (*Entry, error) {
	name := k.filename()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.open[name]; ok {
		return e, nil
	}
	path := filepath.Join(s.dir, name)
	// OpenContainerFile prefers a zero-copy mmap of the container and
	// falls back to bounded-window preads; the Reader owns whichever
	// resource backs it and Store.Close releases them all.
	r, err := trace.OpenContainerFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, err
		}
		return nil, fmt.Errorf("corpus: %s: %w", name, err)
	}
	if got := KeyOf(r.Meta()); got != k {
		r.Close()
		return nil, fmt.Errorf("corpus: %s records key %+v, lookup asked for %+v", name, got, k)
	}
	e := &Entry{Key: k, Path: path, Size: r.Size(), r: r}
	s.open[name] = e
	s.entries = append(s.entries, e)
	return e, nil
}

// Lookup returns the entry for k, or nil if it is absent or unreadable: a
// damaged file is a miss, not an error, because the caller's fallback is
// to re-record and Publish — which atomically replaces the damaged bytes.
func (s *Store) Lookup(k Key) *Entry {
	e, err := s.Get(k)
	if err != nil {
		return nil
	}
	return e
}

// Publish records a stream for k by handing record a container writer
// aimed at a hidden temp file, then atomically renames the sealed file
// into place. A torn or failed recording leaves at most a temp file
// (removed on the error path, invisible to Lookup and Manifest either
// way) — never a partial file under the published name. Racing publishers
// of the same key each write their own temp file and rename last-wins;
// determinism makes the outcomes byte-identical. Returns the opened entry.
func (s *Store) Publish(k Key, record func(cw *trace.ContainerWriter) error) (*Entry, error) {
	name := k.filename()
	tmp := filepath.Join(s.dir, fmt.Sprintf(".tmp-%d-%d-%s", os.Getpid(), s.tmpSeq.Add(1), name))
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	fail := func(err error) (*Entry, error) {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	cw, err := trace.NewContainerWriter(bw, k.Meta())
	if err != nil {
		return fail(err)
	}
	if err := record(cw); err != nil {
		return fail(err)
	}
	if err := cw.Finish(); err != nil {
		return fail(fmt.Errorf("corpus: recording %s: %w", name, err))
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("corpus: %w", err))
	}
	// Sync before rename: the published name must never point at bytes
	// that could still be lost to a crash (the torn-temp test's contract).
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("corpus: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("corpus: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("corpus: %w", err)
	}
	// A racing publisher may have opened its (byte-identical) file under
	// this name already; Get returns the cached entry in that case, which
	// still reads good bytes — rename replaced the directory entry, not
	// the open file.
	return s.Get(k)
}

// Item is one Manifest row. Files that fail to open are listed with Err
// set rather than dropped, so `popttrace ls` surfaces damage instead of
// hiding it.
type Item struct {
	Key    Key
	File   string
	Size   int64
	Events uint64
	Chunks int
	Err    error
}

// Manifest lists the corpus directory in name order, reading each
// container's footer (not its chunks; Verify walks those). Hidden files —
// in-flight temp recordings — are skipped.
func (s *Store) Manifest() ([]Item, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	var items []Item
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasPrefix(name, ".") || !strings.HasSuffix(name, Ext) {
			continue
		}
		it := Item{File: name}
		r, closer, err := OpenFile(filepath.Join(s.dir, name))
		if err != nil {
			it.Err = err
			items = append(items, it)
			continue
		}
		it.Key = KeyOf(r.Meta())
		it.Size = r.Size()
		it.Events = r.Events()
		it.Chunks = r.Chunks()
		closer.Close()
		items = append(items, it)
	}
	return items, nil
}

// OpenFile opens a single container file outside any store — the
// standalone-path form popttrace's info/verify/rechunk subcommands use.
// The reader is its own closer (it owns the mapping or descriptor behind
// it); the caller closes it when done.
func OpenFile(path string) (*trace.Reader, io.Closer, error) {
	r, err := trace.OpenContainerFile(path)
	if err != nil {
		return nil, nil, err
	}
	return r, r, nil
}

// Close releases every open entry. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, e := range s.entries {
		if err := e.r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.entries = nil
	s.open = make(map[string]*Entry)
	return first
}
