package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The wireformat fixtures are split by check: each package seeds the
// defects of one check and is otherwise clean under the whole analyzer,
// against its own baseline.

func TestCodecPair(t *testing.T) {
	RunTest(t, "testdata", NewWireFormat(filepath.Join("testdata", "wire.baseline"), false), "wire")
}

func TestOpExhaust(t *testing.T) {
	RunTest(t, "testdata", NewWireFormat(filepath.Join("testdata", "wireop.baseline"), false), "wireop")
}

func TestFormatLock(t *testing.T) {
	RunTest(t, "testdata", NewWireFormat(filepath.Join("testdata", "wirelock.baseline"), false), "wirelock")
}

// TestWireFormatRealTree walks the real trace codecs: the checked-in
// baseline must hold them with zero findings, and a fresh -update
// rendering of their fingerprints must reproduce that baseline byte for
// byte. Its coverage profile is the evidence for which walk idioms the
// codecs actually use.
func TestWireFormatRealTree(t *testing.T) {
	pkgs, err := NewLoader(filepath.Join("..", "..")).Load("./internal/trace")
	if err != nil {
		t.Fatal(err)
	}
	checked := filepath.Join("testdata", "wireformat.baseline")
	findings, err := RunAnalyzers(pkgs, []*Analyzer{NewWireFormat(checked, false)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding on the real tree: %s", f)
	}
	fresh := filepath.Join(t.TempDir(), "wireformat.baseline")
	if _, err := RunAnalyzers(pkgs, []*Analyzer{NewWireFormat(fresh, true)}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(checked)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fingerprints of the real trace codecs differ from %s:\n%s", checked, got)
	}
}

// TestWireBaselineRoundTrip pins the baseline file format: write, read
// back, and re-write must be lossless and byte-identical, or -update
// would churn the checked-in file.
func TestWireBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wire.baseline")
	entries := map[string]*baselineEntry{
		"container": {version: 1, body: []string{"header magic:pc", "header version:u8", "op 1 cfChunk uvarint uvarint uvarint uvarint", "op 2 cfStats uvarint uvarint"}},
		"llc":       {version: 1, body: []string{"header magic:pl", "header version:u8", "op 1 lopAccessR pc varint", "op 5 lopStartIteration (empty)"}},
	}
	if err := writeWireBaseline(path, entries); err != nil {
		t.Fatal(err)
	}
	got, haveFile, err := readWireBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if !haveFile {
		t.Fatal("readWireBaseline did not see the file it was given")
	}
	if !reflect.DeepEqual(got, entries) {
		t.Fatalf("baseline did not round trip:\n got %+v\nwant %+v", got, entries)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeWireBaseline(path, got); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Fatalf("re-written baseline is not byte-identical:\n%s\nvs\n%s", first, second)
	}
}

// TestWireBaselineMissingFile pins the missing-file contract: not an
// error, so check mode reports per stream and update mode creates it.
func TestWireBaselineMissingFile(t *testing.T) {
	entries, haveFile, err := readWireBaseline(filepath.Join(t.TempDir(), "absent.baseline"))
	if err != nil {
		t.Fatalf("missing baseline must not be an error, got %v", err)
	}
	if haveFile || len(entries) != 0 {
		t.Fatalf("missing baseline reported haveFile=%v entries=%v", haveFile, entries)
	}
}
