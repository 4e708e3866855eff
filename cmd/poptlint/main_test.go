package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// regressedHot is hot.go with one regression per axis the gate tracks:
// Add loses inlining and gains a heap escape, Sum gains a bounds check.
const regressedHot = `package hotmod

var sink interface{}

// Add now escapes an argument and refuses to inline.
//
//popt:hot
//go:noinline
func Add(a, b int) int {
	sink = a
	return a + b
}

// Sum indexes with a bound the compiler cannot tie to len(xs).
//
//popt:hot
func Sum(xs []int) int {
	s := 0
	for i := 0; i < 10; i++ {
		s += xs[i]
	}
	return s
}
`

// copyModule clones a testdata module into a fresh temp dir so tests can
// mutate sources without touching the checked-in fixtures.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runCmd invokes the command body and returns (exit code, stdout, stderr).
func runCmd(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestListExitsClean(t *testing.T) {
	code, out, _ := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d, want 0", code)
	}
	for _, name := range []string{"determinism", "policycontract", "statsdiscipline", "sharefreeze", "wireformat"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out)
		}
	}
	if n := strings.Count(out, "\n"); n != 5 {
		t.Errorf("-list shows %d analyzers, want 5:\n%s", n, out)
	}
}

func TestUpdateWithoutGateIsUsageError(t *testing.T) {
	code, _, errOut := runCmd(t, "-update")
	if code != 2 {
		t.Fatalf("-update alone: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-update only applies with -hotpath or -run wireformat") {
		t.Errorf("stderr missing usage hint: %s", errOut)
	}
}

func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	// lockguard was merged into sharefreeze; its old name is unknown now.
	for _, name := range []string{"nope", "lockguard"} {
		code, _, errOut := runCmd(t, "-run", name, "./...")
		if code != 2 {
			t.Fatalf("-run %s: exit %d, want 2", name, code)
		}
		if !strings.Contains(errOut, `unknown analyzer "`+name+`"`) {
			t.Errorf("stderr missing unknown-analyzer message: %s", errOut)
		}
	}
}

func TestLoadErrorExitsTwo(t *testing.T) {
	// An empty directory has no go.mod, so the loader must fail.
	code, _, errOut := runCmd(t, "-C", t.TempDir(), "./...")
	if code != 2 {
		t.Fatalf("load error: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "poptlint:") {
		t.Errorf("stderr missing error: %s", errOut)
	}
}

func TestFindingsExitOneWithFormattedDiagnostics(t *testing.T) {
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "lintmod"), "./...")
	if code != 1 {
		t.Fatalf("lintmod: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	// Diagnostics are file:line:col: message [analyzer].
	if !strings.Contains(out, "policy.go:") || !strings.Contains(out, "[policycontract]") {
		t.Errorf("stdout missing formatted policycontract finding:\n%s", out)
	}
	if !strings.Contains(out, "leaked") {
		t.Errorf("stdout does not name the leaking variable:\n%s", out)
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", errOut)
	}
}

func TestRunSelectionSkipsAnalyzer(t *testing.T) {
	// lintmod's package path is outside lint.SimPackages, so the
	// determinism analyzer alone reports nothing there.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "lintmod"), "-run", "determinism", "./...")
	if code != 0 {
		t.Fatalf("-run determinism: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
}

func TestShareFreezeFamilyFindings(t *testing.T) {
	// freezemod seeds one violation per sharefreeze contract; -run
	// sharefreeze must surface all three and exit 1.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "freezemod"), "-run", "sharefreeze", "./...")
	if code != 1 {
		t.Fatalf("-run sharefreeze on freezemod: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	for _, want := range []string{
		"mutating frozen Table after publication",
		"accesses c.n without holding mu",
		"goroutine in a loop assigns to captured variable total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "[sharefreeze]\n"); n != 3 {
		t.Errorf("stdout has %d sharefreeze findings, want 3:\n%s", n, out)
	}
	if !strings.Contains(errOut, "3 finding(s)") {
		t.Errorf("stderr missing findings summary: %s", errOut)
	}
}

func TestShareFreezeExcludesOtherAnalyzers(t *testing.T) {
	// Selecting sharefreeze must not drag the rest of the suite along:
	// lintmod's policycontract violation is invisible to it.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "lintmod"), "-run", "sharefreeze", "./...")
	if code != 0 {
		t.Fatalf("-run sharefreeze on lintmod: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
}

func TestRunSingleFreezeAnalyzer(t *testing.T) {
	// -run sharefreeze reports exactly the [sharefreeze] lines of a full
	// run: selection neither drops nor adds findings.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "freezemod"), "-run", "sharefreeze", "./...")
	if code != 1 {
		t.Fatalf("-run sharefreeze: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	_, all, _ := runCmd(t, "-C", filepath.Join("testdata", "freezemod"), "./...")
	var want []string
	for _, line := range strings.SplitAfter(all, "\n") {
		if strings.HasSuffix(line, "[sharefreeze]\n") {
			want = append(want, line)
		}
	}
	if got := strings.Join(want, ""); out != got {
		t.Errorf("-run sharefreeze output differs from the full run's sharefreeze findings:\n%s\nvs\n%s", out, got)
	}
}

func TestWirecheckFamilyFindings(t *testing.T) {
	// wiremod seeds one violation per wireformat check (parity, dispatch,
	// fingerprint lock); -run wireformat must surface all three and exit 1.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "wiremod"), "-run", "wireformat", "-wirebaseline", "wireformat.baseline", "./...")
	if code != 1 {
		t.Fatalf("-run wireformat on wiremod: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	for _, want := range []string{
		`asymmetric codec for opcode aopB of stream "pair"`,
		`wire fingerprint of stream "drift" changed but FormatVersions["drift"] is still 1`,
		"opcode dispatch in replaySilent does not handle bopC",
		"default clause of the opcode dispatch in replaySilent is silent",
		"[wireformat]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", errOut)
	}
}

func TestWirecheckExcludesOtherAnalyzers(t *testing.T) {
	// lintmod's policycontract violation is invisible to -run wireformat,
	// and a module with no //popt:codec annotations is vacuously clean.
	code, out, errOut := runCmd(t, "-C", filepath.Join("testdata", "lintmod"), "-run", "wireformat", "./...")
	if code != 0 {
		t.Fatalf("-run wireformat on lintmod: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
}

func TestWirecheckFlagExclusions(t *testing.T) {
	// -update regenerates the wire-format baseline only when wireformat
	// is the one analyzer selected; alongside others it is a usage error.
	for _, args := range [][]string{
		{"-update", "-run", "sharefreeze", "./..."},
		{"-update", "-run", "wireformat,determinism", "./..."},
	} {
		code, _, errOut := runCmd(t, args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errOut, "-update only applies with -hotpath or -run wireformat") {
			t.Errorf("%v: stderr missing usage hint: %s", args, errOut)
		}
	}
}

func TestWirecheckUpdateRefusesDriftWithoutBump(t *testing.T) {
	// Drift at an unchanged version must not be silently baselined: the
	// "drift" finding survives -update and the baseline file stays put.
	dir := copyModule(t, filepath.Join("testdata", "wiremod"))
	before, err := os.ReadFile(filepath.Join(dir, "wireformat.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "-C", dir, "-run", "wireformat", "-update", "-wirebaseline", "wireformat.baseline", "./...")
	if code != 1 {
		t.Fatalf("-run wireformat -update on drifted wiremod: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	if !strings.Contains(out, `wire fingerprint of stream "drift" changed`) {
		t.Errorf("stdout missing surviving drift finding:\n%s", out)
	}
	after, err := os.ReadFile(filepath.Join(dir, "wireformat.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("-update rewrote the baseline despite refusing the drift:\n%s", after)
	}
}

func TestWirecheckUpdateAfterVersionBump(t *testing.T) {
	// Bumping FormatVersions["drift"] makes the drift legitimate: -update
	// rewrites that stream's baseline entry, the drift finding disappears,
	// and a second -update is byte-identical.
	dir := copyModule(t, filepath.Join("testdata", "wiremod"))
	src, err := os.ReadFile(filepath.Join(dir, "wire.go"))
	if err != nil {
		t.Fatal(err)
	}
	bumped := strings.Replace(string(src), `"drift":  1,`, `"drift":  2,`, 1)
	if bumped == string(src) {
		t.Fatal("failed to bump the drift version in the fixture")
	}
	if err := os.WriteFile(filepath.Join(dir, "wire.go"), []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCmd(t, "-C", dir, "-run", "wireformat", "-update", "-wirebaseline", "wireformat.baseline", "./...")
	if code != 1 { // the parity and dispatch seeds remain
		t.Fatalf("-update after bump: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	if strings.Contains(out, `stream "drift"`) {
		t.Errorf("drift finding survived a legitimate bump + -update:\n%s", out)
	}
	first, err := os.ReadFile(filepath.Join(dir, "wireformat.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first), "stream drift version 2") || !strings.Contains(string(first), "op 1 copA varint") {
		t.Errorf("baseline not rewritten for the bumped stream:\n%s", first)
	}
	if code, _, errOut = runCmd(t, "-C", dir, "-run", "wireformat", "-update", "-wirebaseline", "wireformat.baseline", "./..."); code != 1 {
		t.Fatalf("second -update: exit %d, want 1 (stderr %q)", code, errOut)
	}
	second, err := os.ReadFile(filepath.Join(dir, "wireformat.baseline"))
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("-update is not idempotent:\n%s\nvs\n%s", first, second)
	}
	// The now-locked stream passes check mode too.
	code, out, _ = runCmd(t, "-C", dir, "-run", "wireformat", "-wirebaseline", "wireformat.baseline", "./...")
	if code != 1 || strings.Contains(out, `stream "drift"`) {
		t.Fatalf("check after bump+update: exit %d with drift findings?\n%s", code, out)
	}
}

func TestHotpathGate(t *testing.T) {
	dir := copyModule(t, filepath.Join("testdata", "hotmod"))

	// No baseline yet: the gate must refuse with a hint, not pass.
	code, _, errOut := runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline")
	if code != 2 {
		t.Fatalf("missing baseline: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "-update") {
		t.Errorf("stderr missing -update hint: %s", errOut)
	}

	// -update creates the baseline.
	code, out, errOut := runCmd(t, "-C", dir, "-hotpath", "-update", "-baseline", "hot.baseline")
	if code != 0 {
		t.Fatalf("-update: exit %d, want 0 (stderr %q)", code, errOut)
	}
	if !strings.Contains(out, "baseline updated") || !strings.Contains(out, "2 hot function(s)") {
		t.Errorf("unexpected -update output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "hot.baseline")); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	// A clean tree matches its own baseline.
	code, out, errOut = runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline")
	if code != 0 {
		t.Fatalf("clean diff: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
	if !strings.Contains(out, "ok") {
		t.Errorf("clean run output missing ok: %s", out)
	}

	// Regress every axis and watch the gate fail.
	if err := os.WriteFile(filepath.Join(dir, "hot.go"), []byte(regressedHot), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut = runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline")
	if code != 1 {
		t.Fatalf("regressed tree: exit %d, want 1 (stdout %q, stderr %q)", code, out, errOut)
	}
	for _, want := range []string{
		"regression: hotmod.Add: lost inlining",
		"regression: hotmod.Add: new heap escape",
		"regression: hotmod.Sum: bounds checks 0 -> 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(errOut, "regression(s)") {
		t.Errorf("stderr missing regression summary: %s", errOut)
	}

	// A deliberate -update accepts the new facts; the gate passes again.
	if code, _, errOut = runCmd(t, "-C", dir, "-hotpath", "-update", "-baseline", "hot.baseline"); code != 0 {
		t.Fatalf("re-update: exit %d, want 0 (stderr %q)", code, errOut)
	}
	if code, out, errOut = runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline"); code != 0 {
		t.Fatalf("post-update diff: exit %d, want 0 (stdout %q, stderr %q)", code, out, errOut)
	}
}

func TestHotpathDriftOnRemovedAnnotation(t *testing.T) {
	dir := copyModule(t, filepath.Join("testdata", "hotmod"))
	if code, _, errOut := runCmd(t, "-C", dir, "-hotpath", "-update", "-baseline", "hot.baseline"); code != 0 {
		t.Fatalf("-update: exit %d, want 0 (stderr %q)", code, errOut)
	}

	// Dropping one //popt:hot annotation is drift, not a regression, but
	// still fails the gate until -update records it.
	src, err := os.ReadFile(filepath.Join(dir, "hot.go"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.Replace(string(src), "//popt:hot\nfunc Add", "func Add", 1)
	if stripped == string(src) {
		t.Fatal("failed to strip the Add annotation from the fixture")
	}
	if err := os.WriteFile(filepath.Join(dir, "hot.go"), []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline")
	if code != 1 {
		t.Fatalf("drift: exit %d, want 1 (stdout %q)", code, out)
	}
	if !strings.Contains(out, "baseline-drift: hotmod.Add: in baseline but no longer annotated") {
		t.Errorf("diff output missing drift line:\n%s", out)
	}
}

func TestHotpathNoHotFunctionsIsError(t *testing.T) {
	// lintmod has no //popt:hot annotations: a silently green gate over
	// zero functions would be worthless, so the command refuses.
	code, _, errOut := runCmd(t, "-C", filepath.Join("testdata", "lintmod"), "-hotpath", "-baseline", "hot.baseline")
	if code != 2 {
		t.Fatalf("no hot functions: exit %d, want 2", code)
	}
	if !strings.Contains(errOut, "no //popt:hot functions") {
		t.Errorf("stderr missing explanation: %s", errOut)
	}
}

func TestHotpathBuildErrorExitsTwo(t *testing.T) {
	dir := copyModule(t, filepath.Join("testdata", "hotmod"))
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte("package hotmod\n\nfunc broken() { return 1 }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCmd(t, "-C", dir, "-hotpath", "-baseline", "hot.baseline")
	if code != 2 {
		t.Fatalf("broken module: exit %d, want 2 (stderr %q)", code, errOut)
	}
}
