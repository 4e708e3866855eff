package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
)

// NewWireFormat builds the wireformat analyzer, which holds the
// hand-written wire codecs in internal/trace to their byte-level contract.
// It parses the //popt:codec annotations once, extracts every annotated
// function once (wirewalk.go), and runs three checks over that one
// extraction:
//
//   - parity: per stream, each encoder's per-opcode payload op sequence
//     must match every decoder's, no opcode may be encoded but never
//     dispatched or dispatched but never encoded, and a stream needs both
//     codec sides. An asymmetry is a silent corruption bug: the decoder
//     would misread every event after the first mismatched payload.
//   - dispatch: every opcode dispatch switch in a decoder must cover the
//     declared opcode set (the leading iota run of the constants' block;
//     masks and markers declared after an explicit re-valuing are not
//     opcodes), and its default clause must panic or return an error, so
//     corruption is never quietly misdecoded.
//   - lock: each stream's canonical fingerprint — its trace.FormatVersions
//     entry, its trace.HeaderFields entry, and every opcode's payload op
//     sequence — is diffed against the checked-in baseline at path.
//     Evolving a format is a deliberate two-step: bump the stream's
//     FormatVersions entry, then regenerate the baseline with
//     `poptlint -run wireformat -update`. Drift without a bump is refused
//     in both modes; old encoded bytes would otherwise be misread by a
//     decoder that believes nothing changed. With update set, drifted
//     streams whose version was bumped are rewritten in place instead of
//     reported, and streams FormatVersions no longer declares are dropped.
func NewWireFormat(path string, update bool) *Analyzer {
	a := &Analyzer{
		Name: "wireformat",
		Doc: "checks //popt:codec wire codecs: encoder/decoder parity of each " +
			"opcode's payload ops, opcode dispatch switches that cover every " +
			"declared opcode and fail loudly on unknown ones, and each stream's " +
			"fingerprint against the checked-in baseline (drift needs a " +
			"FormatVersions bump plus -update)",
	}
	a.Run = func(pass *Pass) error {
		fns := parseCodecFuncs(pass)
		if len(fns) == 0 {
			return nil
		}
		w := newWireWalker(pass)
		info := extractWire(w, fns)
		checkParity(pass, info)
		checkDispatch(pass, w, info)
		return checkLock(pass, info, path, update)
	}
	return a
}

// checkParity reports encoder/decoder asymmetries per stream.
func checkParity(pass *Pass, info *wireInfo) {
	for _, name := range info.names {
		st := info.streams[name]
		if len(st.encFns) == 0 {
			for _, dec := range st.decs {
				pass.Reportf(dec.fn.decl.Pos(), "stream %q has decoder annotations but no //popt:codec %s enc function", name, name)
			}
			continue
		}
		if len(st.decs) == 0 {
			pass.Reportf(st.encFns[0].decl.Pos(), "stream %q has encoder annotations but no //popt:codec %s dec function", name, name)
			continue
		}
		encOps := sortedOps(st.encArms)
		for _, dec := range st.decs {
			if len(dec.switches) == 0 {
				pass.Reportf(dec.fn.decl.Pos(), "decoder %s of stream %q has no opcode dispatch switch; the parity check needs one switch over the opcode constants", dec.fn.name(), name)
				continue
			}
			for _, op := range encOps {
				enc := st.encArms[op]
				d, ok := dec.arms[op]
				if !ok {
					pass.Reportf(enc.pos, "opcode %s of stream %q is encoded by %s but never dispatched in decoder %s",
						enc.name, name, enc.fn.name(), dec.fn.name())
					continue
				}
				if seqString(enc.seq) != seqString(d.seq) {
					pass.Reportf(d.pos, "asymmetric codec for opcode %s of stream %q: %s encodes [%s] but %s decodes [%s]",
						enc.name, name, enc.fn.name(), seqString(enc.seq), dec.fn.name(), seqString(d.seq))
				}
			}
			for _, op := range sortedOps(dec.arms) {
				if _, ok := st.encArms[op]; !ok {
					d := dec.arms[op]
					pass.Reportf(d.pos, "opcode %s of stream %q is dispatched in decoder %s but never encoded",
						d.name, name, dec.fn.name())
				}
			}
		}
	}
}

func sortedOps(arms map[int64]*wireArm) []int64 {
	ops := make([]int64, 0, len(arms))
	for op := range arms { //lint:ordered (sorted below)
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	return ops
}

// checkDispatch reports dispatch switches that miss a declared opcode or
// whose default clause is absent or silent.
func checkDispatch(pass *Pass, w *wireWalker, info *wireInfo) {
	for _, name := range info.names {
		for _, dec := range info.streams[name].decs {
			for _, ds := range dec.switches {
				var missing []string
				for _, op := range ds.block.universe {
					if !ds.caseVals[ds.block.values[op]] {
						missing = append(missing, op)
					}
				}
				sort.Strings(missing)
				if len(missing) > 0 {
					pass.Reportf(ds.sw.Pos(),
						"opcode dispatch in %s does not handle %s (declared in the %s opcode block); every opcode must have an arm",
						dec.fn.name(), strings.Join(missing, ", "), ds.block.universe[0])
				}
				switch {
				case ds.def == nil:
					pass.Reportf(ds.sw.Pos(),
						"opcode dispatch in %s has no default clause; an unknown opcode must panic or return an error, not fall through silently",
						dec.fn.name())
				case !loudStmts(w, ds.def.Body):
					pass.Reportf(ds.def.Pos(),
						"default clause of the opcode dispatch in %s is silent; corrupt opcodes must panic (badOp) or return an error",
						dec.fn.name())
				}
			}
		}
	}
}

// loudStmts reports whether the statements reach a panic (directly or via
// a same-package panicking helper like badOp) or return a non-nil error.
func loudStmts(w *wireWalker, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		loud := mentions(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				return w.callPanics(n)
			case *ast.ReturnStmt:
				return w.isErrorReturn(n)
			}
			return false
		})
		if loud {
			return true
		}
	}
	return false
}

// wireBaselineHeader is written atop generated baseline files. Its last
// line still gives the old `-wirecheck -update` spelling of
// `-run wireformat -update`: the checked-in baselines carry it byte for
// byte, so it changes together with them at the next format bump.
const wireBaselineHeader = `# poptlint wirecheck fingerprint baseline.
# One section per //popt:codec stream: the declared format version, the
# fixed-width header fields, and each opcode's payload op sequence.
# Regenerate deliberately with: go run ./cmd/poptlint -wirecheck -update ./...
`

// baselineEntry is one stream section of the baseline file.
type baselineEntry struct {
	version int64
	body    []string // "header ..." and "op ..." lines, canonical order
}

// checkLock diffs every encoded stream's fingerprint against the baseline
// file and, with update, rewrites the file for deliberate changes.
func checkLock(pass *Pass, info *wireInfo, path string, update bool) error {
	versions, versionPos := wireRegistry(pass)
	headers := wireHeaderFields(pass)
	baseline, haveFile, err := readWireBaseline(path)
	if err != nil {
		return err
	}
	changed := false
	for _, name := range info.names {
		st := info.streams[name]
		if len(st.encArms) == 0 {
			continue // a stream with no encoded opcode has no layout to lock
		}
		ver, declared := versions[name]
		if !declared {
			pass.Reportf(st.encFns[0].decl.Pos(),
				"stream %q has //popt:codec annotations but no FormatVersions entry; add one so the wire layout is versioned", name)
			continue
		}
		pos := versionPos[name]
		entry := &baselineEntry{version: ver, body: fingerprintBody(st, headers[name])}
		base, inBaseline := baseline[name]
		switch {
		case !inBaseline:
			if update {
				baseline[name] = entry
				changed = true
			} else {
				pass.Reportf(pos,
					"stream %q has no entry in the wire-format baseline %s; run `poptlint -run wireformat -update` to record it", name, path)
			}
		case entry.version == base.version && strings.Join(entry.body, "\n") == strings.Join(base.body, "\n"):
			// Locked and matching.
		case entry.version == base.version:
			pass.Reportf(pos,
				"wire fingerprint of stream %q changed but FormatVersions[%q] is still %d; bump the version, then regenerate the baseline with `poptlint -run wireformat -update`",
				name, name, ver)
		default:
			if update {
				baseline[name] = entry
				changed = true
			} else {
				pass.Reportf(pos,
					"wire-format baseline for stream %q is stale (baseline version %d, package declares %d); regenerate it with `poptlint -run wireformat -update`",
					name, base.version, entry.version)
			}
		}
	}
	// The package that declares the registry owns the stream list: a
	// baseline section for a stream it no longer declares is a retired
	// format, reported at the registry until -update drops it.
	if len(versions) > 0 {
		at := token.NoPos
		for _, p := range versionPos { //lint:ordered (minimum is order-independent)
			if at == token.NoPos || p < at {
				at = p
			}
		}
		var retired []string
		for name := range baseline { //lint:ordered (sorted below)
			if _, declared := versions[name]; !declared {
				retired = append(retired, name)
			}
		}
		sort.Strings(retired)
		for _, name := range retired {
			if update {
				delete(baseline, name)
				changed = true
			} else {
				pass.Reportf(at,
					"wire-format baseline records stream %q, which FormatVersions no longer declares; drop it with `poptlint -run wireformat -update`", name)
			}
		}
	}
	if update && (changed || !haveFile) {
		if err := writeWireBaseline(path, baseline); err != nil {
			return fmt.Errorf("writing wire baseline %s: %w", path, err)
		}
	}
	return nil
}

// fingerprintBody renders the canonical lines for one stream: header
// fields in declared order, then opcodes sorted by value.
func fingerprintBody(st *streamCodec, headerFields []string) []string {
	var body []string
	for _, f := range headerFields {
		body = append(body, "header "+f)
	}
	for _, op := range sortedOps(st.encArms) {
		arm := st.encArms[op]
		body = append(body, fmt.Sprintf("op %d %s %s", op, arm.name, seqString(arm.seq)))
	}
	return body
}

// readWireBaseline parses the baseline file. A missing file is not an
// error (check mode reports per stream; update mode creates it).
func readWireBaseline(path string) (map[string]*baselineEntry, bool, error) {
	out := make(map[string]*baselineEntry)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return out, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var cur *baselineEntry
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "stream "):
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[2] != "version" {
				return nil, false, fmt.Errorf("%s:%d: malformed stream line %q", path, lineNo+1, line)
			}
			v, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				return nil, false, fmt.Errorf("%s:%d: bad version in %q", path, lineNo+1, line)
			}
			cur = &baselineEntry{version: v}
			out[fields[1]] = cur
		case line == "end":
			cur = nil
		default:
			if cur == nil {
				return nil, false, fmt.Errorf("%s:%d: line %q outside a stream section", path, lineNo+1, line)
			}
			cur.body = append(cur.body, line)
		}
	}
	return out, true, nil
}

// writeWireBaseline renders the baseline deterministically: streams
// sorted by name, one section each.
func writeWireBaseline(path string, entries map[string]*baselineEntry) error {
	names := make([]string, 0, len(entries))
	for name := range entries { //lint:ordered (sorted below)
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString(wireBaselineHeader)
	for _, name := range names {
		e := entries[name]
		fmt.Fprintf(&b, "stream %s version %d\n", name, e.version)
		for _, line := range e.body {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteString("end\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// wireRegistry extracts the package-level `var FormatVersions =
// map[string]byte{...}` registry: stream name -> version, plus each
// entry's source position.
func wireRegistry(pass *Pass) (map[string]int64, map[string]token.Pos) {
	values := make(map[string]int64)
	positions := make(map[string]token.Pos)
	forEachRegistryEntry(pass, "FormatVersions", func(key string, kv *ast.KeyValueExpr) {
		if tv := pass.TypesInfo.Types[kv.Value]; tv.Value != nil {
			if v, ok := constant.Int64Val(constant.ToInt(tv.Value)); ok {
				values[key] = v
				positions[key] = kv.Pos()
			}
		}
	})
	return values, positions
}

// wireHeaderFields extracts the `var HeaderFields = map[string][]string`
// declaration: stream name -> header field names in declared order.
func wireHeaderFields(pass *Pass) map[string][]string {
	out := make(map[string][]string)
	forEachRegistryEntry(pass, "HeaderFields", func(key string, kv *ast.KeyValueExpr) {
		lit, ok := kv.Value.(*ast.CompositeLit)
		if !ok {
			return
		}
		var fields []string
		for _, el := range lit.Elts {
			if tv := pass.TypesInfo.Types[el]; tv.Value != nil && tv.Value.Kind() == constant.String {
				fields = append(fields, constant.StringVal(tv.Value))
			}
		}
		out[key] = fields
	})
	return out
}

// forEachRegistryEntry visits the string-keyed entries of a package-level
// map-literal var with the given name.
func forEachRegistryEntry(pass *Pass, varName string, visit func(key string, kv *ast.KeyValueExpr)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if name.Name != varName || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, el := range lit.Elts {
						kv, ok := el.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						if tv := pass.TypesInfo.Types[kv.Key]; tv.Value != nil && tv.Value.Kind() == constant.String {
							visit(constant.StringVal(tv.Value), kv)
						}
					}
				}
			}
		}
	}
}
