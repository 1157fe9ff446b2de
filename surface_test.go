package zkrownn

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportedDecl is one exported top-level function, method, type,
// variable or constant of a non-test file under internal/.
type exportedDecl struct {
	pkg  string // directory, e.g. "internal/poly"
	recv string // receiver type name for a method, "" otherwise
	name string
	fn   bool
}

func internalExports(t *testing.T) []exportedDecl {
	t.Helper()
	var out []exportedDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		add := func(recv string, id *ast.Ident, fn bool) {
			if id.IsExported() {
				out = append(out, exportedDecl{filepath.ToSlash(filepath.Dir(path)), recv, id.Name, fn})
			}
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					typ := decl.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					// A generic receiver stays "": none of the guarded types is one.
					if id, ok := typ.(*ast.Ident); ok {
						recv = id.Name
					}
				}
				add(recv, decl.Name, true)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add("", spec.Name, false)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add("", id, false)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProverStackSurface keeps the prover stack at one exported name per
// operation. Tracing and residency are arguments (a trailing obs.Scope;
// which key, constraints and witness types are passed), so a new
// capability that arrives as a sibling function — FooTraced,
// ProveSomehow, a ninth MultiExp — fails here and has to become a
// parameter of the existing path instead. The verifier has one body
// (Verify is BatchVerify of one proof) and the engine one call per
// operation: a VerifyMany or ProveMany beside Verify and Prove fails.
func TestProverStackSurface(t *testing.T) {
	var multiExp, fft, prove, verify, engineMethods []string
	for _, d := range internalExports(t) {
		if strings.HasSuffix(d.name, "Traced") {
			t.Errorf("%s exports %s: pass an obs.Scope to the untraced name instead of adding a twin", d.pkg, d.name)
		}
		switch {
		case d.pkg == "internal/bn254/curve" && strings.Contains(d.name, "Accelerator"):
			t.Errorf("%s declares %s: the MSM backend hook was removed; a backend plugs in at multiExpEntry", d.pkg, d.name)
		case d.pkg == "internal/bn254/curve" && d.fn && d.recv == "" && strings.HasPrefix(d.name, "MultiExp"):
			multiExp = append(multiExp, d.name)
		case d.pkg == "internal/poly" && d.recv == "Domain" && strings.Contains(d.name, "FFT"):
			fft = append(fft, d.name)
		case d.pkg == "internal/groth16" && d.fn && d.recv == "" && strings.HasPrefix(d.name, "Prove"):
			prove = append(prove, d.name)
		case d.pkg == "internal/groth16" && d.fn && d.recv == "" && strings.Contains(d.name, "Verify"):
			verify = append(verify, d.name)
		case d.pkg == "internal/engine" && d.fn && d.recv == "Engine":
			engineMethods = append(engineMethods, d.name)
		}
	}
	for _, c := range []struct {
		what  string
		names []string
		max   int
	}{
		{"curve.MultiExp* functions", multiExp, 8},
		{"FFT methods on poly.Domain", fft, 8},
		{"groth16.Prove* functions", prove, 2},
		{"groth16 functions named *Verify*", verify, 3},
	} {
		if len(c.names) == 0 {
			t.Errorf("found no %s: the guard is looking in the wrong place", c.what)
		}
		if len(c.names) > c.max {
			t.Errorf("%d exported %s, at most %d allowed: %v", len(c.names), c.what, c.max, c.names)
		}
	}
	sort.Strings(engineMethods)
	want := []string{"AggregateMany", "Close", "DropMemoryCache", "Keys", "Metrics", "Prove", "Stats", "Verify", "Workers"}
	if !slices.Equal(engineMethods, want) {
		t.Errorf("engine.Engine exports %v, want exactly %v: an operation gets one entry point, its variants are arguments", engineMethods, want)
	}
}

// TestProofServiceSchedulesByLoad keeps the proof service free of
// scheduling knobs and of clocks on its scheduling path: both pools are
// goroutines pulling from a queue, so a window, a batch size or a sleep
// that comes back — as an option or as a timer in the code — fails here.
func TestProofServiceSchedulesByLoad(t *testing.T) {
	paths, err := filepath.Glob("internal/service/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var options *ast.StructType
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Options" {
					options = st
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" {
					switch n.Sel.Name {
					case "NewTimer", "After", "Sleep", "Tick", "NewTicker", "AfterFunc":
						t.Errorf("%s: time.%s — the service waits on queues and channels, never on the clock",
							fset.Position(n.Pos()), n.Sel.Name)
					}
				}
			}
			return true
		})
	}
	if options == nil {
		t.Fatal("found no service.Options: the guard is looking in the wrong place")
	}
	fields := 0
	for _, f := range options.Fields.List {
		for _, name := range f.Names {
			fields++
			switch name.Name {
			case "VerifyWindow", "VerifyBatch", "ProveBatch", "Logf":
				t.Errorf("service.Options declares %s: the pools schedule by load, and Logger is the one log sink", name.Name)
			}
		}
	}
	if fields > 8 {
		t.Errorf("service.Options has %d fields, at most 8 allowed", fields)
	}
}

// TestOneDiskPath keeps one way to put a file on disk that a later run
// will trust: the temp-file → fsync → rename → fsync-directory sequence,
// the integrity frame and the raw proving-key layout each exist at one
// site. A second writer, a second frame codec or a second encoder that
// comes back — under an old name or by its calls — fails here.
func TestOneDiskPath(t *testing.T) {
	var syncs, crcTables, rawHeaders int
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		inDiskfile := strings.HasPrefix(path, "internal/diskfile/")
		fn := "" // the top-level function being walked
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = n.Name.Name
				switch fn {
				case "AtomicWriteFile", "writeFramedFile", "openFramed", "storeDisk", "loadDisk", "getDisk", "streamFromDisk":
					t.Errorf("%s declares %s: the disk path is diskfile.Write/WriteFramed/OpenFramed, engine.loadKeys and Engine.setup", path, fn)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "writeHeader" && len(n.Args) == 2 {
						if magic, ok := n.Args[1].(*ast.Ident); ok && magic.Name == "magicPKRaw" {
							rawHeaders++
						}
					}
					return true
				}
				pkg, _ := sel.X.(*ast.Ident)
				switch {
				case pkg != nil && pkg.Name == "os" && (sel.Sel.Name == "Rename" || sel.Sel.Name == "CreateTemp" || sel.Sel.Name == "MkdirTemp"):
					scratch := path == "internal/poly/vecfile.go" || (path == "internal/engine/engine.go" && fn == "keyDir")
					if !inDiskfile && !scratch {
						t.Errorf("%s: os.%s in %s — a file a later run trusts is written through internal/diskfile",
							fset.Position(n.Pos()), sel.Sel.Name, fn)
					}
				case pkg != nil && pkg.Name == "crc32" && sel.Sel.Name == "MakeTable":
					crcTables++
				case inDiskfile && sel.Sel.Name == "Sync" && len(n.Args) == 0:
					syncs++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if syncs < 2 {
		t.Errorf("internal/diskfile calls Sync %d times, want the file and its directory fsynced", syncs)
	}
	if crcTables != 1 {
		t.Errorf("%d crc32.MakeTable calls under internal/, want the one frame codec's", crcTables)
	}
	if rawHeaders != 1 {
		t.Errorf("magicPKRaw is passed to writeHeader at %d call sites, want the one raw-layout writer", rawHeaders)
	}
}

// TestOneMetricsSource keeps every number counted once. An engine's and a
// server's series live on registries they own, and Stats(), /v1/stats and
// /metrics are renderings of those series: a shadow atomic counter beside
// a series, a series parked on the process-wide registry, or a wire
// struct re-declared in the client — each a second source that can
// disagree with the first — fails here.
func TestOneMetricsSource(t *testing.T) {
	fset := token.NewFileSet()
	parseDir := func(dir string) map[string]*ast.File {
		paths, err := filepath.Glob(dir + "/*.go")
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]*ast.File{}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files[filepath.ToSlash(path)] = file
		}
		return files
	}
	// structType finds the declaration of a named struct type in a package.
	structType := func(dir, name string) *ast.StructType {
		for _, file := range parseDir(dir) {
			for _, decl := range file.Decls {
				gen, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gen.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
						if st, ok := ts.Type.(*ast.StructType); ok {
							return st
						}
					}
				}
			}
		}
		t.Fatalf("found no struct %s in %s: the guard is looking in the wrong place", name, dir)
		return nil
	}
	countFields := func(st *ast.StructType) (n int) {
		for _, f := range st.Fields.List {
			n += max(len(f.Names), 1)
		}
		return n
	}

	// No counter lives outside a registry. atomic.Bool lifecycle flags are
	// not counters.
	for _, owner := range []struct{ dir, name string }{{"internal/engine", "Engine"}, {"internal/service", "Server"}} {
		for _, f := range structType(owner.dir, owner.name).Fields.List {
			sel, ok := f.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "atomic" {
				switch sel.Sel.Name {
				case "Uint64", "Int64", "Uint32", "Int32":
					t.Errorf("%s.%s declares an atomic.%s field (%v): count on a series of the owner's registry, and read it back from there",
						owner.dir, owner.name, sel.Sel.Name, f.Names)
				}
			}
		}
	}

	// The process-wide registry holds only what no engine or server owns,
	// and is read at the one /metrics mount.
	defaultCalls := map[string]int{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // build and VCS directories
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Default" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "obs" {
						defaultCalls[filepath.ToSlash(path)]++
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path, n := range defaultCalls {
		switch {
		case path == "internal/r1cs/metrics.go":
		case path == "internal/service/service.go" && n == 1:
		default:
			t.Errorf("%s calls obs.Default() %d times: only the r1cs I/O counters register there, and only the /metrics mount reads it", path, n)
		}
	}
	if defaultCalls["internal/r1cs/metrics.go"] == 0 || defaultCalls["internal/service/service.go"] != 1 {
		t.Errorf("obs.Default() calls: %v, want the r1cs registrations and the one /metrics mount", defaultCalls)
	}

	// One struct per JSON message: the client uses the server's.
	clientFiles := parseDir("client")
	if len(clientFiles) == 0 {
		t.Fatal("found no client/*.go: the guard is looking in the wrong place")
	}
	for _, file := range clientFiles {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if f.Tag != nil && strings.Contains(f.Tag.Value, "json:") {
					t.Errorf("%s declares a struct with a json tag: wire messages are declared once, in internal/service/wire.go, and aliased here",
						fset.Position(st.Pos()))
					break
				}
			}
			return true
		})
	}

	// And none of this became a knob.
	if n := countFields(structType("internal/service", "Options")); n != 8 {
		t.Errorf("service.Options has %d fields, want 8", n)
	}
	if n := countFields(structType("internal/engine", "Options")); n != 5 {
		t.Errorf("engine.Options has %d fields, want 5", n)
	}
}

// TestOneResidencyDecision keeps residency decided once. The memory
// budget is read at one site, which turns it into a Plan; everything
// after that — the key's form, where proves read constraint rows, whether
// the witness is paged, which counters tick — reads the plan. A second
// budget test, a nil-coded backend field on KeyPair, or a stream/spill
// flag threaded through the engine again fails here.
func TestOneResidencyDecision(t *testing.T) {
	fset := token.NewFileSet()
	budgetReaders := map[string]bool{}
	var keyPair, options *ast.StructType
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		inEngine := strings.HasPrefix(path, "internal/engine/")
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				ast.Inspect(decl, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "MemoryBudget" {
						budgetReaders[path+":"+decl.Name.Name] = true
					}
					return true
				})
				for _, f := range decl.Type.Params.List {
					id, isBool := f.Type.(*ast.Ident)
					for _, name := range f.Names {
						if inEngine && isBool && id.Name == "bool" && (name.Name == "stream" || name.Name == "spill") {
							t.Errorf("%s: %s takes a bool named %s: pass the Plan", path, decl.Name.Name, name.Name)
						}
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !inEngine {
						continue
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						switch ts.Name.Name {
						case "KeyPair":
							keyPair = st
						case "Options":
							options = st
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(budgetReaders) != 1 {
		t.Errorf("functions under internal/ that read .MemoryBudget: %v, want exactly one", budgetReaders)
	}
	if keyPair == nil || options == nil {
		t.Fatal("found no engine.KeyPair or engine.Options: the guard is looking in the wrong place")
	}
	provingKeys := 0
	for _, f := range keyPair.Fields.List {
		for _, name := range f.Names {
			if name.Name == "Stream" || name.Name == "CSFile" {
				t.Errorf("engine.KeyPair declares %s: the key's form is PK's dynamic type, the constraints' is the plan's", name.Name)
			}
		}
		typ := f.Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if sel, ok := typ.(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "ProverKey", "ProvingKey", "StreamedProvingKey":
				provingKeys += max(len(f.Names), 1)
			}
		}
	}
	if provingKeys != 1 {
		t.Errorf("engine.KeyPair has %d proving-key fields, want the one groth16.ProverKey", provingKeys)
	}
	fields := 0
	for _, f := range options.Fields.List {
		fields += max(len(f.Names), 1)
	}
	if fields != 5 {
		t.Errorf("engine.Options has %d fields, want 5", fields)
	}
}

// TestOneConstraintRepresentation keeps r1cs.CompiledSystem the only form
// a constraint system takes. The eager per-constraint representation, its
// converters and the builder's shim over them are gone; hand-written
// systems come from internal/r1cs/r1cstest, whose oracle file
// TestOraclesShareNoCode keeps on the standard library alone. And rows
// are read one way: outside internal/r1cs and the builder that fills the
// CSR arrays (internal/frontend), no non-test file selects .RowOffs, so
// setup, the prover and everything else walk r1cs.MatrixStream windows
// whether the system is resident or a file.
func TestOneConstraintRepresentation(t *testing.T) {
	gone := map[string]bool{"System": true, "Term": true, "LinearCombination": true, "Constraint": true,
		"FromSystem": true, "ToSystem": true, "WitnessAssignment": true}
	for _, d := range internalExports(t) {
		switch {
		case d.pkg == "internal/r1cs" && gone[d.name]:
			t.Errorf("internal/r1cs exports %s again: CompiledSystem is the one representation, r1cstest.Rows the test fixture", d.name)
		case d.pkg == "internal/frontend" && (d.recv == "Builder" && d.name == "Finalize" || d.recv == "" && d.name == "PublicValues"):
			t.Errorf("internal/frontend exports %s again: Builder.Compile and CompiledSystem.PublicValues are the path", d.name)
		}
	}

	const path = "internal/r1cs/r1cstest/oracle.go"
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]bool{}
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
			oracle[fn.Name.Name] = true
		}
	}
	if !oracle["Satisfied"] || !oracle["Digest"] {
		t.Errorf("%s declares %v: Satisfied and Digest belong in the standard-library-only file", path, oracle)
	}

	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		path = filepath.ToSlash(path)
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") ||
			strings.HasPrefix(path, "internal/r1cs/") || strings.HasPrefix(path, "internal/frontend/") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "RowOffs" {
				t.Errorf("%s: reads .RowOffs — constraint rows are read through r1cs.MatrixStream windows", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOraclesShareNoCode keeps the test references independent of what
// they check. r1cstest's oracle (constraint rows, digests) and its
// uniqueness check, and every file of internal/bn254/refimpl (the
// fields and F_p¹²) import the standard library only — if an oracle
// shared arithmetic with the stack, agreeing with it would prove
// nothing — and only _test.go files import either package.
func TestOraclesShareNoCode(t *testing.T) {
	oracles := []struct {
		pkg    string
		stdlib func(path string) bool // a file that may import the standard library only
		files  int
	}{
		{pkg: "zkrownn/internal/r1cs/r1cstest", stdlib: func(path string) bool {
			return path == "internal/r1cs/r1cstest/oracle.go" || path == "internal/r1cs/r1cstest/unique.go"
		}},
		{pkg: "zkrownn/internal/bn254/refimpl", stdlib: func(path string) bool { return strings.HasPrefix(path, "internal/bn254/refimpl/") }},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build scratch
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		for i := range oracles {
			o := &oracles[i]
			stdlibOnly := o.stdlib(path)
			if stdlibOnly {
				o.files++
			}
			for _, imp := range file.Imports {
				target := strings.Trim(imp.Path.Value, `"`)
				if target == o.pkg {
					t.Errorf("%s imports %s: it is test support, for _test.go files only", path, o.pkg)
				}
				// A standard-library import path has no dot in its first element
				// and is not this module's.
				first, _, _ := strings.Cut(target, "/")
				if stdlibOnly && (strings.Contains(first, ".") || first == "zkrownn") {
					t.Errorf("%s imports %s: the oracle is standard library only", path, target)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range oracles {
		if o.files == 0 {
			t.Errorf("found no oracle file of %s: the guard is looking in the wrong place", o.pkg)
		}
	}
}

// TestOneLaneToolkit keeps the AVX-512 IFMA arithmetic in one leaf
// package, internal/bn254/lanes, where TestKernelBounds checks every
// kernel's bounds:
//   - no assembly file includes a header from outside its own
//     directory: go build does not track such a header, so an edit to it
//     would leave stale kernels linked;
//   - VPMADD52 appears in no assembly outside the package, and curve
//     keeps none at all;
//   - the package imports only internal/cpu and the standard library, so
//     every field and curve package can import it.
func TestOneLaneToolkit(t *testing.T) {
	const lanes = "internal/bn254/lanes/"
	toolchain := map[string]bool{"textflag.h": true, "go_asm.h": true, "funcdata.h": true}
	include := regexp.MustCompile(`(?m)^\s*#include\s+"([^"]+)"`)
	var kernels, laneFiles int
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build scratch
			}
			return nil
		}
		slash := filepath.ToSlash(path)
		switch filepath.Ext(path) {
		case ".s", ".h":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if strings.HasPrefix(slash, "internal/bn254/curve/") {
				t.Errorf("%s: curve keeps no assembly; lane kernels live in %s", slash, lanes)
			}
			if strings.Contains(string(src), "VPMADD52") {
				if !strings.HasPrefix(slash, lanes) {
					t.Errorf("%s uses VPMADD52: IFMA kernels live in %s, where their bounds are checked", slash, lanes)
				}
				kernels++
			}
			for _, m := range include.FindAllStringSubmatch(string(src), -1) {
				h := m[1]
				if toolchain[h] {
					continue
				}
				if strings.ContainsAny(h, `/\`) {
					t.Errorf("%s includes %q from another directory: go build does not rebuild on its edits", slash, h)
				} else if _, err := os.Stat(filepath.Join(filepath.Dir(path), h)); err != nil {
					t.Errorf("%s includes %q, which is not in its directory", slash, h)
				}
			}
		case ".go":
			if !strings.HasPrefix(slash, lanes) || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			laneFiles++
			file, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				target := strings.Trim(imp.Path.Value, `"`)
				first, _, _ := strings.Cut(target, "/")
				if target != "zkrownn/internal/cpu" && (strings.Contains(first, ".") || first == "zkrownn") {
					t.Errorf("%s imports %s: the lane package imports only internal/cpu and the standard library", slash, target)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if kernels == 0 || laneFiles == 0 {
		t.Errorf("found %d IFMA assembly files and %d Go files under %s: the guard is looking in the wrong place", kernels, laneFiles, lanes)
	}
}

// TestOneFieldCore keeps the 4-limb Montgomery arithmetic of both BN254
// fields in one package, internal/bn254/mont, where one suite checks it
// per modulus: outside it, no non-test Go file declares a mulGeneric or
// squareGeneric over field elements and no assembly holds a MULXQ
// kernel. The one exception is the F_p² core in ext: e2_amd64.s and its
// portable twin, whose mulGeneric and squareGeneric take *E2 operands.
// fp and fr hold no assembly, and the core imports only internal/cpu and
// the standard library, so every field package can import it.
func TestOneFieldCore(t *testing.T) {
	const core = "internal/bn254/mont/"
	const e2Kernel = "internal/bn254/ext/e2_amd64.s"
	generic := map[string]bool{"mulGeneric": true, "squareGeneric": true}
	coreDecls, coreKernels := map[string]bool{}, 0
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, build scratch
			}
			return nil
		}
		slash := filepath.ToSlash(path)
		inCore := strings.HasPrefix(slash, core)
		switch filepath.Ext(path) {
		case ".s":
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if strings.HasPrefix(slash, "internal/bn254/fp/") || strings.HasPrefix(slash, "internal/bn254/fr/") {
				t.Errorf("%s: fp and fr keep no assembly; the field kernels live in %s", slash, core)
			}
			if strings.Contains(string(src), "MULXQ") {
				switch {
				case inCore:
					coreKernels++
				case slash != e2Kernel:
					t.Errorf("%s holds a MULXQ kernel: the Montgomery kernels live in %s", slash, core)
				}
			}
		case ".go":
			if strings.HasSuffix(path, "_test.go") {
				return nil
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if filepath.ToSlash(filepath.Dir(path))+"/" == core {
				for _, imp := range file.Imports {
					target := strings.Trim(imp.Path.Value, `"`)
					first, _, _ := strings.Cut(target, "/")
					if target != "zkrownn/internal/cpu" && (strings.Contains(first, ".") || first == "zkrownn") {
						t.Errorf("%s imports %s: the field core imports only internal/cpu and the standard library", slash, target)
					}
				}
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !generic[fn.Name.Name] {
					continue
				}
				if inCore {
					coreDecls[fn.Name.Name] = true
					continue
				}
				if params := fn.Type.Params.List; slash == "internal/bn254/ext/e2.go" && len(params) > 0 {
					if star, ok := params[0].Type.(*ast.StarExpr); ok {
						if id, ok := star.X.(*ast.Ident); ok && id.Name == "E2" {
							continue
						}
					}
				}
				t.Errorf("%s declares %s: the Montgomery core lives in %s", slash, fn.Name.Name, core)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(coreDecls) != len(generic) || coreKernels == 0 {
		t.Errorf("found %v and %d MULXQ kernels under %s: the guard is looking in the wrong place", coreDecls, coreKernels, core)
	}
}

// TestOneGroupCopy keeps the group-level code of G1 and G2 in one
// generic copy. It pairs the functions and methods of each non-test file
// under internal/ (refimpl excepted: the oracle keeps its own groups)
// whose names, receiver included, match once G1 is read as G2 and g1 as
// g2, and fails on a pair whose bodies print identically under the same
// reading and hold at least seven statements — nested ones counted,
// blocks not. Such a body touches no coordinate, so it belongs written
// once over curve.Jacobian. Seven is one above FromAffine (six), the
// largest twin that must stay: it writes coordinates.
func TestOneGroupCopy(t *testing.T) {
	const minStmts = 7
	toG2 := strings.NewReplacer("G1", "G2", "g1", "g2")
	type fn struct {
		pos   string
		body  string
		stmts int
	}
	fns := map[string]fn{} // "dir recv.name" or "dir name"
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && filepath.ToSlash(path) == "internal/bn254/refimpl" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			decl, ok := decl.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			recv := ""
			if decl.Recv != nil && len(decl.Recv.List) == 1 {
				typ := decl.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch g := typ.(type) {
				case *ast.IndexExpr:
					typ = g.X
				case *ast.IndexListExpr:
					typ = g.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					recv = id.Name
				}
			}
			var body strings.Builder
			if err := printer.Fprint(&body, fset, decl.Body); err != nil {
				return err
			}
			stmts := 0
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if _, ok := n.(ast.Stmt); ok {
					if _, block := n.(*ast.BlockStmt); !block {
						stmts++
					}
				}
				return true
			})
			name := strings.TrimPrefix(recv+"."+decl.Name.Name, ".")
			fns[filepath.ToSlash(filepath.Dir(path))+" "+name] = fn{
				fmt.Sprintf("%s (%s)", name, fset.Position(decl.Pos())), body.String(), stmts}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(fns))
	for key := range fns {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	pairs := 0
	for _, key := range keys {
		twin := toG2.Replace(key)
		g2, ok := fns[twin]
		if twin == key || !ok {
			continue
		}
		pairs++
		if g1 := fns[key]; g1.stmts >= minStmts && toG2.Replace(g1.body) == g2.body {
			t.Errorf("%s and %s: one body of %d statements written twice; write it once over curve.Jacobian",
				g1.pos, g2.pos, g1.stmts)
		}
	}
	if pairs == 0 {
		t.Error("found no G1/G2 pair: the guard is looking in the wrong place")
	}
}

// TestOneClaimSpec keeps the shape of an ownership claim decided in
// internal/core. core.Spec owns the fixed-point format, the choice of
// circuit and the reading of an instance; the CLI, the proof service and
// the public Go API build a Spec and call it. A front end that compiles
// a circuit, encodes a key, digests a model or reads claim bits itself,
// or spells out a fixed-point format, fails here.
func TestOneClaimSpec(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "cmd/zkrownn", "internal/service"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) == 0 {
			t.Fatalf("no Go files under %s: the guard is looking in the wrong place", dir)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "core" &&
						(strings.HasSuffix(sel.Sel.Name, "ExtractionCircuit") || slices.Contains([]string{"QuantizeKey", "ModelDigest", "ClaimBits"}, sel.Sel.Name)) {
						t.Errorf("%s: calls core.%s: compile, key, digest and claims go through core.Spec", fset.Position(n.Pos()), sel.Sel.Name)
					}
				case *ast.CompositeLit:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Params" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "fixpoint" {
							t.Errorf("%s: builds a fixpoint.Params literal: the format is core.Spec.Params", fset.Position(n.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}
