package zkrownn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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
// parameter of the existing path instead.
func TestProverStackSurface(t *testing.T) {
	var multiExp, fft, prove []string
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
	} {
		if len(c.names) == 0 {
			t.Errorf("found no %s: the guard is looking in the wrong place", c.what)
		}
		if len(c.names) > c.max {
			t.Errorf("%d exported %s, at most %d allowed: %v", len(c.names), c.what, c.max, c.names)
		}
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
					scratch := path == "internal/poly/vecfile.go" || (path == "internal/engine/engine.go" && fn == "streamKeyDir")
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
