package experiment

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestOneAssemblySite keeps the package's stacks built, observed and
// driven in one place: outside stack.go no non-test file may call the
// constructors of the layers a stack is made of, start the sampler,
// report engine events, or drive an engine by hand. A new experiment
// is an Experiment value handed to Execute, not another executor: only
// Execute and CaptureDay call newStack, and the package has one
// withDefaults.
func TestOneAssemblySite(t *testing.T) {
	// Package-qualified constructors, and methods by name whatever the
	// receiver expression.
	constructors := map[string]bool{
		"rig.New": true, "volume.New": true, "fs.Newfs": true,
		"server.New": true, "core.New": true,
	}
	methods := map[string]bool{
		"StartSampler": true, "SetEngineEvents": true, "RunUntil": true,
	}
	// latentBadRange builds a throwaway scout volume only to read a
	// label mapping off it; it never runs an engine.
	allowed := map[string]string{"latentBadRange": "volume.New"}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "stack.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := pkgs["experiment"].Files
	if len(files) < 10 {
		t.Fatalf("parsed %d files of the package, expected the whole of it", len(files))
	}
	var stackBuilders, defaulters []string
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn.Name.Name == "withDefaults" {
				defaulters = append(defaulters, fset.Position(fn.Pos()).String())
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "newStack" {
					stackBuilders = append(stackBuilders, fn.Name.Name)
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if x, ok := sel.X.(*ast.Ident); ok && constructors[x.Name+"."+name] {
					name = x.Name + "." + name
				} else if !methods[name] {
					return true
				}
				if allowed[fn.Name.Name] == name {
					return true
				}
				t.Errorf("%s: %s calls %s; describe the stack and let stack.go do it",
					fset.Position(call.Pos()), fn.Name.Name, name)
				return true
			})
		}
	}
	sort.Strings(stackBuilders)
	if want := []string{"CaptureDay", "Execute"}; !reflect.DeepEqual(stackBuilders, want) {
		t.Errorf("newStack is called by %v, want %v: describe the experiment and let Execute run it", stackBuilders, want)
	}
	if len(defaulters) != 1 {
		t.Errorf("withDefaults is declared %d times (%v), want once: the description has one set of defaults", len(defaulters), defaulters)
	}
}

// TestNoAssemblyInCommands holds the rest of the module's programs to
// the same rule: no non-test file of a package at the module root,
// under cmd/ or under examples/ builds a stack or a trace replayer by
// hand. Each describes an Experiment and runs it with Execute.
func TestNoAssemblyInCommands(t *testing.T) {
	constructors := map[string]bool{
		"rig.New": true, "rig.MustNew": true, "volume.New": true, "fs.Newfs": true,
		"server.New": true, "core.New": true, "tracein.NewReplayer": true,
	}
	src := loadSource(t)
	programs := 0
	for _, sp := range src.pkgs {
		if sp.path != "repro" && !strings.HasPrefix(sp.path, "repro/cmd/") && !strings.HasPrefix(sp.path, "repro/examples/") {
			continue
		}
		programs++
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && constructors[internalName(sp.info.Uses[id])] {
					t.Errorf("%s uses %s; describe an experiment.Experiment and run it with experiment.Execute",
						src.pos(id.Pos()), internalName(sp.info.Uses[id]))
				}
				return true
			})
		}
	}
	if programs < 9 {
		t.Fatalf("found %d packages at the module root, under cmd/ and examples/, expected every command and example", programs)
	}
}
