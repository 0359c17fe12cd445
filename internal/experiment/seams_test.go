package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// seams are the names under internal/ that no non-test file of the
// module, of its commands and examples, or of bench/ uses, each with
// what it exposes and to whom. TestNoTestOnlyCode holds the list both
// ways: a name that loses its last non-test caller fails until it is
// deleted or entered here, and an entry whose name gained a caller or
// is gone fails until it is dropped. A method is "pkg.Type.Method".
var seams = map[string]string{
	"cache.Cache.DirtyLen":           "dirty blocks held: the cache and fs tests read write-back state",
	"cache.Cache.Len":                "blocks held: the cache and fs tests read occupancy",
	"cache.Cache.Stats":              "hit and miss counts: the cache's model test compares them with its reference",
	"core.Rearranger.Missed":         "requests lost to a full request table: TestAnalyzerCountsEveryRequestOnce holds it at zero",
	"core.Rearranger.Policy":         "the placement policy New chose: TestDefaultsApplied reads the default",
	"disk.Disk.Counters":             "reads, writes and seeks so far: TestFullNightCost and the driver tests count I/Os by it",
	"disk.Disk.Model":                "the drive a disk models: the rig and driver tests check which one was built",
	"disk.MustNew":                   "a bare disk that cannot fail to build, for the disk, driver and telemetry tests",
	"driver.DistHist.Count":          "seeks recorded: the driver's stats tests read each histogram's total",
	"driver.Driver.Disk":             "the disk behind a driver: the driver tests peek its store",
	"driver.Driver.PeekStats":        "the statistics without clearing them: the cache and driver tests read a window mid-run",
	"driver.Driver.RequestTableSize": "the request table's capacity: tests check that core.New sets it and Close drops it",
	"driver/devtest.TestDevice":      "the BlockDevice conformance battery every device's tests run",
	"fs.FS.Cache":                    "the data cache of a mount: the fs tests read its occupancy",
	"fs.FS.CheckPattern":             "whether a block holds a given file block's content: fs and workload tests identify data blocks by it",
	"fs.FS.FreeBlocks":               "free data blocks: the fs and workload tests check allocation and release",
	"fs.FS.Groups":                   "cylinder groups laid out by Newfs: an fs test checks the count",
	"fs.FS.MetaCache":                "the metadata cache of a mount: the fs tests read its occupancy",
	"fs.FS.ReadOnly":                 "the mount mode: the workload tests check which workloads mount read-only",
	"fs.FS.TotalBlocks":              "data blocks of the file system: the fs and workload tests check allocation against it",
	"fs.Handle.Ino":                  "a handle's inode number: the fs tests match handles to inodes",
	"fs.Handle.IsDir":                "whether a handle is a directory: the fs path-walk tests",
	"fs.Mount":                       "the reboot tests' read-back of an image: an image Newfs wrote must mount to the same tree",
	"geom.Block4K":                   "the second block size: the driver, block table, rig and fs tests run at it",
	"hotlist.Bounded.Replacements":   "newcomers that displaced an entry: the replacement-heuristic tests read it",
	"hotlist.Exact.Count":            "one block's exact count: the bounded counters' oracle in the hotlist tests",
	"label.NewRearranged":            "a rearranged label with the reserved region centred: the label tests",
	"label.TagRaw":                   "the paper's raw-partition tag: the label tests round-trip every tag",
	"metrics.Counter.Add":            "a counter's increment: the metrics tests and bench/report_test.go (until ROADMAP item 9)",
	"metrics.Histogram.Max":          "the largest sample: the metrics tests check recording",
	"metrics.Histogram.Min":          "the smallest sample: the metrics tests check recording",
	"metrics.Histogram.Sum":          "the sum of the samples: the metrics and driver stats tests",
	"metrics.Registry.Counter":       "a counter the caller increments: bench/report_test.go (until ROADMAP item 9) and the metrics tests",
	"rig.MustNew":                    "a rig that cannot fail to build, for tests' one-line set-ups",
	"rig.Rig.Err":                    "the rig's context error: the rig test checks a cancelled rig reports it",
	"seek.Linear":                    "an affine seek curve: the driver stats and seek tests check seek-time arithmetic on round numbers",
	"sim.Engine.Pending":             "events queued: the engine's property and allocation tests",
	"telemetry.Collector.Name":       "the job a collector records: the telemetry tests name failing jobs by it",
	"volume.Volume.Err":              "the volume's context error: the volume tests",
	"volume.Volume.Layout":           "the layout a volume was built with: the volume tests",
	"volume.Volume.Rebuilding":       "whether a rebuild is running: the RAID tests wait on it",
	"workload.System.Files":          "the populated file list: the workload and fs tests read it",
	"workload.Tenants.Responded":     "responses received: the tenants tests check every request gets exactly one",
}

// TestNoTestOnlyCode lists every package-level function, method, type,
// variable and constant under internal/, exported or not, that no
// non-test file reaches, and holds the list to seams. A name is reached
// by a use in a non-test file outside internal/, in an init function or
// a blank declaration, or in the declaration of a name that is itself
// reached or is a seam; a use inside the name's own declaration
// (recursion, a type's self-reference, a method's receiver) does not
// count. A reached method reaches its type. Methods that satisfy an
// interface the non-test code mentions are reached through it, and so
// are String, Error and Unwrap, which fmt and errors call.
func TestNoTestOnlyCode(t *testing.T) {
	src := loadSource(t)
	all := map[string]bool{}
	for name := range seams {
		all[name] = true
	}
	reached, _ := src.reach(all)
	for _, name := range src.names {
		if !reached[name] {
			t.Errorf("%s: %s has no caller outside tests: delete it, or enter it in seams with what it exposes and why",
				src.pos(src.decls[name].Pos()), name)
		}
	}
	for name := range seams {
		if _, ok := src.decls[name]; !ok {
			t.Errorf("seams lists %s, which no longer exists: drop the entry", name)
			continue
		}
		delete(all, name)
		if reached, at := src.reach(all); reached[name] {
			t.Errorf("seams lists %s, but %s uses it outside tests: drop the entry", name, src.pos(at[name]))
		}
		all[name] = true
	}
}

// configStructs are the config structs of the layers below this
// package (DESIGN.md "Configuration surface").
var configStructs = []string{
	"workload.SystemConfig", "workload.UsersConfig", "workload.TenantConfig",
	"server.Config", "server.LinkConfig", "server.ClassConfig", "server.BreakerConfig",
	"core.Config", "fs.Params", "cache.Config", "driver.Config", "rig.Options",
	"volume.Options", "tracein.Options", "tracein.ReplayOptions", "tracein.Scale",
}

// configSeams are the fields of configStructs that only tests set: no
// non-test file outside the struct's own package writes them, and a
// write inside it is a default or a decode, not a caller's choice. They
// are how the tests reach shedding, breaker, closed-loop and geometry
// branches with small numbers.
var configSeams = map[string]string{
	"workload.SystemConfig.Files":           "a small file population",
	"workload.UsersConfig.FilesPerUser":     "a small file population",
	"workload.TenantConfig.NoisyRatePerSec": "a noisy tenant at a chosen rate",
	"server.Config.Classes":                 "a one-class ladder",
	"server.Config.MaxInFlight":             "shedding at a small backlog",
	"server.Config.QueueCap":                "shedding at a small queue",
	"server.Config.MaxRetries":              "the retry branch",
	"server.Config.Breaker":                 "a breaker that trips in a few requests",
	"server.ClassConfig.Name":               "a ladder of the test's own (DefaultClasses is the one that runs)",
	"server.ClassConfig.TokenRate":          "a ladder of the test's own",
	"server.ClassConfig.TokenBurst":         "a ladder of the test's own",
	"server.ClassConfig.DeadlineMS":         "deadline misses on demand",
	"server.BreakerConfig.Window":           "a breaker that trips in a few requests",
	"server.BreakerConfig.MinSamples":       "a breaker that trips in a few requests",
	"server.BreakerConfig.ErrorRate":        "the error-rate trip",
	"server.BreakerConfig.MissRate":         "the deadline-miss trip",
	"server.BreakerConfig.CooldownMS":       "the half-open branch within a short run",
	"server.BreakerConfig.HalfOpenProbes":   "the half-open branch within a short run",
	"fs.Params.CylsPerGroup":                "a second group geometry; Mount decodes it from the superblock",
	"fs.Params.InodeBlocksPerGroup":         "a second group geometry; Mount decodes it from the superblock",
	"fs.Params.Stride":                      "the rotational-interleave branch; Mount decodes it from the superblock",
	"rig.Options.BlockSize":                 "a rig at the second block size",
	"tracein.Options.BlockBytes":            "a trace at another block size",
	"tracein.ReplayOptions.Clients":         "a closed-loop replay with few clients",
	"tracein.ReplayOptions.ThinkMS":         "a closed-loop replay with think time",
}

// TestConfigSurface holds configStructs' test seams to configSeams: a
// field that no command, experiment, example or bench/ driver sets
// must be listed, and a listed field must not gain such a writer. A
// write is a keyed composite literal or an assignment to the field.
func TestConfigSurface(t *testing.T) {
	src := loadSource(t)
	fields := map[*types.Var]string{}
	declared := map[string]token.Pos{}
	var names []string
	for _, name := range configStructs {
		st := src.decls[name].Type().Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() {
				fields[f] = name + "." + f.Name()
				declared[fields[f]] = f.Pos()
				names = append(names, fields[f])
			}
		}
	}
	written := map[string]token.Pos{}
	for _, sp := range src.pkgs {
		record := func(e ast.Expr) {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				e = sel.Sel
			}
			id, _ := e.(*ast.Ident)
			if f, ok := sp.info.Uses[id].(*types.Var); ok && f.Pkg().Path() != sp.path && fields[f] != "" {
				if _, seen := written[fields[f]]; !seen {
					written[fields[f]] = id.Pos()
				}
			}
		}
		for _, f := range sp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					record(n.Key)
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						record(e)
					}
				case *ast.IncDecStmt:
					record(n.X)
				}
				return true
			})
		}
	}
	for _, name := range names {
		at, set := written[name]
		_, seam := configSeams[name]
		switch {
		case !set && !seam:
			t.Errorf("%s: only tests set %s: make it a constant, or enter it in configSeams with the branch it reaches",
				src.pos(declared[name]), name)
		case set && seam:
			t.Errorf("configSeams lists %s, but %s sets it outside tests: drop the entry", name, src.pos(at))
		}
	}
	for name := range configSeams {
		if _, ok := declared[name]; !ok {
			t.Errorf("configSeams lists %s, which is not an exported field of configStructs: drop the entry", name)
		}
	}
}

// source is every non-test package of the root module and of bench/,
// type-checked from source (module packages once each, the standard
// library from its export data), and the uses between the names it
// declares under internal/.
type source struct {
	root  string // module root, relative to this package
	fset  *token.FileSet
	pkgs  []*sourcePkg            // in dependency order
	decls map[string]types.Object // package-level names under internal/, by qualified name
	names []string                // decls' keys, package by package
	// uses are the counted uses, by the name whose declaration holds
	// them; "" holds the roots' uses.
	uses map[string][]use
	// ifaces are the interfaces the non-test code mentions, by method
	// name.
	ifaces    map[string][]*types.Interface
	mentioned map[*types.Interface]bool
}

type sourcePkg struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// use is one counted use of a name.
type use struct {
	name string
	at   token.Pos
}

// listedPkg is the part of `go list -json` the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

var (
	sourceOnce sync.Once
	sourceVal  *source
	sourceErr  error
)

// loadSource type-checks both modules once per test binary.
func loadSource(t *testing.T) *source {
	t.Helper()
	sourceOnce.Do(func() { sourceVal, sourceErr = typeCheck("../..") })
	if sourceErr != nil {
		t.Fatal(sourceErr)
	}
	return sourceVal
}

func typeCheck(root string) (*source, error) {
	exports := map[string]string{}
	var order []listedPkg
	seen := map[string]bool{}
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listedPkg
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p.Standard {
				exports[p.ImportPath] = p.Export
			} else if !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				order = append(order, p)
			}
		}
	}
	src := &source{root: root, fset: token.NewFileSet(), decls: map[string]types.Object{}, uses: map[string][]use{},
		ifaces: map[string][]*types.Interface{}, mentioned: map[*types.Interface]bool{}}
	checked := map[string]*types.Package{}
	std := importer.ForCompiler(src.fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	for _, lp := range order {
		sp := &sourcePkg{path: lp.ImportPath, info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(src.fset, filepath.Join(lp.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			sp.files = append(sp.files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, src.fset, sp.files, sp.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
		}
		sp.types = pkg
		checked[lp.ImportPath] = pkg
		src.pkgs = append(src.pkgs, sp)
	}
	for _, sp := range src.pkgs {
		src.declare(sp)
	}
	for _, sp := range src.pkgs {
		src.use(sp)
	}
	// A method that satisfies an interface is reached with its type.
	for _, name := range src.names {
		if fn, ok := src.decls[name].(*types.Func); ok && src.viaInterface(fn) {
			typ := name[:strings.LastIndex(name, ".")]
			src.uses[typ] = append(src.uses[typ], use{name, fn.Pos()})
		}
	}
	return src, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// internalName is an object's qualified name if it is declared at
// package level under internal/ (a method under its receiver's type),
// or "".
func internalName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	rel, ok := strings.CutPrefix(obj.Pkg().Path(), "repro/internal/")
	if !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named, ok := deref(recv.Type()).(*types.Named)
			if !ok {
				return "" // an interface's method
			}
			return rel + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() || obj.Name() == "_" || obj.Name() == "init" {
		return ""
	}
	return rel + "." + obj.Name()
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// declare records sp's package-level names and its types' methods, if
// sp is under internal/.
func (s *source) declare(sp *sourcePkg) {
	scope := sp.types.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		name := internalName(obj)
		if name == "" {
			continue
		}
		s.decls[name] = obj
		s.names = append(s.names, name)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := internalName(named.Method(i))
				s.decls[m] = named.Method(i)
				s.names = append(s.names, m)
				// A reached method reaches its type.
				s.uses[m] = append(s.uses[m], use{name, named.Method(i).Pos()})
			}
		}
	}
}

// use records the uses in sp's files by the declaration that holds
// them, and the interfaces sp mentions: every interface-typed
// expression, and every interface a function it calls takes.
func (s *source) use(sp *sourcePkg) {
	for _, tv := range sp.info.Types {
		s.mention(tv.Type)
	}
	for _, obj := range sp.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			params := fn.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				s.mention(params.At(i).Type())
			}
		}
	}
	for _, f := range sp.files {
		for _, decl := range f.Decls {
			s.useIn(sp, decl)
		}
	}
}

// useIn records the uses inside one top-level declaration, except those
// of the names it declares and of a method's receiver type. A
// declaration of several names holds its uses for each.
func (s *source) useIn(sp *sourcePkg, decl ast.Decl) {
	var holders []types.Object
	var skip ast.Node
	switch d := decl.(type) {
	case *ast.FuncDecl:
		holders = append(holders, sp.info.Defs[d.Name])
		skip = d.Recv
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				holders = append(holders, sp.info.Defs[spec.Name])
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					holders = append(holders, sp.info.Defs[n])
				}
			}
		}
	}
	own := map[types.Object]bool{}
	var by []string
	for _, h := range holders {
		own[h] = true
		by = append(by, internalName(h))
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == skip && skip != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := sp.info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		name := internalName(obj)
		if name == "" || own[obj] {
			return true
		}
		for _, b := range by {
			s.uses[b] = append(s.uses[b], use{name, id.Pos()})
		}
		return true
	})
}

// mention records t if it is an interface.
func (s *source) mention(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && !s.mentioned[it] {
		s.mentioned[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			s.ifaces[it.Method(i).Name()] = append(s.ifaces[it.Method(i).Name()], it)
		}
	}
}

// viaInterface reports whether fn is a method that satisfies an
// interface naming it, or one fmt and errors call.
func (s *source) viaInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	switch fn.Name() {
	case "String", "Error", "Unwrap":
		return true
	}
	t := deref(recv.Type())
	for _, it := range s.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// reach returns the names reached from the roots and from extra, with
// the position of the use that first reached each. The roots are the
// uses outside internal/ and in init functions and blank declarations.
func (s *source) reach(extra map[string]bool) (map[string]bool, map[string]token.Pos) {
	reached := map[string]bool{}
	at := map[string]token.Pos{}
	var queue []string
	visit := func(name string, p token.Pos) {
		if !reached[name] {
			reached[name], at[name] = true, p
			queue = append(queue, name)
		}
	}
	for _, u := range s.uses[""] {
		visit(u.name, u.at)
	}
	for _, name := range s.names {
		if extra[name] {
			visit(name, s.decls[name].Pos())
		}
	}
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		for _, u := range s.uses[name] {
			visit(u.name, u.at)
		}
	}
	return reached, at
}

// pos prints p as file:line relative to the module root.
func (s *source) pos(p token.Pos) string {
	at := s.fset.Position(p)
	abs, _ := filepath.Abs(s.root)
	if rel, err := filepath.Rel(abs, at.Filename); err == nil {
		at.Filename = rel
	}
	return fmt.Sprintf("%s:%d", at.Filename, at.Line)
}
