package lint

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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct {
		Err string
	}
}

// LoadModule lists patterns (plus their full dependency closure) in dir
// via `go list -json -deps` and type-checks everything in dependency
// order: standard-library packages with IgnoreFuncBodies (only their
// exported shape matters), module packages fully, with ast and types
// info retained for analysis.
func LoadModule(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var listed []*listPackage
	dec := json.NewDecoder(out)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			_ = cmd.Wait()
			return nil, fmt.Errorf("go list -json: %w (%s)", err, stderr.String())
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list: %w (%s)", err, strings.TrimSpace(stderr.String()))
	}
	modulePath := ""
	for _, lp := range listed {
		if lp.Module != nil && lp.Module.Main {
			modulePath = lp.Module.Path
			break
		}
	}
	if modulePath == "" {
		return nil, fmt.Errorf("go list: no main-module package among %d listed packages", len(listed))
	}
	return typecheck(listed, modulePath)
}

// typecheck builds the Program from a deps-first package list: files
// are parsed on a worker pool, then packages type-check in
// dependency-parallel waves — every package whose imports finished in
// earlier waves checks concurrently with the rest of its wave. The
// waves give the driver its cold-start speed; per-package analysis
// fans out separately in Program.Run.
func typecheck(listed []*listPackage, modulePath string) (*Program, error) {
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		Packages:   map[string]*Package{},
	}
	var mu sync.Mutex // guards loadErrs and the fallback importer
	var loadErrs []string
	work := make([]*listPackage, 0, len(listed))
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			prog.Packages["unsafe"] = &Package{
				Path:     "unsafe",
				Standard: true,
				Types:    types.Unsafe,
			}
			continue
		}
		if lp.Error != nil {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %s", lp.ImportPath, lp.Error.Err))
			continue
		}
		work = append(work, lp)
	}

	// Parse every file of every package concurrently; token.FileSet is
	// safe for concurrent AddFile.
	pkgs := make(map[string]*Package, len(work))
	for _, lp := range work {
		inModule := lp.Module != nil && lp.Module.Main
		pkgs[lp.ImportPath] = &Package{
			Path:     lp.ImportPath,
			Dir:      lp.Dir,
			Standard: lp.Standard,
			InModule: inModule,
			Files:    make([]*ast.File, len(lp.GoFiles)),
		}
	}
	workers := max(1, runtime.GOMAXPROCS(0))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, lp := range work {
		pkg := pkgs[lp.ImportPath]
		for i, name := range lp.GoFiles {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, filename string, inModule bool) {
				defer wg.Done()
				defer func() { <-sem }()
				file, err := parser.ParseFile(prog.Fset, filename, nil, parser.ParseComments|parser.SkipObjectResolution)
				if err != nil && inModule {
					mu.Lock()
					loadErrs = append(loadErrs, err.Error())
					mu.Unlock()
				}
				pkg.Files[i] = file // nil on parse error, compacted below
			}(i, filepath.Join(lp.Dir, name), pkg.InModule)
		}
	}
	wg.Wait()
	for _, lp := range work {
		pkg := pkgs[lp.ImportPath]
		files, names := pkg.Files, make([]string, 0, len(lp.GoFiles))
		pkg.Files = pkg.Files[:0]
		for i, f := range files {
			if f != nil {
				pkg.Files = append(pkg.Files, f)
				names = append(names, filepath.Join(lp.Dir, lp.GoFiles[i]))
			}
		}
		pkg.Filenames = names
	}

	// Wave-order the packages: a package's wave is one past its deepest
	// dependency, so every import is fully type-checked before the
	// package starts.
	depth := map[string]int{}
	var depthOf func(lp *listPackage) int
	byPath := map[string]*listPackage{}
	for _, lp := range work {
		byPath[lp.ImportPath] = lp
	}
	depthOf = func(lp *listPackage) int {
		if d, ok := depth[lp.ImportPath]; ok {
			return d
		}
		depth[lp.ImportPath] = 0 // cycle guard; go list output is acyclic
		d := 0
		for _, imp := range lp.Imports {
			if mapped, ok := lp.ImportMap[imp]; ok {
				imp = mapped
			}
			if dep, ok := byPath[imp]; ok {
				if dd := depthOf(dep) + 1; dd > d {
					d = dd
				}
			}
		}
		depth[lp.ImportPath] = d
		return d
	}
	maxDepth := 0
	for _, lp := range work {
		if d := depthOf(lp); d > maxDepth {
			maxDepth = d
		}
	}
	waves := make([][]*listPackage, maxDepth+1)
	for _, lp := range work {
		d := depth[lp.ImportPath]
		waves[d] = append(waves[d], lp)
	}

	fallback := importer.Default()
	for _, wave := range waves {
		var wwg sync.WaitGroup
		results := make([]*Package, len(wave))
		for i, lp := range wave {
			wwg.Add(1)
			sem <- struct{}{}
			go func(i int, lp *listPackage) {
				defer wwg.Done()
				defer func() { <-sem }()
				pkg := pkgs[lp.ImportPath]
				var typeErrs []string
				conf := types.Config{
					IgnoreFuncBodies: !pkg.InModule,
					FakeImportC:      true,
					Sizes:            types.SizesFor("gc", runtime.GOARCH),
					Importer: mapImporter{
						prog:       prog,
						importMap:  lp.ImportMap,
						fallback:   fallback,
						fallbackMu: &mu,
					},
					Error: func(err error) {
						typeErrs = append(typeErrs, err.Error())
					},
				}
				if pkg.InModule {
					pkg.Info = &types.Info{
						Types:      map[ast.Expr]types.TypeAndValue{},
						Defs:       map[*ast.Ident]types.Object{},
						Uses:       map[*ast.Ident]types.Object{},
						Selections: map[*ast.SelectorExpr]*types.Selection{},
						Implicits:  map[ast.Node]types.Object{},
						Scopes:     map[ast.Node]*types.Scope{},
					}
				}
				tpkg, _ := conf.Check(lp.ImportPath, prog.Fset, pkg.Files, pkg.Info)
				pkg.Types = tpkg
				// Type errors in dependencies (vendored or GOROOT
				// quirks) are tolerated as long as the package's shape
				// loads; errors in the module itself are fatal —
				// analyzing a miscompiled tree would produce nonsense
				// findings.
				if pkg.InModule && len(typeErrs) > 0 {
					mu.Lock()
					loadErrs = append(loadErrs, typeErrs...)
					mu.Unlock()
				}
				results[i] = pkg
			}(i, lp)
		}
		wwg.Wait()
		// Publish the wave's results only after the barrier, so the map
		// is never written while a concurrent checker reads it.
		for _, pkg := range results {
			if pkg == nil {
				continue
			}
			prog.Packages[pkg.Path] = pkg
		}
	}
	// Module packages in the stable deps-first listing order.
	for _, lp := range work {
		if pkg := prog.Packages[lp.ImportPath]; pkg != nil && pkg.InModule {
			prog.Module = append(prog.Module, pkg)
		}
	}
	if len(loadErrs) > 0 {
		sort.Strings(loadErrs)
		const max = 10
		if len(loadErrs) > max {
			loadErrs = append(loadErrs[:max], fmt.Sprintf("... and %d more", len(loadErrs)-max))
		}
		return nil, fmt.Errorf("load errors:\n  %s", strings.Join(loadErrs, "\n  "))
	}
	prog.collectAnnotations()
	return prog, nil
}

// mapImporter resolves imports against the already-type-checked closure,
// honoring the package's ImportMap (vendored or otherwise rewritten
// import paths). Reads of prog.Packages are safe without locking: waves
// publish results only at their barrier, and a checker only imports
// packages from earlier waves.
type mapImporter struct {
	prog       *Program
	importMap  map[string]string
	fallback   types.Importer
	fallbackMu *sync.Mutex
}

func (m mapImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := m.prog.Packages[path]; ok && pkg.Types != nil {
		return pkg.Types, nil
	}
	// go list -deps is a deps-first traversal, so a miss here means the
	// import did not appear in the closure (e.g. implicit test deps).
	// Fall back to the compiler's export data rather than failing the
	// whole load; the shared fallback importer is not concurrency-safe,
	// hence the lock.
	if m.fallback == nil {
		return importer.Default().Import(path)
	}
	m.fallbackMu.Lock()
	defer m.fallbackMu.Unlock()
	return m.fallback.Import(path)
}
