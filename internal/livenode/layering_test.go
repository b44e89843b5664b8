package livenode

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// TestDaemonDoesNotLinkTheSimulator pins the layering boundary: the live
// node and the mesh daemon run the protocol through internal/engine alone
// and must not link the simulator, its adapter, the experiment harness,
// or the metrics collectors. It walks the non-test imports of both
// packages transitively with go/build, so a violation names its import
// chain.
func TestDaemonDoesNotLinkTheSimulator(t *testing.T) {
	const module = "bsub/"
	forbidden := map[string]bool{
		"bsub/internal/sim":         true,
		"bsub/internal/core":        true,
		"bsub/internal/experiments": true,
		"bsub/internal/metrics":     true,
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []string{"bsub/internal/livenode", "bsub/internal/mesh"} {
		via := map[string]string{start: ""} // package -> the package importing it
		queue := []string{start}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pkg, module)))
			bp, err := build.Default.ImportDir(dir, 0)
			if err != nil {
				t.Fatalf("%s: %v", pkg, err)
			}
			for _, imp := range bp.Imports {
				if !strings.HasPrefix(imp, module) {
					continue
				}
				if _, seen := via[imp]; seen {
					continue
				}
				via[imp] = pkg
				if forbidden[imp] {
					chain := imp
					for p := pkg; p != ""; p = via[p] {
						chain = p + " -> " + chain
					}
					t.Errorf("%s depends on %s: %s", start, imp, chain)
					continue
				}
				queue = append(queue, imp)
			}
		}
	}
}
