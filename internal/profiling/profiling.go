// Package profiling backs the -cpuprofile and -memprofile flags of the
// repository's commands with runtime/pprof, so a simulator or experiment
// run can say where its time and memory went without a throwaway
// benchmark. Inspect the files with `go tool pprof`.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath, when it is non-empty, and
// returns the function that ends the run: it stops the CPU profile and,
// when memPath is non-empty, writes a heap profile (after a GC, so it
// shows live memory and the run's allocation totals) to memPath. Call the
// stop function exactly once, after the work to be profiled.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(fmt.Errorf("cpu profile: %w", err), cpu.Close())
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeap writes the heap profile to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memory profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return errors.Join(fmt.Errorf("memory profile: %w", err), f.Close())
	}
	return f.Close()
}
