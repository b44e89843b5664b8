// Package profiling backs the -cpuprofile, -memprofile and -trace flags
// of the repository's commands with runtime/pprof and runtime/trace, so a
// simulator or experiment run can say where its time and memory went
// without a throwaway benchmark. Inspect the profiles with `go tool pprof`
// and the execution trace with `go tool trace`.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Start begins a CPU profile written to cpuPath and an execution trace
// written to tracePath, each when its path is non-empty, and returns the
// function that ends the run: it stops both and, when memPath is
// non-empty, writes a heap profile (after a GC, so it shows live memory
// and the run's allocation totals) to memPath. Call the stop function
// exactly once, after the work to be profiled.
func Start(cpuPath, memPath, tracePath string) (stop func() error, err error) {
	var cpu, tr *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			return nil, errors.Join(fmt.Errorf("cpu profile: %w", err), cpu.Close())
		}
	}
	if tracePath != "" {
		if tr, err = os.Create(tracePath); err == nil {
			if err = trace.Start(tr); err != nil {
				err = errors.Join(err, tr.Close())
			}
		}
		if err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				err = errors.Join(err, cpu.Close())
			}
			return nil, fmt.Errorf("execution trace: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if tr != nil {
			trace.Stop()
			errs = append(errs, tr.Close())
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
