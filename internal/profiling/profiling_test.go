package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem, "")
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", filepath.Base(p), err)
		}
	}
}

func TestStartWritesAnExecutionTrace(t *testing.T) {
	tr := filepath.Join(t.TempDir(), "run.trace")
	stop, err := Start("", "", tr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	go func() { done <- 1 }()
	<-done
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(tr); err != nil || fi.Size() == 0 {
		t.Errorf("missing or empty execution trace (%v)", err)
	}
}

func TestStartWithoutPathsIsANoOp(t *testing.T) {
	stop, err := Start("", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartReportsAnUnwritableCPUPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), "", ""); err == nil {
		t.Fatal("want an error for a CPU profile in a missing directory")
	}
}

func TestStartReportsAnUnwritableTracePath(t *testing.T) {
	dir := t.TempDir()
	if _, err := Start(filepath.Join(dir, "cpu.pprof"), "", filepath.Join(dir, "missing", "run.trace")); err == nil {
		t.Fatal("want an error for an execution trace in a missing directory")
	}
	// The failed Start must have stopped the CPU profile it began.
	stop, err := Start(filepath.Join(dir, "cpu2.pprof"), "", "")
	if err != nil {
		t.Fatalf("CPU profile still running after a failed Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
