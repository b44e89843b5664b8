package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo describes the machine a result set was measured on. Absolute
// numbers only compare between runs on the same host.
func hostInfo() map[string]any {
	info := map[string]any{
		"cpu":        firstField("/proc/cpuinfo", "model name"),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"llc":        lastLevelCache(),
		"go":         runtime.Version(),
		"commit":     "unknown",
		// Sockets left in TIME_WAIT by earlier runs occupy loopback
		// ports and kernel state that live-replay's dials contend with.
		"tcp_time_wait": timeWait(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info["commit"] = s.Value
			case "vcs.modified":
				info["commit_modified"] = s.Value == "true"
			}
		}
	}
	return info
}

// firstField returns the value of the first "key : value" line of a
// /proc file, or "" when absent.
func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// lastLevelCache returns the size of CPU 0's highest-level cache as sysfs
// prints it (e.g. "307200K"), or "" when unknown.
func lastLevelCache() string {
	size, level := "", 0
	for i := 0; ; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/"
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			return size
		}
		n, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil || n < level {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			size, level = strings.TrimSpace(string(sz)), n
		}
	}
}

// timeWait returns the TCP TIME_WAIT socket count from /proc/net/sockstat,
// or -1 when unavailable.
func timeWait() int {
	tcp := strings.Fields(firstField("/proc/net/sockstat", "TCP"))
	for i := 0; i+1 < len(tcp); i++ {
		if tcp[i] == "tw" {
			if n, err := strconv.Atoi(tcp[i+1]); err == nil {
				return n
			}
		}
	}
	return -1
}

// peakRSS returns the process's resident-set high-water mark (VmHWM) in
// bytes, or 0 when unavailable.
func peakRSS() int64 {
	fields := strings.Fields(firstField("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return 0
	}
	return kb << 10
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
