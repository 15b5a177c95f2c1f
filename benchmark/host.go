package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// hostEnv is the host-environment record written into every result, so that
// host numbers from different machines are never compared silently.
type hostEnv struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
}

func readEnv() hostEnv {
	return hostEnv{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit(),
	}
}

// gitCommit reports the checkout's commit, or "unknown" outside a git
// repository (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM). One
// workload runs per process, so the mark belongs to that workload alone.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// collectGarbage runs the collector between repetitions. Each repetition
// builds machines of up to 192 MiB; collecting the last one before the next
// is built lets the allocator hand the same spans out again, so the resident
// peak does not depend on when the collector would have run by itself. The
// spans are not returned to the OS (debug.FreeOSMemory): faulting 192 MiB back
// in doubles a tree-1c set-up (0.15 s against 0.24 to 0.31), at a price per
// fault that is the hypervisor's, not the program's.
func collectGarbage() { runtime.GC() }

// allocMeter reads runtime.MemStats deltas over a window.
type allocMeter struct{ before runtime.MemStats }

func startAllocMeter() *allocMeter {
	a := &allocMeter{}
	runtime.ReadMemStats(&a.before)
	return a
}

// stop reports the host.* per-layer metrics for ops operations.
func (a *allocMeter) stop(ops int) metricSet {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	n := float64(ops)
	return metricSet{
		"host.allocs_per_op":      float64(after.Mallocs-a.before.Mallocs) / n,
		"host.alloc_bytes_per_op": float64(after.TotalAlloc-a.before.TotalAlloc) / n,
		"host.gc_pause_ms":        float64(after.PauseTotalNs-a.before.PauseTotalNs) / 1e6,
	}
}
