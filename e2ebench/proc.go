package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// settle drops what set-up left behind and restarts the peak-RSS
// counter, so the peak read after the measured phase belongs to it.
func settle() error {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux
	// 4.0 and later).
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM from /proc/self/status, in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// procSnap is the process-wide counters a measured phase is charged
// with: CPU time and the Go allocator's totals.
type procSnap struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// procDelta is what happened in the process between two snapshots.
type procDelta struct {
	CPUMS      float64 `json:"cpu_ms"`
	Allocs     float64 `json:"allocs"`
	AllocBytes float64 `json:"alloc_bytes"`
	GCs        float64 `json:"gcs"`
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		CPUMS:      float64(b.cpu-a.cpu) / 1e6,
		Allocs:     float64(b.mallocs - a.mallocs),
		AllocBytes: float64(b.bytes - a.bytes),
		GCs:        float64(b.gcs - a.gcs),
	}
}
