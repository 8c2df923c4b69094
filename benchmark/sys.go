package main

import (
	"runtime"
	"syscall"
	"time"
)

// memSample is one reading of process CPU and Go runtime memory counters.
type memSample struct {
	cpu        time.Duration // user + sys
	pauseTotal time.Duration // cumulative GC stop-the-world pauses
	totalAlloc uint64        // cumulative bytes allocated
}

func readMem() memSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		pauseTotal: time.Duration(ms.PauseTotalNs),
		totalAlloc: ms.TotalAlloc,
	}
}

// maxRSSMB returns the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports kilobytes
}
