package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set so far; Linux
// reports ru_maxrss in KiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuMeter measures CPU utilisation over an interval: CPU seconds
// divided by wall seconds times the number of CPUs.
type cpuMeter struct {
	wall time.Time
	cpu  time.Duration
}

func startCPU() cpuMeter { return cpuMeter{time.Now(), cpuTime()} }

func (m cpuMeter) util(nproc int) float64 {
	wall := time.Since(m.wall)
	if wall <= 0 {
		return 0
	}
	return (cpuTime() - m.cpu).Seconds() / (wall.Seconds() * float64(nproc))
}

// gcStats is what the Go runtime reports about collection and heap.
type gcStats struct {
	pauseNs  uint64
	heapSysB uint64
}

func readGC() gcStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcStats{pauseNs: ms.PauseTotalNs, heapSysB: ms.HeapSys}
}

// setGC reports GC pause time since gc0 and the heap obtained from the
// OS now.
func setGC(o *outcome, gc0 gcStats) {
	gc := readGC()
	o.set("go.gc_pause_ms", float64(gc.pauseNs-gc0.pauseNs)/1e6)
	o.set("go.heap_sys_mib", float64(gc.heapSysB)/(1<<20))
}
