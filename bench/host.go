package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// epoch is the run's time origin; every timestamp in the benchmark is
// monotonic nanoseconds since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

// cpuNs returns the CPU time (user+system) charged so far to the process
// (syscall.RUSAGE_SELF) or to the calling thread (rusageThread).
func cpuNs(who int) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostInfo is recorded with every result: a number means nothing without
// the host class it was taken on.
type hostInfo struct {
	CPUs       int    `json:"host_cpus"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	Producers  int    `json:"producers"`
}

func readHost() hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     1,
		Producers:  1,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
			break
		}
	}
	return h
}
