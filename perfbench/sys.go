package main

import (
	"bufio"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling thread's user+system CPU time so far. The
// caller must be locked to its thread (runtime.LockOSThread) for two
// readings to measure one goroutine.
func threadCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// historyNow sums every peer's journal position. Log.Now itself advances
// the journal by one, which callers subtract.
func (c *cluster) historyNow() uint64 {
	var n uint64
	for _, node := range c.nodes {
		n += uint64(node.Log.Now())
	}
	return n
}

// counters is a snapshot of every counter the traced run takes deltas of.
type counters struct {
	at         time.Time
	client     client.Stats
	staleEpoch uint64
	history    uint64
	runtime    [4]float64 // alloc objects, alloc bytes, GC CPU s, non-idle CPU s
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func snapshot(c *cluster) counters {
	s := counters{at: time.Now(), client: c.cli.Stats(), history: c.historyNow()}
	for _, node := range c.nodes {
		s.staleEpoch += node.CurrentPeer().Store.StaleEpochRejects.Load()
	}
	ms := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		ms[i].Name = n
	}
	metrics.Read(ms)
	val := func(i int) float64 {
		switch ms[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ms[i].Value.Uint64())
		case metrics.KindFloat64:
			return ms[i].Value.Float64()
		}
		return 0
	}
	s.runtime = [4]float64{val(0), val(1), val(2), val(3) - val(4)}
	return s
}
