package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuMeter reads how much CPU the process used and how much the machine's
// hypervisor stole between two points. Both explain run-to-run noise on a
// shared host: a pass that lost CPU to steal serves less under overload.
type cpuMeter struct {
	proc         time.Duration
	steal, total uint64
}

func readCPU() cpuMeter {
	var m cpuMeter
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		m.proc = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		m.total += v
		if i == 8 {
			m.steal = v
		}
	}
	return m
}

// since returns the process CPU seconds and the machine's stolen share of
// CPU time between then and now.
func (then cpuMeter) since() (procS, stealFrac float64) {
	now := readCPU()
	procS = (now.proc - then.proc).Seconds()
	if d := now.total - then.total; d > 0 {
		stealFrac = float64(now.steal-then.steal) / float64(d)
	}
	return procS, stealFrac
}

// sliceSteal samples the machine's steal counters at n+1 equally spaced
// points from now, one slice apart, until stop closes, and returns each
// slice's stolen share of CPU time (slices it did not reach report 0).
func sliceSteal(n int, slice time.Duration, stop <-chan struct{}) []float64 {
	start := time.Now()
	marks := []cpuMeter{readCPU()}
sampling:
	for k := 1; k <= n; k++ {
		select {
		case <-stop:
			break sampling
		case <-time.After(time.Until(start.Add(time.Duration(k) * slice))):
			marks = append(marks, readCPU())
		}
	}
	out := make([]float64, n)
	for k := 0; k+1 < len(marks); k++ {
		if d := marks[k+1].total - marks[k].total; d > 0 {
			out[k] = float64(marks[k+1].steal-marks[k].steal) / float64(d)
		}
	}
	return out
}
