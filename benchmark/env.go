package main

import (
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// envInfo describes where a ledger was measured.
type envInfo struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"` // of the runs: each is pinned to one CPU
	NumCPU     int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	RunSeconds int     `json:"run_seconds"`
	StealShare float64 `json:"steal_share"`  // largest /proc/stat steal share seen over a timed region
	CalibNs    float64 `json:"calib_ns"`     // median of the runs' calibration loops
	CalibSpan  float64 `json:"calib_spread"` // (max − min) ÷ median of the same
	// Noisy marks a ledger taken while the machine was visibly
	// disturbed: steal share above 0.2 or calibration spread above 25%.
	Noisy bool `json:"noisy"`
}

func newEnv(seed int64, seconds int) envInfo {
	e := envInfo{
		GoVersion:  goruntime.Version(),
		GOMAXPROCS: 1,
		NumCPU:     goruntime.NumCPU(),
		Commit:     "unknown",
		Seed:       seed,
		RunSeconds: seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// cpuTimes returns the steal and total jiffies of /proc/stat's
// aggregate cpu line; ok is false where the file does not exist.
func cpuTimes() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare returns the share of CPU time the hypervisor withheld
// while fn ran; 0 where it cannot be read.
func stealShare(fn func()) float64 {
	s0, t0, ok := cpuTimes()
	fn()
	s1, t1, _ := cpuTimes()
	if !ok || t1 <= t0 {
		return 0
	}
	return float64(s1-s0) / float64(t1-t0)
}

// calibrate times a fixed xorshift loop, best of five: a CPU-speed
// reference taken right before a timed region, so that a slow run can
// be told from a slow machine.
func calibrate() float64 {
	bestNs := 0.0
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 1<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		ns := float64(time.Since(start))
		if x == 0 { // never: keeps the loop's result live
			ns = 0
		}
		if rep == 0 || ns < bestNs {
			bestNs = ns
		}
	}
	return bestNs
}

// rusage returns the process's resource usage so far; the zero value
// where it cannot be read.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return syscall.Rusage{}
	}
	return ru
}

// peakRSSMB returns the process's maximum resident set so far.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// cpuSeconds returns the CPU time, user and system, the process has
// used so far.
func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}
