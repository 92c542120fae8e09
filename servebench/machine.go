package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is the provenance every result records.
type machine struct {
	NProc          int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	GoVersion      string  `json:"go_version"`
	CPU            string  `json:"cpu"`
	CheckpointFS   string  `json:"checkpoint_fs"`
	Seed           uint64  `json:"seed"`
	Workload       string  `json:"workload"`
	Rate           float64 `json:"rate_fps"`
	Window         int     `json:"window"`
	LatencyLimitMS float64 `json:"latency_limit_ms"`
	Seconds        int     `json:"seconds"`
}

func describeMachine(w workSpec, seed uint64, seconds int, dir string) machine {
	return machine{
		NProc:          runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GoVersion:      runtime.Version(),
		CPU:            cpuModel(),
		CheckpointFS:   fsType(dir),
		Seed:           seed,
		Workload:       w.Name,
		Rate:           w.Rate,
		Window:         w.Window,
		LatencyLimitMS: w.LatencyLimitMS,
		Seconds:        seconds,
	}
}

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when it is missing (as on systems without /proc).
func procField(path, key string) string {
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

func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident memory (VmHWM) in MB.
func peakRSSMB() float64 {
	v := strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB")
	kb, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// fsType is the filesystem type of the mount holding dir, from
// /proc/self/mountinfo (the longest mount point that prefixes dir).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, after := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(after) < 1 {
			continue
		}
		mnt := fields[4]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), after[0]
		}
	}
	return typ
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
