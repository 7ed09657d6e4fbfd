package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procLine returns the text after prefix on the first line of a /proc
// file that starts with it ("" when the file or the line is missing, as
// off Linux).
func procLine(path, prefix string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return ""
}

func loadAvg1() string {
	fields := strings.Fields(procLine("/proc/loadavg", ""))
	if len(fields) == 0 {
		return "unknown"
	}
	return fields[0]
}

// cpuTicks returns the machine's stolen and total CPU ticks since boot
// (zeros off Linux). Steal during a run says the host was oversubscribed
// while it measured; the clock metrics of such a run read slow.
func cpuTicks() (steal, total float64) {
	for i, f := range strings.Fields(procLine("/proc/stat", "cpu ")) {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	fields := strings.Fields(procLine("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(fields[0], 64)
	return kb / 1024
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repoRoot finds the psaflow checkout the benchmark was started in by
// walking up from the working directory to the flow document it registers.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, flowDocument)); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("%s not found in the working directory or above it", flowDocument)
		}
		dir = parent
	}
}

// commit reads the checked-out commit without running git ("unknown" in
// an exported tree).
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(data))
	}
	return h
}

// header is what every report starts with: enough to tell whether two
// reports came from comparable machines and settings.
func header(root string, w *workload, seed int64, rounds int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "psaflow benchmark  workload=%s seed=%d rounds<=%d (+%d warm-up) jobs/round=%d\n",
		w.Name, seed, rounds, w.Warmup, len(w.jobs(seed, 0)))
	fmt.Fprintf(&sb, "  why: %s\n", w.Why)
	fmt.Fprintf(&sb, "  %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(),
		procLine("/proc/cpuinfo", "model name"), commit(root))
	fmt.Fprintf(&sb, "  load1 at start=%s\n", loadAvg1())
	return sb.String()
}
