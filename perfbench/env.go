package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runtimeSample is a point-in-time read of the allocation and GC
// counters the runtime.* metrics difference.
type runtimeSample struct {
	mallocs         uint64
	gcCPU, totalCPU float64
	procCPU         time.Duration // user + system CPU time of the process
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		mallocs:  s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		procCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// runtimeDelta is what happened between two samples.
type runtimeDelta struct {
	mallocs uint64
	gcFrac  float64 // GC share of the CPU time the runtime had
	cpu     time.Duration
}

func (s runtimeSample) since(s0 runtimeSample) runtimeDelta {
	d := runtimeDelta{mallocs: s.mallocs - s0.mallocs, cpu: s.procCPU - s0.procCPU}
	if cpu := s.totalCPU - s0.totalCPU; cpu > 0 {
		d.gcFrac = (s.gcCPU - s0.gcCPU) / cpu
	}
	return d
}

// stamp identifies the machine and build a result came from. fsync
// cost depends on the data directory's filesystem, so it is recorded.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	DataFS     string `json:"data_fs"`
}

func newStamp(dataDir string) stamp {
	sha := os.Getenv("PERFBENCH_GIT_SHA")
	if sha == "" {
		sha = "unknown"
	}
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GitSHA:     sha,
		DataFS:     fsType(dataDir),
	}
}

// fsNames maps statfs magic numbers of common Linux filesystems.
var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x2FC12FC1: "zfs",
	0xF2F52010: "f2fs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("statfs-0x%x", st.Type)
}
