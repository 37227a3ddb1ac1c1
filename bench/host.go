package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"cij/internal/exp"
)

// hostInfo is the host block of every result record: numbers from
// different hosts are not comparable, and latencies here are the
// sandbox's (loopback HTTP, the OS page cache), not a device's.
type hostInfo struct {
	exp.HostInfo
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	// DataFS is the filesystem type under the durable data directories.
	DataFS string `json:"data_fs"`
}

func currentHost(dataDir string) hostInfo {
	return hostInfo{
		HostInfo:  exp.Host(),
		GoVersion: runtime.Version(),
		Commit:    commit(),
		DataFS:    filesystemOf(dataDir),
	}
}

// commit is the VCS revision the binary was built from, "unknown" when
// the build had no VCS metadata (a source tree outside git).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// filesystemOf reports the type of the mount holding dir, read from
// /proc/mounts (Linux); "unknown" elsewhere.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	fs, best := "unknown", -1
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		inside := abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")
		if inside && len(mnt) > best {
			fs, best = f[2], len(mnt)
		}
	}
	return fs
}
