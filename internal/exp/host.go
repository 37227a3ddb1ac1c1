package exp

import (
	"os"
	"runtime"
	"strings"
)

// HostInfo describes the machine a benchmark result was recorded on. The
// service benchmark (bench/) embeds it in every result record: numbers are
// meaningless without knowing how much parallelism the host could express
// — a flat speedup curve recorded on one CPU says nothing about the
// engine.
type HostInfo struct {
	// CPUs is the number of logical CPUs (runtime.NumCPU).
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the effective Go scheduler width at record time.
	GOMAXPROCS int `json:"gomaxprocs"`
	// CPUModel is the processor model string, "unknown" when it cannot be
	// determined.
	CPUModel string `json:"cpu_model"`
}

// Host returns the current machine's HostInfo.
func Host() HostInfo {
	return HostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
	}
}

// cpuModel extracts the processor model from /proc/cpuinfo (Linux); other
// platforms report "unknown" — the JSON field stays machine-readable
// either way.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(name) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(value)
			}
		}
	}
	return "unknown"
}
