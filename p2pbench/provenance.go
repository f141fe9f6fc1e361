package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance identifies the machine, toolchain and code a result came
// from.
type provenance struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	// DefaultSeed and HeldOutSeed name the benchmark's seeds, so a
	// record says whether it came from the held-out one.
	DefaultSeed uint64 `json:"default_seed"`
	HeldOutSeed uint64 `json:"held_out_seed"`
}

func collectProvenance(seed uint64) provenance {
	return provenance{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		Commit:      commit(),
		Seed:        seed,
		DefaultSeed: defaultSeed,
		HeldOutSeed: heldOutSeed,
	}
}

// commit is the source revision the toolchain stamped into the binary,
// or "unknown" when it was built outside version control.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// cpuModel is the first processor's model name from /proc/cpuinfo, or
// "unknown" where there is none.
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
