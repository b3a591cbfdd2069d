package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// environment is recorded in every result, so a ledger taken on one core
// or on a busy box says so.
type environment struct {
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Load1      float64 `json:"load1"`
	// Noisy is set when the 1-minute load average at start exceeds the
	// core count: something else is competing for the CPUs.
	Noisy bool `json:"noisy"`
}

func readEnvironment() environment {
	e := environment{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	// Linux only; elsewhere the load stays 0 and Noisy false.
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.Load1 > float64(e.CPUs)
	return e
}

// loadClients is C = min(2, nproc): callers of a provisioning service
// wait for their plan, so the loop is closed, and a client beyond the
// core count would only measure the scheduler.
func loadClients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}
