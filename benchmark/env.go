package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envInfo records where a run was made, so that two reports can be told
// apart before their numbers are compared.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	// Noisy marks a run started while the machine was already busy: a
	// 1-minute load average above half the CPUs.
	Noisy bool `json:"noisy"`
}

func readEnv() envInfo {
	e := envInfo{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	e.Noisy = e.LoadAvg1 > float64(e.NProc)/2
	return e
}

// gitCommit reads the checked-out commit straight from .git; a checkout
// that is not a repository (the driver's) reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}
