package main

import (
	"os"
	"runtime"
)

// provenanceInfo stamps every result.
type provenanceInfo struct {
	Rev        string `json:"rev"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       int64  `json:"seed"`
}

// provenance stamps a run. The revision comes from CLIENTBENCH_REV,
// which run.py sets to the git revision or, outside a git checkout, to
// a hash of the sources.
func provenance(seed int64) provenanceInfo {
	rev := os.Getenv("CLIENTBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	return provenanceInfo{
		Rev:        rev,
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
	}
}
