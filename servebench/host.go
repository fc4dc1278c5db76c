package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	stdruntime "runtime"
	"strconv"
	"strings"

	"repro/internal/packetio"
)

// hostRecord is the machine a run measured, printed with every run so a
// figure is never separated from its host. Everything is read-only.
type hostRecord struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Kernel      string `json:"kernel"`
	Go          string `json:"go"`
	RmemDefault int64  `json:"rmem_default"`
	GSO         bool   `json:"gso"`
	// TimeWait is the TCP TIME_WAIT socket count when the run started:
	// earlier runs' connection-per-call forwards leave these behind.
	TimeWait int64 `json:"time_wait"`
}

func printHost(workload string, seed uint64) {
	h := hostRecord{
		Workload:    workload,
		Seed:        seed,
		CPU:         cpuModel(),
		NProc:       stdruntime.NumCPU(),
		GOMAXPROCS:  stdruntime.GOMAXPROCS(0),
		Kernel:      readTrim("/proc/sys/kernel/osrelease"),
		Go:          stdruntime.Version(),
		RmemDefault: readInt("/proc/sys/net/core/rmem_default"),
		GSO:         packetio.Segmentation(),
		TimeWait:    timeWait(),
	}
	line, _ := json.Marshal(h)
	fmt.Println("host:", string(line))
}

// readTrim returns a file's contents trimmed, or "" when it is unreadable
// (the record is best-effort on hosts without these files).
func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// readInt returns a file's integer contents, or -1 when unreadable.
func readInt(path string) int64 {
	v, err := strconv.ParseInt(readTrim(path), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return stdruntime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return stdruntime.GOARCH
}

// timeWait reads the "tw" field of /proc/net/sockstat's TCP line; -1 when
// unreadable.
func timeWait() int64 {
	for _, line := range strings.Split(readTrim("/proc/net/sockstat"), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "TCP:" {
			continue
		}
		for i := 1; i+1 < len(fields); i += 2 {
			if fields[i] == "tw" {
				if v, err := strconv.ParseInt(fields[i+1], 10, 64); err == nil {
					return v
				}
			}
		}
	}
	return -1
}

// stealSeconds reads the CPU time the hypervisor took from this machine
// (the steal column of /proc/stat), summed over CPUs; 0 when unreadable.
func stealSeconds() float64 {
	line, _, _ := strings.Cut(readTrim("/proc/stat"), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / 100 // USER_HZ
}
