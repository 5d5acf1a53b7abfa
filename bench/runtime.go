package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// runtimeSample is the slice of runtime.MemStats the ledger reports.
type runtimeSample struct {
	mallocs, bytes, pauseNS uint64
}

func readRuntime() runtimeSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSample{mallocs: m.Mallocs, bytes: m.TotalAlloc, pauseNS: m.PauseTotalNs}
}

func (s runtimeSample) since(before runtimeSample) runtimeSample {
	return runtimeSample{s.mallocs - before.mallocs, s.bytes - before.bytes, s.pauseNS - before.pauseNS}
}

// report writes the window's allocation and GC cost per client operation
// (whole process: clients and servers share it).
func (s runtimeSample) report(r *result, ops int) {
	if ops > 0 {
		r.set("runtime.alloc_bytes_per_op", float64(s.bytes)/float64(ops))
		r.set("runtime.allocs_per_op", float64(s.mallocs)/float64(ops))
	}
	r.set("runtime.gc_pause_ms", float64(s.pauseNS)/1e6)
	r.set("runtime.peak_rss_mb", peakRSSMB())
}

// peakRSSMB is the process's resident-set high-water mark (Linux; 0
// where /proc is absent). It never falls, so in a run of several passes it
// is the mark so far.
func peakRSSMB() float64 {
	fields := strings.Fields(procValue("/proc/self/status", "VmHWM"))
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseFloat(fields[0], 64)
	return kb / 1024
}

// procValue returns what follows "key :" on the first line of a /proc
// file that starts with key.
func procValue(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// provenance is what a reader needs to compare two ledgers.
type provenance struct {
	GitCommit  string  `json:"git_commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"` // of the generated load; the simulated platforms are fixed
	Clients    string  `json:"clients"`
	WarmupS    float64 `json:"warmup_s"`
	MeasuredS  float64 `json:"measured_s"`
	Transport  string  `json:"transport"`
}

func newProvenance(seed int64, seconds float64) provenance {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		GitCommit:  commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Seed:       seed,
		Clients:    "tcp_fetch 2, tcp_forecast 1, tcp_ingest_mix 1 writer + 1 reader, sim_storm 1 balanced client (open loop), fixed",
		WarmupS:    tcpWarmup.Seconds(),
		MeasuredS:  seconds,
		Transport:  "one process, loopback TCP (never a real link); sim_* on the virtual clock",
	}
}

func cpuModel() string {
	if m := procValue("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}
