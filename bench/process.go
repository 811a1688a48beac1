package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// fingerprint identifies the machine and build a result file was measured
// on; -compare prints both sides' so a cross-machine comparison is visible.
type fingerprint struct {
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GitCommit  string `json:"gitCommit"`
	Seed       int64  `json:"seed"`
}

func machineFingerprint(seed int64) fingerprint {
	return fingerprint{
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitCommit:  gitCommit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the revision stamped into the binary, then asks git; the
// driver's checkout is not a repository, so "unknown" is a normal answer.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world, so they can bracket every operation.
type allocCounters struct {
	samples [2]metrics.Sample
}

func newAllocCounters() *allocCounters {
	a := &allocCounters{}
	a.samples[0].Name = "/gc/heap/allocs:objects"
	a.samples[1].Name = "/gc/heap/allocs:bytes"
	return a
}

func (a *allocCounters) read() (objects, bytes uint64) {
	metrics.Read(a.samples[:])
	return a.samples[0].Value.Uint64(), a.samples[1].Value.Uint64()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// peakSampler polls heap size and goroutine count while a phase runs; the
// traced run owns it, the end-to-end run never starts one.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	heapBytes  uint64
	goroutines int
}

func startPeakSampler(every time.Duration) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			heap, gs := sample[0].Value.Uint64(), runtime.NumGoroutine()
			p.mu.Lock()
			if heap > p.heapBytes {
				p.heapBytes = heap
			}
			if gs > p.goroutines {
				p.goroutines = gs
			}
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the sampler, waits for it and returns the peaks seen.
func (p *peakSampler) finish() (heapMB float64, goroutines int) {
	close(p.stop)
	<-p.done
	return float64(p.heapBytes) / (1 << 20), p.goroutines
}

// gcTotals is the cumulative GC cycle count and pause time.
func gcTotals() (cycles uint32, pause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC, time.Duration(ms.PauseTotalNs)
}
