package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simkernel"
)

// Child modes: a rep is one untraced experiments.Run, a traced rep adds the
// poller wrapper and a CPU profile, and a setup probe exits as soon as the
// server opens its poller.
const (
	modeRep    = "rep"
	modeTraced = "traced"
	modeSetup  = "setup"
)

// fingerprint is every simulated metric and deterministic count of a run. It
// depends only on the workload and the seed, so all reps of a seed, traced or
// not, must produce equal fingerprints.
type fingerprint struct {
	Issued, Completed, Errors, Replies int
	StartedNs, FinishedNs              int64
	LatCount                           int64
	P50Ms, P99Ms                       float64
	CPUUtil                            float64
	VirtualNs                          int64
	Events                             int64
	Waits, DriverPolls, EventsReturned int64
	Loops                              int64
	Accepted, Served, Pushed           int64
	CacheHits, CacheMisses             int64
	ServiceP99Ms                       float64
}

// repResult is what a child process reports on its one line of output.
type repResult struct {
	OpenUnixNano int64 // wall clock when the server opened its poller
	WallS        float64
	FP           fingerprint
	Audit        []string // violated run invariants

	Mallocs, AllocBytes uint64
	GCCycles            uint32
	GCCPUS              float64

	// Traced reps only.
	Calls       [len(spanNames)]int64
	SelfS       [len(spanNames)]float64
	PendingMax  int
	Prof        map[string]float64
	ProfSamples int64
}

// runRep executes one run of w at size n and seed in this process. A setup
// probe prints its result and exits from inside the seam; spanDir, when
// non-empty, receives a traced rep's spans.
func runRep(w workload, n int, seed int64, mode, spanDir string) (repResult, error) {
	if err := registerSeam(w.backend); err != nil {
		return repResult{}, err
	}
	var (
		res repResult
		k   *simkernel.Kernel
		tr  *tracer
	)
	seamHook = func(kk *simkernel.Kernel, p core.Poller) core.Poller {
		k = kk
		res.OpenUnixNano = time.Now().UnixNano()
		switch mode {
		case modeSetup:
			if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
				os.Exit(1)
			}
			os.Exit(0)
		case modeTraced:
			tr = newTracer(kk.Sim)
			return &tracedPoller{Poller: p, tr: tr}
		}
		return p
	}
	defer func() { seamHook = nil }()

	spec := w.seamSpec(n, seed)
	var prof bytes.Buffer
	if mode == modeTraced {
		// 500 Hz instead of the default 100 gives a traced run of a few
		// seconds enough samples to resolve each module's share. The runtime
		// notes on stderr that StartCPUProfile cannot reset the rate.
		runtime.SetCPUProfileRate(500)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return repResult{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPUSeconds()
	t0 := time.Now()
	r := experiments.Run(spec)
	res.WallS = time.Since(t0).Seconds()
	gc1 := gcCPUSeconds()
	runtime.ReadMemStats(&ms1)
	if mode == modeTraced {
		pprof.StopCPUProfile()
	}
	if k == nil {
		return repResult{}, fmt.Errorf("%s: the server never opened its poller through the seam", w.name)
	}

	res.Mallocs = ms1.Mallocs - ms0.Mallocs
	res.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCCPUS = gc1 - gc0
	res.FP = fingerprintOf(r, k)
	res.Audit = audit(r)

	if tr != nil {
		res.Calls, res.SelfS = tr.selfTimes()
		res.PendingMax = tr.pendingMax
		var err error
		if res.Prof, res.ProfSamples, err = foldProfile(prof.Bytes()); err != nil {
			return repResult{}, err
		}
		if spanDir != "" {
			if err := os.MkdirAll(spanDir, 0o755); err != nil {
				return repResult{}, err
			}
			if err := tr.writeSpans(filepath.Join(spanDir, "spans-"+w.name+".tsv")); err != nil {
				return repResult{}, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return res, nil
}

func fingerprintOf(r experiments.RunResult, k *simkernel.Kernel) fingerprint {
	return fingerprint{
		Issued: r.Load.Issued, Completed: r.Load.Completed,
		Errors: r.Load.Errors, Replies: r.Load.Replies,
		StartedNs: int64(r.Load.Started), FinishedNs: int64(r.Load.Finished),
		LatCount: r.Latency.Count, P50Ms: r.Latency.P50, P99Ms: r.Latency.P99,
		CPUUtil:   r.CPUUtilization,
		VirtualNs: int64(r.VirtualTime),
		Events:    k.Sim.Executed,
		Waits:     r.Primary.Waits, DriverPolls: r.Primary.DriverPolls,
		EventsReturned: r.Primary.EventsReturned,
		Loops:          r.EventLoops,
		Accepted:       r.Server.Accepted, Served: r.Server.Served, Pushed: r.Server.Pushed,
		CacheHits: r.Server.CacheHits, CacheMisses: r.Server.CacheMisses,
		ServiceP99Ms: r.ServiceLatency.P99,
	}
}

// audit checks the run invariants every run must hold.
func audit(r experiments.RunResult) []string {
	var bad []string
	l := r.Load
	if l.Issued < 1 {
		bad = append(bad, "no operation was issued")
	}
	if l.Completed+l.Errors != l.Issued {
		bad = append(bad, fmt.Sprintf("completed %d + errors %d != issued %d", l.Completed, l.Errors, l.Issued))
	}
	if l.Replies < l.Completed {
		bad = append(bad, fmt.Sprintf("replies %d < completed %d", l.Replies, l.Completed))
	}
	if !(r.CPUUtilization > 0 && r.CPUUtilization <= 1) {
		bad = append(bad, fmt.Sprintf("CPU utilisation %v outside (0, 1]", r.CPUUtilization))
	}
	if l.Finished <= l.Started {
		bad = append(bad, fmt.Sprintf("finished %v not after started %v", l.Finished, l.Started))
	}
	return bad
}

// gcCPUSeconds is the runtime's estimate of CPU time spent in the garbage
// collector so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}
