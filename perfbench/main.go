// Command perfbench is the repository's benchmark. It runs one workload
// through experiments.Run on the sequential simulated kernel, repeatedly and
// in fresh processes, for a fixed host-time budget, audits every run, and
// prints each metric by name and unit, ending with one JSON line:
//
//	perfbench --workload conn-churn --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, from the same untimed reps plus one traced
// rep and the layer microbenchmarks. See README.md in this directory.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// minReps is the fewest timed reps a run makes, however short its
	// budget: enough for a median and a determinism check.
	minReps = 3
	// maxReps caps a run whose reps are unexpectedly short.
	maxReps = 200
	// maxThreads is the most OS threads a rep's Go runtime may run Go code
	// on (GOMAXPROCS), so host cost does not depend on the machine's size.
	maxThreads = 2
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (conn-churn, poll-scan, keepalive-cached, idle-push)")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "host seconds of timed reps to run")
		trace   = flag.Int("trace", 0, "1 prints the per-layer metrics from a traced rep and microbenchmarks; 0 the end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for the traced rep's spans")
		child   = flag.String("child", "", "internal: run one rep in this process (rep, traced or setup)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *child != "" {
		res, err := runRep(w, w.size, *seed, *child, *out)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	os.Exit(run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out))
}

// rep is one child's report plus what the parent measured around it.
type rep struct {
	repResult
	setupS float64 // process start to the server opening its poller
	rssMiB float64 // the child's peak resident set
}

// spawn runs one rep of w in a fresh process. The process start is taken just
// before exec, so setup time includes process creation and runtime start-up.
func spawn(w workload, seed int64, mode, out string) (rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return rep{}, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-out", out)
	cmd.Env = append(os.Environ(),
		"GOMAXPROCS="+strconv.Itoa(min(maxThreads, runtime.NumCPU())),
		"GOGC=100", "GOMEMLIMIT=off", "GODEBUG=")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		io.Copy(os.Stderr, &stderr)
		return rep{}, fmt.Errorf("%s rep of %s (seed %d): %w", mode, w.name, seed, err)
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r.repResult); err != nil {
		return rep{}, fmt.Errorf("%s rep of %s: bad report: %w", mode, w.name, err)
	}
	r.setupS = float64(r.OpenUnixNano-start.UnixNano()) / 1e9
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// run is the parent: timed reps for the budget, then the report.
func run(w workload, seed int64, budget time.Duration, traced bool, out string) int {
	var reps []rep
	var setups []float64
	start := time.Now()
	for len(reps) < maxReps && (len(reps) < minReps || time.Since(start) < budget) {
		if !traced {
			// A setup probe per rep doubles the set-up samples for a few
			// milliseconds each.
			p, err := spawn(w, seed, modeSetup, out)
			if err != nil {
				return fail(err)
			}
			setups = append(setups, p.setupS)
		}
		r, err := spawn(w, seed, modeRep, out)
		if err != nil {
			return fail(err)
		}
		reps = append(reps, r)
		setups = append(setups, r.setupS)
	}

	problems := checkReps(reps)
	var m report
	if !traced {
		m = endToEndReport(reps, setups)
	} else {
		tr, err := spawn(w, seed, modeTraced, out)
		if err != nil {
			return fail(err)
		}
		if tr.FP != reps[0].FP {
			problems = append(problems, fmt.Sprintf("traced rep's simulated metrics differ: %+v vs %+v", tr.FP, reps[0].FP))
		}
		problems = append(problems, prefixed("traced rep: ", tr.Audit)...)
		micros, err := runMicros(reps[0].FP.Completed)
		if err != nil {
			problems = append(problems, err.Error())
		}
		m = perLayerReport(reps, tr, micros)
	}

	fp := reps[0].FP
	fmt.Printf("workload %s seed %d: %d reps, %d issued, %d completed, %d errors per rep\n",
		w.name, seed, len(reps), fp.Issued, fp.Completed, fp.Errors)
	m.print()
	res := result{Correct: len(problems) == 0, Metrics: m.json()}
	for _, r := range reps {
		res.Attempted += r.FP.Issued
		res.Failed += r.FP.Errors
	}
	for _, p := range problems {
		fmt.Println("AUDIT FAILED:", p)
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// checkReps audits every rep and requires all reps of the seed to agree on
// every simulated metric and deterministic count.
func checkReps(reps []rep) []string {
	var problems []string
	for i, r := range reps {
		problems = append(problems, prefixed(fmt.Sprintf("rep %d: ", i), r.Audit)...)
		if r.FP != reps[0].FP {
			problems = append(problems, fmt.Sprintf("rep %d's simulated metrics differ from rep 0's: %+v vs %+v", i, r.FP, reps[0].FP))
		}
	}
	return problems
}

func prefixed(prefix string, msgs []string) []string {
	out := make([]string, len(msgs))
	for i, m := range msgs {
		out[i] = prefix + m
	}
	return out
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is an ordered list of metric values with their notes.
type report struct {
	entries []reportEntry
}

type reportEntry struct {
	def   metricDef
	value float64
	note  string
}

// add records name's value; name must be in defs.
func (r *report) add(defs []metricDef, name string, value float64, note string) {
	for _, d := range defs {
		if d.Name == name {
			r.entries = append(r.entries, reportEntry{d, value, note})
			return
		}
	}
	panic("perfbench: metric " + name + " is not in the catalog")
}

func (r report) print() {
	for _, e := range r.entries {
		fmt.Printf("  %-30s %14.6g %-6s %s\n", e.def.Name, e.value, e.def.Unit, e.note)
	}
}

func (r report) json() map[string]metricValue {
	m := make(map[string]metricValue, len(r.entries))
	for _, e := range r.entries {
		m[e.def.Name] = metricValue{e.value, e.def.Unit}
	}
	return m
}

func endToEndReport(reps []rep, setups []float64) report {
	var r report
	walls := collect(reps, func(x rep) float64 { return x.WallS })
	rss := collect(reps, func(x rep) float64 { return x.rssMiB })
	wall, wallSpread := medianSpread(walls)
	setup, setupSpread := medianSpread(setups)
	// Per-rep peaks fall in two modes about 10% apart, by where the last
	// collection before the live heap's peak lands; a median flips between
	// them from run to run, while the mean stays put.
	peak := mean(rss)
	_, rssSpread := medianSpread(rss)
	fp := reps[0].FP
	r.add(endToEnd, "wall_s", wall, spreadNote(len(walls), wallSpread))
	r.add(endToEnd, "setup_s", setup, spreadNote(len(setups), setupSpread))
	r.add(endToEnd, "peak_rss_mib", peak, fmt.Sprintf("(mean of %d, iqr %.1f%%)", len(rss), 100*rssSpread))
	r.add(endToEnd, "sim_reply_rate", replyRate(fp),
		fmt.Sprintf("(%d replies over %.3f virtual s)", fp.Replies, float64(fp.FinishedNs-fp.StartedNs)/1e9))
	return r
}

// replyRate is replies per virtual second of the measured window. It is
// computed from the counts rather than read from ReplyRate.Mean, whose
// trailing sample is counted twice.
func replyRate(fp fingerprint) float64 {
	return float64(fp.Replies) / (float64(fp.FinishedNs-fp.StartedNs) / 1e9)
}

func perLayerReport(reps []rep, tr rep, micros []microResult) report {
	var r report
	add := func(name string, v float64, note string) { r.add(perLayer, name, v, note) }
	fp := reps[0].FP
	wall, _ := medianSpread(collect(reps, func(x rep) float64 { return x.WallS }))
	det := "(deterministic)"

	add("simkernel.events", float64(fp.Events), det)
	add("simkernel.ns_per_event", wall*1e9/float64(fp.Events), fmt.Sprintf("(median wall of %d reps)", len(reps)))
	add("simkernel.pending_max", float64(tr.PendingMax), "(traced)")

	add("mech.waits", float64(fp.Waits), det)
	add("mech.driver_polls", float64(fp.DriverPolls), det)
	add("mech.events_returned", float64(fp.EventsReturned), det)
	add("mech.useful_ratio", ratio(float64(fp.EventsReturned), float64(fp.DriverPolls)), det)
	add("mech.calls", float64(tr.Calls[spanWait]+tr.Calls[spanCtl]), "(traced: Wait, Add, Modify, Remove)")
	add("mech.wait_s", tr.SelfS[spanWait], "(traced self time)")
	add("mech.ctl_s", tr.SelfS[spanCtl], "(traced self time)")
	add("mech.ns_per_driver_poll", ratio((tr.SelfS[spanWait]+tr.SelfS[spanCtl])*1e9, float64(fp.DriverPolls)),
		"(traced wait+ctl self time per driver poll)")

	for _, m := range micros {
		add(m.name, m.nsOp, fmt.Sprintf("(micro, median of %d batches, iqr %.1f%%)", microSamples, 100*m.spread))
	}

	add("eventlib.loops", float64(fp.Loops), det)
	add("eventlib.events_per_loop", ratio(float64(fp.EventsReturned), float64(fp.Loops)), det)
	add("eventlib.dispatch_s", tr.SelfS[spanDispatch], fmt.Sprintf("(traced self time, %d dispatches)", tr.Calls[spanDispatch]))

	add("httpcore.accepted", float64(fp.Accepted), det)
	add("httpcore.served", float64(fp.Served), det)
	add("httpcore.cache_hit_ratio", ratio(float64(fp.CacheHits), float64(fp.CacheHits+fp.CacheMisses)), det)
	add("httpcore.service_p99_ms", fp.ServiceP99Ms, det)
	add("pushcore.pushed", float64(fp.Pushed), det)

	med := func(f func(x rep) float64) float64 { v, _ := medianSpread(collect(reps, f)); return v }
	mallocs := med(func(x rep) float64 { return float64(x.Mallocs) })
	add("runtime.mallocs", mallocs, "(median of reps)")
	add("runtime.alloc_mib", med(func(x rep) float64 { return float64(x.AllocBytes) / (1 << 20) }), "(median of reps)")
	add("runtime.mallocs_per_conn", mallocs/float64(fp.Issued), "(per issued connection)")
	add("runtime.gc_cycles", med(func(x rep) float64 { return float64(x.GCCycles) }), "(median of reps)")
	add("runtime.gc_cpu_s", med(func(x rep) float64 { return x.GCCPUS }), "(median of reps)")

	add("sim.cpu_util", fp.CPUUtil, det)
	add("sim.virtual_s", float64(fp.VirtualNs)/1e9, det)
	add("sim.completed", float64(fp.Completed), det)
	add("sim.p50_ms", fp.P50Ms, fmt.Sprintf("(client latency, %d completed)", fp.LatCount))
	add("sim.p99_ms", fp.P99Ms, fmt.Sprintf("(client latency, %d completed)", fp.LatCount))

	for _, mod := range profModules {
		add("prof."+mod, tr.Prof[mod], fmt.Sprintf("(of %d CPU samples)", tr.ProfSamples))
	}
	add("trace.overhead_pct", 100*(tr.WallS-wall)/wall,
		fmt.Sprintf("(traced wall %.3f s vs median %.3f s)", tr.WallS, wall))
	return r
}

func collect(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianSpread returns the median of xs and its interquartile range as a
// fraction of the median.
func medianSpread(xs []float64) (median, spread float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	median = q(0.5)
	if median != 0 {
		spread = (q(0.75) - q(0.25)) / median
	}
	return median, spread
}

func spreadNote(n int, spread float64) string {
	return fmt.Sprintf("(median of %d, iqr %.1f%%)", n, 100*spread)
}
