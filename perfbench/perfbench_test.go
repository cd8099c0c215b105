package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/epoll"
	"repro/internal/experiments"
	"repro/internal/httpsim"
	"repro/internal/simkernel"
)

// testSize is the small instance of every workload the tests run; testSeeds
// are the seed the benchmark is tuned on and a held-out one.
const testSize = 3000

var testSeeds = []int64{1, 7919}

// render is a run's result with the server kind normalised, as text, so the
// comparison covers every field byte for byte.
func render(r experiments.RunResult, server experiments.ServerKind) string {
	r.Spec.Server = server
	return fmt.Sprintf("%+v", r)
}

// TestSeamLeavesRunsByteIdentical runs a small instance of every workload on
// both seeds three ways — plain, through the registry seam, and through the
// seam with the tracing wrapper — and requires identical results, a clean
// audit and a non-trivial mechanism record.
func TestSeamLeavesRunsByteIdentical(t *testing.T) {
	for _, w := range workloads {
		if err := registerSeam(w.backend); err != nil {
			t.Fatal(err)
		}
		for _, seed := range testSeeds {
			plainSpec := w.plainSpec(testSize, seed)
			plain := experiments.Run(plainSpec)
			want := render(plain, plainSpec.Server)
			if bad := audit(plain); len(bad) > 0 {
				t.Errorf("%s seed %d: audit: %v", w.name, seed, bad)
			}
			if plain.Primary.Waits == 0 || plain.Load.Errors != 0 {
				t.Errorf("%s seed %d: %d waits, %d errors; want waits and no errors",
					w.name, seed, plain.Primary.Waits, plain.Load.Errors)
			}

			seamHook = nil
			seam := experiments.Run(w.seamSpec(testSize, seed))
			if got := render(seam, plainSpec.Server); got != want {
				t.Errorf("%s seed %d: seam run differs from plain run:\n got %s\nwant %s", w.name, seed, got, want)
			}

			var tr *tracer
			seamHook = func(k *simkernel.Kernel, p core.Poller) core.Poller {
				tr = newTracer(k.Sim)
				return &tracedPoller{Poller: p, tr: tr}
			}
			traced := experiments.Run(w.seamSpec(testSize, seed))
			seamHook = nil
			if got := render(traced, plainSpec.Server); got != want {
				t.Errorf("%s seed %d: traced run differs from plain run:\n got %s\nwant %s", w.name, seed, got, want)
			}
			if tr == nil || len(tr.spans) == 0 {
				t.Errorf("%s seed %d: the traced run recorded no spans", w.name, seed)
			}
		}
	}
}

// statsPoller is a do-nothing poller, optionally with mechanism statistics.
type statsPoller struct{ core.Poller }

type statsSourcePoller struct {
	core.Poller
	stats core.Stats
}

func (p statsSourcePoller) MechanismStats() core.Stats { return p.stats }

func TestTracedPollerForwardsStatsSource(t *testing.T) {
	want := core.Stats{Waits: 3, DriverPolls: 7, EventsReturned: 2}
	var p core.Poller = &tracedPoller{Poller: statsSourcePoller{stats: want}}
	src, ok := p.(core.StatsSource)
	if !ok {
		t.Fatal("tracedPoller does not implement core.StatsSource")
	}
	if got := src.MechanismStats(); got != want {
		t.Errorf("MechanismStats = %+v, want %+v", got, want)
	}
	p = &tracedPoller{Poller: statsPoller{}}
	if got := p.(core.StatsSource).MechanismStats(); got != (core.Stats{}) {
		t.Errorf("MechanismStats without a source = %+v, want zero", got)
	}

	// Over a real mechanism the forwarded statistics are the mechanism's own,
	// and the control calls are recorded as spans.
	k := simkernel.NewKernel(nil)
	proc := k.NewProc("test")
	inner := epoll.Open(k, proc, epoll.DefaultOptions())
	tr := newTracer(k.Sim)
	wrapped := &tracedPoller{Poller: inner, tr: tr}
	wrapped.Wait(8, 0, func([]core.Event, core.Time) {})
	k.Sim.Run()
	if got, want := wrapped.MechanismStats(), inner.MechanismStats(); got != want || got.Waits == 0 {
		t.Errorf("forwarded stats %+v, mechanism's %+v", got, want)
	}
	calls, _ := tr.selfTimes()
	if calls[spanWait] != 1 || calls[spanDispatch] != 1 {
		t.Errorf("spans: %d waits, %d dispatches; want 1 and 1", calls[spanWait], calls[spanDispatch])
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{start: 0, end: 100, parent: -1, kind: spanDispatch},
		{start: 10, end: 40, parent: 0, kind: spanCtl},
		{start: 50, end: 90, parent: 0, kind: spanWait},
		{start: 60, end: 70, parent: 2, kind: spanDispatch},
	}}
	calls, self := tr.selfTimes()
	want := [len(spanNames)]float64{30e-9, 30e-9, 40e-9}
	for k := range want {
		if math.Abs(self[k]-want[k]) > 1e-15 {
			t.Errorf("%s self time %g, want %g", spanNames[k], self[k], want[k])
		}
	}
	if calls != [len(spanNames)]int64{1, 1, 2} {
		t.Errorf("calls %v", calls)
	}
}

// benchmarkFile is BENCHMARK.json's shape.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// declared maps each metric BENCHMARK.json declares to its unit, checking
// direction and bound on the way.
func declared(t *testing.T, ms []benchMetric, bounded bool) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, m := range ms {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Unit == "" {
			t.Errorf("%s: no unit", m.Name)
		}
		if bounded != (m.Bound != nil) || (bounded && !(*m.Bound > 0 && *m.Bound <= 0.25)) {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if _, dup := out[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		out[m.Name] = m.Unit
	}
	return out
}

// TestPrintedMetricsAreDeclared builds both reports from a small traced run
// and requires every printed name to be declared in BENCHMARK.json with its
// unit and a direction, and every declared metric to be printed.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark's %v", names, ours)
	}

	w, err := lookupWorkload("conn-churn")
	if err != nil {
		t.Fatal(err)
	}
	var reps []rep
	for i := 0; i < 2; i++ {
		r, err := runRep(w, testSize, 1, modeRep, "")
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep{repResult: r, setupS: 0.01, rssMiB: 20})
	}
	tr, err := runRep(w, testSize, 1, modeTraced, "")
	if err != nil {
		t.Fatal(err)
	}
	if problems := checkReps(append(reps, rep{repResult: tr})); len(problems) > 0 {
		t.Errorf("audit: %v", problems)
	}
	micros, err := runMicros(reps[0].FP.Completed)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		report  report
		metrics []benchMetric
		bounded bool
	}{
		{endToEndReport(reps, []float64{0.01, 0.02}), f.EndToEnd, true},
		{perLayerReport(reps, rep{repResult: tr}, micros), f.PerLayer, false},
	} {
		want := declared(t, c.metrics, c.bounded)
		got := c.report.json()
		for name, v := range got {
			if unit, ok := want[name]; !ok || unit != v.Unit {
				t.Errorf("printed %s in %s; BENCHMARK.json has unit %q", name, v.Unit, unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("BENCHMARK.json declares %s, which is not printed", name)
			}
		}
	}
}

func TestSplitParseEqualsOneShot(t *testing.T) {
	for _, close := range []bool{false, true} {
		req := httpsim.FormatRequest11("/index.html", close)
		want, err := parseChunks(req, len(req))
		if err != nil {
			t.Fatal(err)
		}
		for chunk := 1; chunk < len(req); chunk++ {
			got, err := parseChunks(req, chunk)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d-byte chunks parse %+v, one-shot %+v", chunk, got, want)
			}
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/simkernel.(*Simulator).heapPop", "main.main"}, "simkernel"},
		{[]string{"repro/internal/servers/httpcore.(*Handler).serve"}, "httpcore"},
		{[]string{"repro/internal/rcache.(*Cache).Get"}, "httpcore"},
		{[]string{"repro/internal/metrics.Percentile"}, "loadgen"},
		{[]string{"repro/internal/servers/thttpd.New"}, "other"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "repro/internal/netsim.x"}, "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc"}, "gc"},
		{[]string{"slices.pdqsortOrdered[go.shape.float64]", "sort.Float64s"}, "sort"},
		{[]string{"runtime.memmove"}, "other"},
		{nil, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestMedianSpread(t *testing.T) {
	m, s := medianSpread([]float64{4, 1, 3, 2, 5})
	if m != 3 || s != 2.0/3 {
		t.Errorf("medianSpread = %v, %v; want 3, 2/3", m, s)
	}
}
