package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/loadgen"
)

// TestWorkloadRunsAreDeterministic: for every registered workload and each of
// the paper's four mechanisms, two identical runs must be DeepEqual in every
// observable — arrival schedules, adversarial client behavior and the latency
// histograms all derive from the seeded generator and virtual time, never
// from wall clock or map order.
func TestWorkloadRunsAreDeterministic(t *testing.T) {
	// Each workload family pairs with its own server family (the pairing is
	// enforced by Run): request workloads run against the HTTP servers, push
	// against pushcore and dhtchurn against dhtnode.
	serversFor := func(w loadgen.Workload) []ServerKind {
		switch w.Kind {
		case loadgen.KindPush:
			return []ServerKind{"push-poll", "push-devpoll", "push-epoll", "push-compio"}
		case loadgen.KindDHTChurn:
			return []ServerKind{"dht-poll", "dht-devpoll", "dht-epoll", "dht-compio"}
		default:
			return []ServerKind{ServerThttpdPoll, ServerThttpdDevPoll, ServerPhhttpd, ServerHybrid}
		}
	}
	for _, w := range loadgen.Workloads() {
		for _, server := range serversFor(w) {
			t.Run(w.Name+"/"+string(server), func(t *testing.T) {
				spec := RunSpec{
					Server:      server,
					RequestRate: 900,
					Connections: 800,
					Seed:        3,
					Workload:    w.Name,
				}
				if w.Kind == loadgen.KindRequest {
					spec.Inactive = 101
				}
				a, b := Run(spec), Run(spec)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("two identical %s runs diverged under workload %s:\n%+v\n%+v",
						server, w.Name, a, b)
				}
				if a.Load.Issued != 800 {
					t.Fatalf("issued = %d", a.Load.Issued)
				}
				// Request and push clients record one latency sample per
				// completion; a churning peer records one per pong, so its
				// histogram holds a whole-number multiple of the completions.
				if a.Load.Completed > 0 {
					if w.Kind == loadgen.KindDHTChurn {
						if a.Latency.Count < int64(a.Load.Completed) || a.Latency.Count%int64(a.Load.Completed) != 0 {
							t.Fatalf("latency histogram count %d not a multiple of completed %d", a.Latency.Count, a.Load.Completed)
						}
					} else if a.Latency.Count != int64(a.Load.Completed) {
						t.Fatalf("latency histogram count %d != completed %d", a.Latency.Count, a.Load.Completed)
					}
				}
			})
		}
	}
}

// TestWorkloadPercentilesPopulated: a served run fills both the
// client-observed connection percentiles and the server-side service
// percentiles, and they are ordered.
func TestWorkloadPercentilesPopulated(t *testing.T) {
	res := Run(RunSpec{Server: ServerThttpdDevPoll, RequestRate: 800, Inactive: 101, Connections: 1000, Seed: 1})
	if res.Latency.Count == 0 || res.ServiceLatency.Count == 0 {
		t.Fatalf("percentiles empty: client=%+v service=%+v", res.Latency, res.ServiceLatency)
	}
	for name, p := range map[string]struct {
		p50, p90, p99, p999, max float64
	}{
		"client":  {res.Latency.P50, res.Latency.P90, res.Latency.P99, res.Latency.P999, res.Latency.Max},
		"service": {res.ServiceLatency.P50, res.ServiceLatency.P90, res.ServiceLatency.P99, res.ServiceLatency.P999, res.ServiceLatency.Max},
	} {
		if p.p50 <= 0 || p.p50 > p.p90 || p.p90 > p.p99 || p.p99 > p.p999 || p.p999 > p.max {
			t.Fatalf("%s percentiles not ordered: %+v", name, p)
		}
	}
}

// TestAdversarialWorkloadsTaxPoll pins the extension's qualitative claim: the
// slow-loris background population costs poll() real throughput at a rate
// devpoll sustains, because every dribbled byte re-triggers poll's full
// interest-set scan.
func TestAdversarialWorkloadsTaxPoll(t *testing.T) {
	run := func(server ServerKind) RunResult {
		return Run(RunSpec{
			Server:      server,
			RequestRate: 1000,
			Inactive:    251,
			Connections: 1500,
			Seed:        1,
			Workload:    "slowloris",
		})
	}
	poll, devpoll := run(ServerThttpdPoll), run(ServerThttpdDevPoll)
	if devpoll.Load.ReplyRate.Mean < 900 {
		t.Fatalf("devpoll should sustain ~1000 req/s under slowloris, got %.1f", devpoll.Load.ReplyRate.Mean)
	}
	if poll.Load.ReplyRate.Mean > 0.8*devpoll.Load.ReplyRate.Mean {
		t.Fatalf("slowloris should tax poll vs devpoll: poll %.1f, devpoll %.1f",
			poll.Load.ReplyRate.Mean, devpoll.Load.ReplyRate.Mean)
	}
}

// TestStalledReadersHoldDescriptors: the stalled-reader population forces the
// server through the full serve path and then jams its responses, so the
// server performs more serves than the benchmark population alone explains.
func TestStalledReadersHoldDescriptors(t *testing.T) {
	res := Run(RunSpec{
		Server:      ServerThttpdDevPoll,
		RequestRate: 600,
		Inactive:    101,
		Connections: 800,
		Seed:        1,
		Workload:    "stalled",
	})
	if res.Server.Served <= int64(res.Load.Completed) {
		t.Fatalf("stalled readers should add serves beyond the %d benchmark completions, served %d",
			res.Load.Completed, res.Server.Served)
	}
	if res.Load.ErrorPercent > 20 {
		t.Fatalf("benchmark population should still mostly complete: %+v", res.Load)
	}
}

// TestOverloadFigureDefinitionsAndRun: the overload family is well-formed
// (unique ids, known workloads, four-mechanism curve sets) and a scaled-down
// run of one figure produces a formatted table with both series per curve.
func TestOverloadFigureDefinitionsAndRun(t *testing.T) {
	seen := map[string]bool{}
	for _, f := range overloadFigures() {
		if seen[f.ID] {
			t.Fatalf("duplicate overload figure id %s", f.ID)
		}
		seen[f.ID] = true
		if _, ok := loadgen.LookupWorkload(f.Workload); !ok {
			t.Fatalf("%s names unknown workload %q", f.ID, f.Workload)
		}
		if len(f.Rates) < 3 || len(f.Curves) < 3 {
			t.Fatalf("%s underspecified: %+v", f.ID, f)
		}
	}
	fig := mustFigure(t, "fig20")
	fig.Rates = []float64{500, 900}
	fig.Curves = fig.Curves[:2]
	res := RunFigure(fig, SweepOptions{Connections: 600, Seed: 1})
	if len(res.Series) != 4 { // reply + p99 per curve
		t.Fatalf("series = %d, want 4", len(res.Series))
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(res.Runs))
	}
	out := Format(res)
	if !strings.Contains(out, "FIGURE 20") || !strings.Contains(out, "p99") {
		t.Fatalf("Format output malformed:\n%s", out)
	}
	pt := FormatPercentiles(res.Runs)
	if !strings.Contains(pt, "p999 ms") || len(strings.Split(strings.TrimSpace(pt), "\n")) != 5 {
		t.Fatalf("FormatPercentiles output malformed:\n%s", pt)
	}
}
