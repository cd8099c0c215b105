package experiments

import (
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
)

// gatedMetrics renders every deterministic metric the figure and gate tooling
// consumes. A parallel run must reproduce all of them byte-for-byte.
func gatedMetrics(r RunResult) string {
	return fmt.Sprintf("samples=%v reply=%+v err=%.6f errsBy=%v median=%v p90=%v max=%v lat=%+v svc=%+v offered=%v issued=%d completed=%d",
		r.Load.ReplyRateSamples, r.Load.ReplyRate, r.Load.ErrorPercent,
		r.Load.ErrorsBy, r.Load.MedianLatencyMs, r.Load.P90LatencyMs,
		r.Load.MaxLatencyMs, r.Latency, r.ServiceLatency, r.Load.OfferedRate,
		r.Load.Issued, r.Load.Completed)
}

// TestParallelMatchesSequential pins the tentpole determinism claim: for every
// server family, a sharded run produces byte-identical deterministic metrics
// at any thread count, including the single-threaded legacy engine.
func TestParallelMatchesSequential(t *testing.T) {
	kinds := []ServerKind{
		ServerThttpdPoll, ServerPhhttpd, ServerThttpdEpoll, PreforkKind(4), ServerHybrid,
		// compio rides the same sharded kernel: its completion postings run as
		// same-lane interrupts, so thttpd with one worker and with two must
		// stay bit-identical at any thread count.
		ServerThttpdCompio, ServerKind("prefork-2-compio"),
	}
	for _, kind := range kinds {
		spec := DefaultSpec(kind, 400, 251)
		spec.Connections = 1500
		want := gatedMetrics(Run(spec))
		for _, threads := range []int{2, 8} {
			spec.Threads = threads
			res := Run(spec)
			if res.Threads != threads {
				t.Errorf("%s threads=%d: engine fell back to %d threads", kind, threads, res.Threads)
			}
			if got := gatedMetrics(res); got != want {
				t.Errorf("%s threads=%d diverged from sequential:\nseq: %s\npar: %s", kind, threads, want, got)
			}
		}
	}
}

// TestParallelMatchesSequentialWorkloads repeats the determinism check across
// the adversarial workloads, which exercise the cross-lane paths hardest:
// flash crowds issue same-instant bursts, slow-loris keeps per-lane trickle
// timers running, and the WAN mix spreads RTTs across three orders of
// magnitude (shrinking the lookahead window to the fastest band).
func TestParallelMatchesSequentialWorkloads(t *testing.T) {
	for _, wl := range []string{"flashcrowd", "slowloris", "wan"} {
		spec := DefaultSpec(ServerPhhttpd, 400, 251)
		spec.Connections = 1500
		spec.Workload = wl
		want := gatedMetrics(Run(spec))
		spec.Threads = 8
		if got := gatedMetrics(Run(spec)); got != want {
			t.Errorf("workload %s diverged from sequential:\nseq: %s\npar: %s", wl, want, got)
		}
	}
}

// TestParallelIneligibleFallsBack covers the configurations the sharded
// engine refuses: they must run sequentially (Threads reported as 1) and
// still complete correctly rather than panic.
func TestParallelIneligibleFallsBack(t *testing.T) {
	rr := netsim.DefaultConfig()
	rr.Shard = netsim.ShardRoundRobin
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"round-robin", func() RunSpec {
			s := DefaultSpec(PreforkKind(2), 400, 0)
			s.Network = &rr
			return s
		}()},
		{"handoff", func() RunSpec {
			s := DefaultSpec(PreforkKind(2), 400, 0)
			s.PreforkMode = thttpd.ModeHandoff
			return s
		}()},
	}
	for _, c := range cases {
		c.spec.Connections = 500
		c.spec.Threads = 4
		res := Run(c.spec)
		if res.Threads != 1 {
			t.Errorf("%s: ineligible config ran with %d threads", c.name, res.Threads)
		}
		if res.Load.Issued != 500 {
			t.Errorf("%s: issued %d connections, want 500", c.name, res.Load.Issued)
		}
	}
}
