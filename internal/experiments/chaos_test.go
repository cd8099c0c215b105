package experiments

import (
	"testing"

	"repro/internal/faults"
)

// TestChaosRunsAreDeterministicAcrossThreads extends the byte-identity claim
// to the fault plane: every fault class's decisions are keyed by lane-local
// sequences or driver-assigned connection ids, so a chaos run shards exactly
// like a healthy one.
func TestChaosRunsAreDeterministicAcrossThreads(t *testing.T) {
	cases := []struct {
		name   string
		server ServerKind
		mutate func(*RunSpec)
	}{
		{"reset-epoll", ServerThttpdEpoll, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, ResetRate: 0.1, VanishRate: 0.02}
		}},
		{"emfile-poll", ServerThttpdPoll, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, FDLimit: 280}
		}},
		{"eintr-devpoll", ServerThttpdDevPoll, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, EINTRRate: 0.4}
		}},
		{"overflow-phhttpd", ServerPhhttpd, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, OverflowStormRate: 0.1}
		}},
		{"overflow-compio", ServerThttpdCompio, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, OverflowStormRate: 0.1}
		}},
		{"retry-hybrid", ServerHybrid, func(s *RunSpec) {
			s.Faults = faults.Config{Seed: 3, ResetRate: 0.1}
			s.Client.Retry = true
		}},
	}
	for _, c := range cases {
		spec := DefaultSpec(c.server, 400, 251)
		spec.Connections = 1500
		c.mutate(&spec)
		want := gatedMetrics(Run(spec))
		for _, threads := range []int{2, 8} {
			spec.Threads = threads
			res := Run(spec)
			if res.Threads != threads {
				t.Errorf("%s threads=%d: engine fell back to %d threads", c.name, threads, res.Threads)
			}
			if got := gatedMetrics(res); got != want {
				t.Errorf("%s threads=%d diverged from sequential:\nseq: %s\npar: %s", c.name, threads, want, got)
			}
		}
	}
}

// TestChaosGracefulDegradation runs all five mechanisms, and thttpd with two
// workers, under a combined fault storm — connection resets, a binding
// descriptor limit and EINTR on every other blocking wait — and requires each
// to degrade rather than break: the run finishes, the books balance, the
// server keeps completing requests, and the fault machinery demonstrably
// engaged (which for a multi-worker server means every worker's counters
// reach the result).
func TestChaosGracefulDegradation(t *testing.T) {
	kinds := []ServerKind{
		ServerThttpdPoll, ServerThttpdDevPoll, ServerPhhttpd,
		ServerThttpdEpoll, ServerThttpdCompio, ServerHybrid,
		PreforkKind(2), "prefork-2-rtsig",
	}
	for _, kind := range kinds {
		spec := DefaultSpec(kind, 400, 251)
		spec.Connections = 1500
		spec.Faults = faults.Config{
			Seed:      5,
			ResetRate: 0.15,
			FDLimit:   300,
			EINTRRate: 0.5,
		}
		res := Run(spec)
		if res.Load.Completed+res.Load.Errors != res.Load.Issued || res.Load.Issued != 1500 {
			t.Errorf("%s: conservation violated under chaos: %+v", kind, res.Load)
			continue
		}
		if res.Load.Completed == 0 {
			t.Errorf("%s: served nothing under chaos (errors=%v)", kind, res.Load.ErrorsBy)
		}
		if res.Server.Resets == 0 {
			t.Errorf("%s: no server-side resets booked at ResetRate 0.15", kind)
		}
		if res.Primary.Interrupts == 0 && res.Secondary.Interrupts == 0 {
			t.Errorf("%s: no EINTR interrupts at rate 0.5", kind)
		}
	}
}
