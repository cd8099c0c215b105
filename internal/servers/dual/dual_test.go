package dual

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

func start(t *testing.T, cfg Config) (*simkernel.Kernel, *netsim.Network, *Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, cfg)
	s.Start()
	k.Sim.RunUntil(core.Time(10 * core.Millisecond))
	return k, n, s
}

type probe struct {
	bytes  int
	closed bool
}

func get(k *simkernel.Kernel, n *netsim.Network, path string) *probe {
	p := &probe{}
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { p.bytes += b },
		OnPeerClosed: func(core.Time) { p.closed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatRequest(path))
	})
	return p
}

// burst launches n simultaneous requests.
func burst(k *simkernel.Kernel, n *netsim.Network, count int) []*probe {
	probes := make([]*probe, count)
	for i := range probes {
		probes[i] = get(k, n, "/index.html")
	}
	return probes
}

// --- Handoff: phhttpd ------------------------------------------------------

func TestHandoffDefaults(t *testing.T) {
	cfg := DefaultConfig(Handoff)
	if cfg.QueueLimit != 1024 || cfg.BatchDequeue || cfg.PerConnOverhead <= 0 || cfg.Backend != "poll" {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Zero-value config gets sensible fallbacks.
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, Config{})
	if s.cfg.QueueLimit <= 0 || s.cfg.MaxEventsPerWait <= 0 || s.cfg.WaitTimeout <= 0 || s.Fallback().Name() != "poll" {
		t.Fatalf("fallbacks = %+v", s.cfg)
	}
	if s.P.Name != "phhttpd" {
		t.Fatalf("process name = %q", s.P.Name)
	}
}

func TestServesRequestsViaRTSignals(t *testing.T) {
	k, n, s := start(t, DefaultConfig(Handoff))
	probes := []*probe{get(k, n, "/index.html"), get(k, n, "/index.html")}
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	if s.Stats().Served != 2 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	for i, p := range probes {
		if !p.closed || p.bytes != httpsim.ResponseSize(httpsim.StatusOK, httpsim.DefaultDocumentSize) {
			t.Fatalf("probe %d = %+v", i, p)
		}
	}
	if s.Polling() || s.ModeName() != "signal" {
		t.Fatalf("mode = %v", s.ModeName())
	}
	qstats := s.SignalQueue().MechanismStats()
	if qstats.Enqueued == 0 || qstats.EventsReturned == 0 {
		t.Fatalf("queue stats = %+v", qstats)
	}
	if s.OpenConnections() != 0 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
}

func TestQueueOverflowSwitchesToPollingAndStillServes(t *testing.T) {
	cfg := DefaultConfig(Handoff)
	cfg.QueueLimit = 8 // tiny queue so a burst overflows it
	k, n, s := start(t, cfg)

	// A burst of simultaneous connections: each enqueues a listener transition
	// and a readable completion; with limit 8 the queue overflows while the
	// server is still working through the backlog.
	const count = 60
	burst(k, n, count)
	k.Sim.RunUntil(core.Time(10 * core.Second))

	if s.Overflows == 0 {
		t.Fatal("queue never overflowed")
	}
	if !s.Polling() || s.ModeName() != "polling" {
		t.Fatalf("mode after overflow = %v", s.ModeName())
	}
	if s.Handoffs == 0 {
		t.Fatal("no connections were handed to the poll sibling")
	}
	// The poll sibling owns the listener and keeps serving: a new request after
	// recovery still completes.
	late := get(k, n, "/index.html")
	k.Sim.RunUntil(core.Time(20 * core.Second))
	s.Stop()
	if !late.closed {
		t.Fatal("request after overflow recovery was not served")
	}
	if s.Fallback().Len() == 0 {
		t.Fatal("poll sibling interest set is empty")
	}
	// The paper notes phhttpd never switches back to signal mode.
	if !s.Polling() {
		t.Fatal("server switched back to signal mode, which phhttpd never did")
	}
	if st := s.Stats(); st.Served < count/2 {
		t.Fatalf("served only %d of %d despite recovery", st.Served, count)
	}
}

func TestBatchDequeueConfigurationServes(t *testing.T) {
	cfg := DefaultConfig(Handoff)
	cfg.BatchDequeue = true
	cfg.MaxEventsPerWait = 32
	k, n, s := start(t, cfg)
	const conns = 50
	burst(k, n, conns)
	k.Sim.RunUntil(core.Time(5 * core.Second))
	s.Stop()
	if s.Stats().Served != conns {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	if s.SignalQueue().Options().BatchDequeue != true {
		t.Fatal("batch dequeue not propagated")
	}
}

func TestIdleTimeoutSweepsInactiveConnections(t *testing.T) {
	cfg := DefaultConfig(Handoff)
	cfg.IdleTimeout = 2 * core.Second
	cfg.WaitTimeout = 500 * core.Millisecond
	k, n, s := start(t, cfg)
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatPartialRequest("/index.html"))
	})
	k.Sim.RunUntil(core.Time(core.Second))
	if s.OpenConnections() != 1 {
		t.Fatalf("open = %d", s.OpenConnections())
	}
	k.Sim.RunUntil(core.Time(6 * core.Second))
	s.Stop()
	if s.OpenConnections() != 0 || s.Stats().IdleCloses != 1 {
		t.Fatalf("idle sweep failed: open=%d stats=%+v", s.OpenConnections(), s.Stats())
	}
}

// --- Mirror: the hybrid ----------------------------------------------------

func TestMirrorDefaults(t *testing.T) {
	cfg := DefaultConfig(Mirror)
	if cfg.HighWater <= 0 || cfg.LowWater <= 0 || cfg.ConsecutiveLow <= 0 || cfg.PerConnOverhead != 0 || cfg.Backend != "devpoll" {
		t.Fatalf("defaults = %+v", cfg)
	}
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	s := New(k, n, Config{Policy: Mirror})
	if s.cfg.HighWater <= 0 || s.cfg.QueueLimit <= 0 || s.cfg.MaxEventsPerWait <= 0 || s.Fallback().Name() != "devpoll" {
		t.Fatalf("fallbacks = %+v", s.cfg)
	}
	if s.P.Name != "hybrid" {
		t.Fatalf("process name = %q", s.P.Name)
	}
}

func TestServesInSignalModeAtLowLoad(t *testing.T) {
	k, n, s := start(t, DefaultConfig(Mirror))
	probes := burst(k, n, 3)
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()
	if s.Stats().Served != 3 {
		t.Fatalf("served = %d", s.Stats().Served)
	}
	for i, p := range probes {
		if !p.closed {
			t.Fatalf("probe %d incomplete", i)
		}
	}
	if s.Polling() {
		t.Fatalf("mode = %v (low load should stay on RT signals)", s.ModeName())
	}
	if s.SwitchesToPoll != 0 {
		t.Fatalf("unnecessary switches: %d", s.SwitchesToPoll)
	}
}

func TestBothInterestSetsMaintainedConcurrently(t *testing.T) {
	k, n, s := start(t, DefaultConfig(Mirror))
	// An inactive connection parks itself in both interest sets.
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		cc.Send(now, httpsim.FormatPartialRequest("/index.html"))
	})
	k.Sim.RunUntil(core.Time(core.Second))
	s.Stop()
	if s.OpenConnections() != 1 {
		t.Fatalf("open = %d", s.OpenConnections())
	}
	// listener + 1 connection in each mechanism.
	if s.SignalQueue().Len() != 2 || s.Fallback().Len() != 2 {
		t.Fatalf("interest sets: rtq=%d bulk=%d", s.SignalQueue().Len(), s.Fallback().Len())
	}
}

// Every bulk-capable backend carries the hybrid through a burst and back to
// signals without losing a request.
func TestSwitchesToPollingUnderBurstAndBack(t *testing.T) {
	for _, b := range eventlib.Backends() {
		if !b.Bulk {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			cfg := DefaultConfig(Mirror)
			cfg.Backend = b.Name
			cfg.QueueLimit = 64
			cfg.HighWater = 8
			cfg.LowWater = 4
			cfg.ConsecutiveLow = 2
			k, n, s := start(t, cfg)

			const count = 80
			probes := burst(k, n, count)
			k.Sim.RunUntil(core.Time(10 * core.Second))

			if s.SwitchesToPoll == 0 {
				t.Fatalf("hybrid never switched to %s under the burst", b.Name)
			}
			if s.SwitchesToSignal == 0 {
				t.Fatal("hybrid never switched back to signals after the burst drained")
			}
			if s.Polling() {
				t.Fatalf("final mode = %v, want signal once load subsided", s.ModeName())
			}
			if served := s.Stats().Served; served != count {
				t.Fatalf("served = %d, want %d (no requests may be lost across switches)", served, count)
			}
			for i, p := range probes {
				if !p.closed {
					t.Fatalf("probe %d incomplete", i)
				}
			}
			s.Stop()
		})
	}
}

func TestOverflowSentinelTriggersCheapRecovery(t *testing.T) {
	cfg := DefaultConfig(Mirror)
	cfg.QueueLimit = 4
	cfg.HighWater = 1000 // never triggers on length; only overflow forces the switch
	k, n, s := start(t, cfg)
	const count = 40
	burst(k, n, count)
	k.Sim.RunUntil(core.Time(10 * core.Second))
	s.Stop()
	if s.SwitchesToPoll == 0 {
		t.Fatal("overflow did not switch the hybrid to /dev/poll")
	}
	if s.Handoffs != 0 || s.Overflows != 0 {
		t.Fatalf("mirrored switch handed off %d descriptors (%d overflows)", s.Handoffs, s.Overflows)
	}
	if s.Stats().Served != count {
		t.Fatalf("served = %d, want %d", s.Stats().Served, count)
	}
}

// With idle sweeping disabled there is no sweep timer, but the mode-switch
// policy still needs the loop to wake every WaitTimeout (the hand-rolled loop
// bounded every wait unconditionally): the policy tick keeps iterations
// coming, so a server stuck in polling mode with no traffic can still count
// consecutive quiet scans and switch back to signals.
func TestPolicyTickRunsWithoutIdleSweeping(t *testing.T) {
	cfg := DefaultConfig(Mirror)
	cfg.IdleTimeout = 0
	cfg.WaitTimeout = 100 * core.Millisecond
	k, _, s := start(t, cfg)

	// Force polling mode with no pending work, then go completely quiet.
	k.Sim.At(k.Now().Add(20*core.Millisecond), func(now core.Time) {
		s.rtq.Recover()
		s.toPolling(now)
	})
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	if s.Polling() {
		t.Fatalf("mode = %v, want the policy to have switched back to signals with no load", s.ModeName())
	}
	if s.SwitchesToSignal == 0 {
		t.Fatal("no switch back recorded")
	}
	if s.Loops() < 5 {
		t.Fatalf("loop iterations = %d; the policy tick should keep the loop waking", s.Loops())
	}
}
