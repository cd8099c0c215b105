// Package dual implements the paper's RT-signal servers: a static-content
// server that collects completions from a POSIX RT signal queue (fcntl
// F_SETSIG on every accepted descriptor, sigwaitinfo() one at a time) and
// falls back to a poll-family mechanism under overload. Two policies decide
// how it falls back:
//
//   - Handoff is Zach Brown's phhttpd as the paper benchmarks it (§2, §5.2,
//     §6). When the queue overflows, the server flushes pending signals,
//     hands every open connection — one at a time, over a UNIX-domain socket
//     — to a poll sibling, rebuilds the pollfd array from scratch, and runs in
//     polling mode for the rest of its life ("the current phhttpd server does
//     not switch from polling mode back to RT signal queue mode").
//   - Mirror is the server the paper imagines but never builds (§4, §6). The
//     bulk poller's interest set is maintained concurrently with RT signal
//     activity, so a switch costs no handoff and no rebuild; the server
//     switches to the bulk poller once the queue length signals heavy load
//     and back to signals when load subsides.
//
// Both run on one eventlib.Base whose wait target starts as the RT signal
// queue; the overflow sentinel arrives through Base.OnOverflow, and a switch
// activates the other attached poller.
package dual

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rtsig"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// Policy selects how the server falls back from RT signals.
type Policy int

// Policies.
const (
	// Handoff is phhttpd: on overflow, hand every descriptor to a poll
	// sibling and stay in polling mode.
	Handoff Policy = iota
	// Mirror is the hybrid: keep the bulk poller's interest set current and
	// switch both ways on the RT queue length.
	Mirror
)

// String names the policy's server. It is also the server's process name,
// which the fault plane salts its decision streams with.
func (p Policy) String() string {
	if p == Handoff {
		return "phhttpd"
	}
	return "hybrid"
}

// Config parameterises a server.
type Config struct {
	// Policy selects phhttpd's one-way handoff or the hybrid's mirrored,
	// two-way switching.
	Policy Policy
	// Backend names the eventlib backend of the fallback poller; empty
	// selects "poll" (phhttpd's sibling) for Handoff and "devpoll" for
	// Mirror. Mirror needs a backend with a kernel-resident interest set
	// (eventlib.Backend.Bulk).
	Backend string
	// OpenPoller, when non-nil, overrides Backend with a custom-configured
	// fallback poller.
	OpenPoller func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller
	// Content is the static document tree; nil selects the default store.
	Content *httpsim.ContentStore
	// IdleTimeout closes connections with no activity for this long. Zero
	// disables idle sweeping.
	IdleTimeout core.Duration
	// HTTP selects the persistent-connection features (keep-alive,
	// pipelining, response cache, write path); the zero value is the
	// historical one-request HTTP/1.0 behaviour.
	HTTP httpcore.Options
	// QueueLimit is the RT signal queue maximum (default 1024).
	QueueLimit int
	// BatchDequeue enables the sigtimedwait4() extension (§6 future work); the
	// faithful configurations leave it off.
	BatchDequeue bool
	// WaitTimeout is the idle-sweep timer period bounding each wait.
	WaitTimeout core.Duration
	// MaxEventsPerWait caps events per fallback wait and, with BatchDequeue,
	// per sigtimedwait4 call.
	MaxEventsPerWait int
	// PerConnOverhead is a per-event bookkeeping cost per open connection:
	// the experimental phhttpd walks its per-thread connection structures on
	// every completion it handles. This is the term behind the paper's
	// unexpected observation that "inactive connections appear to increase
	// the overhead of handling active connections" (Figures 12, 13); the
	// Handoff default is calibrated to reproduce those figures' shapes.
	PerConnOverhead core.Duration
	// HighWater is the queue length at which Mirror switches to the bulk
	// poller; the paper suggests the queue maximum itself, since overflow
	// already forces a poll. Zero selects QueueLimit/2, a slightly earlier,
	// safer crossover.
	HighWater int
	// LowWater is the queue length below which (together with small bulk
	// result sets) Mirror switches back to signals.
	LowWater int
	// ConsecutiveLow is how many consecutive light bulk scans Mirror requires
	// before switching back, to avoid oscillation.
	ConsecutiveLow int
}

// DefaultConfig returns the policy's paper configuration: phhttpd as in
// Figures 11-13 for Handoff; for Mirror a /dev/poll bulk poller with the
// crossover at half the RT queue limit and hysteresis on the way back down.
func DefaultConfig(p Policy) Config {
	cfg := Config{
		Policy:           p,
		Backend:          "devpoll",
		IdleTimeout:      60 * core.Second,
		QueueLimit:       rtsig.DefaultQueueLimit,
		WaitTimeout:      core.Second,
		MaxEventsPerWait: 1024,
		HighWater:        rtsig.DefaultQueueLimit / 2,
		LowWater:         8,
		ConsecutiveLow:   4,
	}
	if p == Handoff {
		cfg.Backend = "poll"
		cfg.PerConnOverhead = 600 * core.Nanosecond
	}
	return cfg
}

// Server is a running RT-signal server inside the simulation.
type Server struct {
	K   *simkernel.Kernel
	Net *netsim.Network
	P   *simkernel.Proc

	cfg      Config
	api      *netsim.SockAPI
	rtq      *rtsig.Queue
	fallback core.Poller
	base     *eventlib.Base
	handler  *httpcore.Handler
	lfd      *simkernel.FD

	polling bool
	lowRuns int
	started bool
	stopped bool

	// Overflows counts the queue overflows Handoff recovered from; Handoffs
	// the descriptors it passed to the poll sibling.
	Overflows int64
	Handoffs  int64
	// SwitchesToPoll and SwitchesToSignal count Mirror's mode transitions.
	SwitchesToPoll   int64
	SwitchesToSignal int64
}

// New creates a server bound to the kernel and network. An unknown Backend
// name panics with the registry's listed-choices error.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Backend == "" {
		cfg.Backend = DefaultConfig(cfg.Policy).Backend
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = rtsig.DefaultQueueLimit
	}
	if cfg.HighWater <= 0 {
		cfg.HighWater = cfg.QueueLimit / 2
	}
	if cfg.LowWater <= 0 {
		cfg.LowWater = 8
	}
	if cfg.ConsecutiveLow <= 0 {
		cfg.ConsecutiveLow = 4
	}
	if cfg.MaxEventsPerWait <= 0 {
		cfg.MaxEventsPerWait = 1024
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = core.Second
	}
	p := k.NewProc(cfg.Policy.String())
	s := &Server{K: k, Net: net, P: p, cfg: cfg, api: netsim.NewSockAPI(k, p, net)}
	s.rtq = rtsig.New(k, p, rtsig.Options{
		QueueLimit:   cfg.QueueLimit,
		Signo:        core.SIGRTMIN,
		BatchDequeue: cfg.BatchDequeue,
	})
	if cfg.OpenPoller != nil {
		s.fallback = cfg.OpenPoller(k, p)
	} else {
		poller, _, err := eventlib.OpenBackend(k, p, cfg.Backend)
		if err != nil {
			panic("dual: " + err.Error())
		}
		s.fallback = poller
	}
	ecfg := eventlib.Config{MaxEventsPerWait: cfg.MaxEventsPerWait}
	if cfg.Policy == Mirror {
		// Both interest sets are kept up to date on every connection
		// open/close, which is what makes switching modes nearly free.
		// phhttpd's sibling receives no interests until overflow recovery
		// re-registers everything (the weakness §6 calls out).
		ecfg.MirrorInterest = true
		ecfg.AfterDispatch = s.evaluateSwitch
	}
	s.base = eventlib.NewWithPoller(k, p, s.rtq, ecfg)
	s.base.AttachPoller(s.fallback)
	s.handler = httpcore.NewHandler(k, p, s.api, cfg.Content)
	s.handler.IdleTimeout = cfg.IdleTimeout
	s.handler.SetOptions(cfg.HTTP)
	return s
}

// Start opens the listening socket, wires the handler onto the event base and
// starts dispatching.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.P.Now(), func() {
		s.lfd, _ = s.api.Listen()
		s.handler.Attach(s.base, s.lfd, httpcore.ServeConfig{
			Read:          s.handleReadable,
			SweepInterval: s.cfg.WaitTimeout,
			// Request data that arrived before F_SETSIG was issued never
			// generates a completion signal, so the signal-driven server must
			// read each freshly accepted connection once. In polling mode the
			// fallback reports it instead.
			AfterAccept: func(now core.Time, fds []int) {
				if s.polling {
					return
				}
				for _, fd := range fds {
					s.handleReadable(now, fd)
				}
			},
		})
		// The queue-overflow sentinel (SIGIO) flushes the queue and forces
		// the fallback: phhttpd's handoff, or for the hybrid an early,
		// emphatic load signal whose bulk interest set is already current.
		s.base.OnOverflow(s.toPolling)
		if s.cfg.Policy == Mirror && s.cfg.IdleTimeout <= 0 {
			// The switch policy (AfterDispatch) needs the loop to wake at
			// least every WaitTimeout even with no I/O; without idle sweeping
			// there is no sweep timer to drive that, so arm a policy tick.
			tick := s.base.NewTimer(eventlib.EvPersist, func(int, eventlib.What, core.Time) {})
			if err := tick.Add(s.cfg.WaitTimeout); err != nil {
				panic("dual: arming the policy tick: " + err.Error())
			}
		}
	}, func(core.Time) {
		s.base.Dispatch()
	})
}

// Stop halts the event loop after the current iteration.
func (s *Server) Stop() {
	s.stopped = true
	s.base.Stop()
}

// Polling reports whether the server waits on its fallback poller.
func (s *Server) Polling() bool { return s.polling }

// ModeName names the current mode: "signal", then phhttpd's "polling" or the
// hybrid's bulk poller by name ("devpoll", "epoll", ...).
func (s *Server) ModeName() string {
	switch {
	case !s.polling:
		return "signal"
	case s.cfg.Policy == Handoff:
		return "polling"
	default:
		return s.fallback.Name()
	}
}

// Stats returns the application-level counters.
func (s *Server) Stats() httpcore.Stats { return s.handler.Stats }

// Handler exposes the shared HTTP engine (service-latency histogram, tests).
func (s *Server) Handler() *httpcore.Handler { return s.handler }

// SignalQueue exposes the RT signal queue.
func (s *Server) SignalQueue() *rtsig.Queue { return s.rtq }

// Fallback exposes the fallback poller: phhttpd's poll sibling or the
// hybrid's bulk poller.
func (s *Server) Fallback() core.Poller { return s.fallback }

// OpenConnections reports how many connections the server currently holds.
func (s *Server) OpenConnections() int { return len(s.handler.Conns) }

// Loops counts event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// handleReadable wraps the shared HTTP engine with the per-connection
// bookkeeping cost (Config.PerConnOverhead).
func (s *Server) handleReadable(now core.Time, fd int) {
	s.P.Charge(s.cfg.PerConnOverhead.Scale(float64(len(s.handler.Conns))))
	s.handler.HandleReadable(now, fd)
}

// evaluateSwitch applies Mirror's crossover policy of §4 after every dispatch
// batch: the RT signal queue length is the load indicator, the number of
// events the bulk scan delivered the sign that load has subsided.
func (s *Server) evaluateSwitch(delivered int, now core.Time) {
	if s.stopped {
		return
	}
	if !s.polling {
		if s.rtq.QueueLength() >= s.cfg.HighWater || s.rtq.Overflowed() {
			// The queue is deep: one-at-a-time dequeueing is falling behind.
			// Flush it (the bulk scan will rediscover everything pending)
			// and switch.
			s.rtq.Recover()
			s.toPolling(now)
		}
		return
	}
	if delivered >= s.cfg.LowWater || s.rtq.QueueLength() >= s.cfg.LowWater {
		s.lowRuns = 0
		return
	}
	s.lowRuns++
	if s.lowRuns >= s.cfg.ConsecutiveLow && s.rtq.QueueLength() == 0 {
		// Load has subsided and no signals are pending; clear the overflow
		// flags and return to low-latency delivery. The empty-queue
		// requirement makes the switch lossless: Recover flushes the queue,
		// and a flushed signal whose readiness edge already fired (a listener
		// whose backlog is non-empty) would never announce itself again.
		s.rtq.Recover()
		s.lowRuns = 0
		s.polling = false
		s.SwitchesToSignal++
		_ = s.base.Activate(s.rtq, false)
	}
}

// toPolling moves the server onto its fallback poller; the queue has already
// been flushed. A stale overflow indication after the switch needs no work.
func (s *Server) toPolling(core.Time) {
	if s.polling {
		return
	}
	s.polling = true
	if s.cfg.Policy == Mirror {
		// Both interest sets are current, so nothing is re-registered.
		s.SwitchesToPoll++
		_ = s.base.Activate(s.fallback, false)
		return
	}
	// Hand every connection, plus the listener, to the poll sibling one at a
	// time over a UNIX-domain socket — precisely the work §6 identifies as
	// likely to melt the server down under the very load that caused the
	// overflow. Activate then rebuilds the pollfd array from scratch by
	// re-registering every pending event.
	s.Overflows++
	n := int64(len(s.handler.Conns))
	if s.lfd != nil {
		n++
	}
	s.P.Charge(s.K.Cost.ConnHandoff.Scale(float64(n)))
	s.Handoffs += n
	_ = s.base.Activate(s.fallback, true)
}
