// Package thttpd simulates the paper's thttpd: a simple event-driven static
// web server. The event backend is pluggable through the eventlib registry —
// the stock poll() baseline, the modified /dev/poll build (the two
// configurations measured in Figures 4 through 10), epoll in either trigger
// mode, the completion rings, or even the RT signal queue.
//
// The server owns no dispatch loop of its own: it registers callbacks on an
// eventlib.Base (accept on the listener, read per connection, a periodic
// idle-sweep timer) and lets the base compute poll timeouts and iterate
// readiness.
//
// One worker is the paper's single-process server. N workers scale the same
// shape across processors: N identical single-threaded processes, each with
// its own descriptor table, eventlib.Base and kernel-resident interest set,
// pinned to its own CPU — the prefork architecture the descendants of this
// paper's work (nginx, libevent-based servers) converged on once
// multiprocessor hosts became the norm. The paper measures a uniprocessor
// only; the worker count is the axis it could not explore.
//
// Two accept-distribution modes are provided, because how connections reach
// workers is the interesting design choice:
//
//   - ModeReuseport: every worker opens its own listening socket on the shared
//     port (SO_REUSEPORT) and the simulated stack shards new connections
//     across the accept queues (netsim.Config.Shard: four-tuple hash or
//     idealised round-robin). No worker ever touches another's connections.
//   - ModeHandoff: worker 0 alone listens and accepts, then deals connections
//     to workers in rotation, passing each descriptor over a UNIX-domain
//     socket (netsim.SockAPI.AcceptDetach / Adopt). This is the classic
//     pre-SO_REUSEPORT architecture; its single accept path and per-connection
//     handoff cost are what the reuseport comparison quantifies.
package thttpd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// Mode selects how connections are distributed to workers.
type Mode int

// Accept-distribution modes.
const (
	// ModeReuseport shards connections across per-worker listeners in the
	// stack (SO_REUSEPORT).
	ModeReuseport Mode = iota
	// ModeHandoff funnels all accepts through worker 0, which passes
	// connections to workers round-robin over a UNIX-domain socket.
	ModeHandoff
)

// String names the mode.
func (m Mode) String() string {
	if m == ModeHandoff {
		return "handoff"
	}
	return "reuseport"
}

// Config parameterises a thttpd instance.
type Config struct {
	// Workers is the number of worker processes (and the number of CPUs the
	// kernel should have been built with); zero selects 1, the paper's
	// single-process server.
	Workers int
	// Mode selects the accept-distribution architecture.
	Mode Mode
	// Backend names the eventlib backend each worker runs on ("poll",
	// "devpoll", "epoll", "epoll-et", "rtsig", "compio"); empty selects stock
	// poll(), the paper's baseline configuration.
	Backend string
	// OpenPoller, when non-nil, overrides Backend with a custom-configured
	// poller (the ablations disable individual /dev/poll optimisations this
	// way). Its delivery semantics are those of the registry backend named by
	// the poller's Name.
	OpenPoller func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller
	// Content is the static document tree; nil selects the default store with
	// the paper's 6 KB index.html.
	Content *httpsim.ContentStore
	// IdleTimeout closes connections with no activity for this long (thttpd's
	// connection timeout). Zero disables idle sweeping.
	IdleTimeout core.Duration
	// MaxEventsPerWait caps how many events one wait delivers per worker.
	MaxEventsPerWait int
	// WaitTimeout is the per-worker idle-sweep timer period, mirroring
	// thttpd's one-second timer granularity.
	WaitTimeout core.Duration
	// HTTP selects the persistent-connection features (keep-alive,
	// pipelining, response cache, write path); the zero value is the
	// historical one-request HTTP/1.0 behaviour.
	HTTP httpcore.Options
}

// DefaultConfig returns the configuration used in the paper's runs: one
// worker on stock poll(), the 6 KB document, a 60-second connection timeout.
func DefaultConfig() Config {
	return Config{
		Workers:          1,
		Backend:          "poll",
		IdleTimeout:      60 * core.Second,
		MaxEventsPerWait: 1024,
		WaitTimeout:      core.Second,
	}
}

// worker is one of the server's identical single-threaded processes.
type worker struct {
	index   int
	p       *simkernel.Proc
	api     *netsim.SockAPI
	base    *eventlib.Base
	handler *httpcore.Handler
	loop    *httpcore.EventLoop
	lfd     *simkernel.FD
}

// Server is a running thttpd instance inside the simulation.
type Server struct {
	K   *simkernel.Kernel
	Net *netsim.Network

	cfg     Config
	workers []*worker
	rrNext  int
	started bool

	// Handoffs counts connections passed from worker 0 to a worker in
	// ModeHandoff.
	Handoffs int64
}

// New creates a thttpd instance bound to the kernel and network. Workers are
// pinned to CPUs round-robin (worker i to CPU i mod NumCPU), so a kernel built
// with NewKernelSMP(cost, workers) gives each worker its own core, and a
// uniprocessor kernel serialises them all. Worker 0's process is named
// "thttpd" and worker i's "thttpd.<i>"; the fault plane salts its decision
// streams with these names. An unknown Backend name panics with the
// registry's listed-choices error; callers that take backend names from user
// input validate them through the registry (or the experiments kind resolver)
// first.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Backend == "" {
		cfg.Backend = "poll"
	}
	if cfg.MaxEventsPerWait <= 0 {
		cfg.MaxEventsPerWait = 1024
	}
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = core.Second
	}
	open := cfg.OpenPoller
	if open == nil {
		b, ok := eventlib.Lookup(cfg.Backend)
		if !ok {
			panic("thttpd: " + eventlib.UnknownBackendError(cfg.Backend).Error())
		}
		open = b.Open
	}
	s := &Server{K: k, Net: net, cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		name := "thttpd"
		if i > 0 {
			name = fmt.Sprintf("thttpd.%d", i)
		}
		p := k.NewProcOn(name, k.Sched.CPU(i%k.Sched.NumCPU()))
		w := &worker{index: i, p: p, api: netsim.NewSockAPI(k, p, net)}
		w.base = eventlib.NewWithPoller(k, p, open(k, p), eventlib.Config{
			MaxEventsPerWait: cfg.MaxEventsPerWait,
			// thttpd's per-iteration bookkeeping: timer list scan,
			// connection table management, fdwatch setup.
			LoopCost: k.Cost.ServerLoopOverhead,
		})
		w.handler = httpcore.NewHandler(k, p, w.api, cfg.Content)
		w.handler.IdleTimeout = cfg.IdleTimeout
		w.handler.SetOptions(cfg.HTTP)
		s.workers = append(s.workers, w)
	}
	return s
}

// Config returns the active configuration.
func (s *Server) Config() Config { return s.cfg }

// Start opens the listening socket(s), wires each worker's handler onto its
// event base and starts all dispatch loops. It may be called once.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	for _, w := range s.workers {
		w.p.Batch(s.K.Now(), func() { s.attach(w) }, func(core.Time) {
			w.base.Dispatch()
		})
	}
}

// attach runs inside worker w's start batch: it opens w's listener (every
// worker under reuseport, worker 0 alone under handoff) and wires the HTTP
// engine onto w's event base.
func (s *Server) attach(w *worker) {
	serveCfg := httpcore.ServeConfig{SweepInterval: s.cfg.WaitTimeout}
	if eventlib.EdgeStyle(w.base.Poller()) {
		// Transition-driven delivery never reports data that arrived before
		// the registration: read each freshly accepted connection once.
		serveCfg.AfterAccept = func(now core.Time, fds []int) {
			for _, fd := range fds {
				w.handler.HandleReadable(now, fd)
			}
		}
	}
	if s.cfg.Mode == ModeReuseport || w.index == 0 {
		w.lfd, _ = w.api.Listen()
	}
	if s.cfg.Mode == ModeHandoff && w.index == 0 {
		serveCfg.Accept = func(now core.Time) { s.acceptAndDeal(w, now) }
	}
	// Non-listening handoff workers attach with a nil listener: the same
	// per-connection events, idle sweep and Rescan recovery, minus the accept
	// event.
	w.loop = w.handler.Attach(w.base, w.lfd, serveCfg)
	// Dropped RT signals are gone for good (delivery is transition-driven),
	// so after an overflow the worker does what the paper says applications
	// must: flush the queue and re-scan every descriptor it watches.
	w.base.OnOverflow(w.loop.Rescan)
}

// acceptAndDeal is worker 0's listener callback in ModeHandoff: drain the
// accept queue with AcceptDetach and deal each connection to a worker in
// rotation. The adoption runs in the receiving worker's own batch — the
// recvmsg side of descriptor passing happens in that process — and is
// deferred to the instant the acceptor's batch completes: the passed
// descriptor only becomes visible to the sibling once the CPU has actually
// finished the accept and sendmsg work that produced it.
func (s *Server) acceptAndDeal(w0 *worker, now core.Time) {
	for {
		conn, ok := w0.api.AcceptDetach(w0.lfd)
		if !ok {
			return
		}
		target := s.workers[s.rrNext]
		s.rrNext = (s.rrNext + 1) % len(s.workers)
		s.Handoffs++
		w0.p.Defer(func(done core.Time) {
			target.p.Batch(done, func() {
				fd, ok := target.api.Adopt(conn)
				if !ok {
					return
				}
				target.handler.AdoptConn(done, fd, conn)
				// Request data may have arrived before the registration
				// existed; one unprompted read covers it, exactly like the
				// edge-style post-accept read.
				target.handler.HandleReadable(done, fd.Num)
			}, nil)
		})
	}
}

// Stop halts every worker's event loop after its current iteration.
func (s *Server) Stop() {
	for _, w := range s.workers {
		w.base.Stop()
	}
}

// Stats returns the application-level counters summed across workers.
func (s *Server) Stats() httpcore.Stats {
	var total httpcore.Stats
	for _, w := range s.workers {
		total.Add(w.handler.Stats)
	}
	return total
}

// MechanismStats sums the workers' poller statistics.
func (s *Server) MechanismStats() core.Stats {
	var total core.Stats
	for _, w := range s.workers {
		if src, ok := w.base.Poller().(core.StatsSource); ok {
			total.Add(src.MechanismStats())
		}
	}
	return total
}

// ServiceLatency merges the workers' request-latency histograms into one
// server-wide distribution, in worker order (the fixed bucket layout makes
// the merge an exact bucket-wise sum).
func (s *Server) ServiceLatency() metrics.LatencyHist {
	var merged metrics.LatencyHist
	for _, w := range s.workers {
		merged.Merge(&w.handler.ServiceLatency)
	}
	return merged
}

// Poller exposes worker 0's event mechanism; every worker runs the same one.
func (s *Server) Poller() core.Poller { return s.workers[0].base.Poller() }

// Loops counts completed event-loop iterations across all workers.
func (s *Server) Loops() int64 {
	var total int64
	for _, w := range s.workers {
		total += w.base.Iterations()
	}
	return total
}

// OpenConnections reports how many connections the server currently holds
// across all workers.
func (s *Server) OpenConnections() int {
	total := 0
	for _, w := range s.workers {
		total += len(w.handler.Conns)
	}
	return total
}

// PerWorkerServed reports each worker's served-request count, in worker
// order: the balance the sharding policy achieved.
func (s *Server) PerWorkerServed() []int64 {
	out := make([]int64, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.handler.Stats.Served
	}
	return out
}

var _ core.StatsSource = (*Server)(nil)
