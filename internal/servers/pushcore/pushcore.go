// Package pushcore is a lightweight server-push daemon — the WebSocket/chat
// shape of the millions-mostly-idle regime. Clients connect once, send a
// small subscribe message and then go silent for the whole run; the *server*
// originates all subsequent traffic, fanning a payload out to a random member
// set on every virtual-time tick. At any instant almost every connection is
// idle, so what the run measures is pure interest-set bookkeeping: the event
// mechanism holds every member readable-registered (plus write interest for
// the occasional jammed push), and the paper's mechanisms separate on how
// much that registration costs per tick, not on request throughput.
//
// The server reuses the eventlib backend registry, so it runs unchanged on
// stock poll, /dev/poll, RT signals, epoll (either trigger mode) and the
// completion ring. It deliberately does not reuse httpcore: the subscribe
// exchange is not HTTP, and the per-connection state is two integers.
package pushcore

import (
	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/netsim"
	"repro/internal/simkernel"
)

// SubscribeSize is the size of the client's one subscribe message in bytes.
const SubscribeSize = 16

// Config parameterises a pushcore instance.
type Config struct {
	// Backend names the eventlib backend ("poll", "devpoll", "epoll",
	// "epoll-et", "rtsig", "compio"); empty selects stock poll().
	Backend string
	// FanoutSize is how many members one tick pushes to (sampled with
	// replacement from the member set).
	FanoutSize int
	// Payload is the pushed message size in bytes.
	Payload int
	// TickInterval is the virtual-time period of the fan-out tick.
	TickInterval core.Duration
	// Seed drives the deterministic member sampling.
	Seed uint64
	// MaxEventsPerWait caps how many events one wait delivers.
	MaxEventsPerWait int
	// SweepInterval is the granularity of the base's timer wheel wait; it
	// exists so an otherwise-idle server still iterates (thttpd's one-second
	// timer). Zero selects one second.
	SweepInterval core.Duration
}

// DefaultConfig returns a small-chat shape: 6 KB-free 512-byte payloads to 32
// members every 10 ms on stock poll.
func DefaultConfig() Config {
	return Config{
		Backend:          "poll",
		FanoutSize:       32,
		Payload:          512,
		TickInterval:     10 * core.Millisecond,
		MaxEventsPerWait: 1024,
	}
}

// Stats tallies the push server's application events.
type Stats struct {
	Accepted   int64 // connections accepted
	Subscribed int64 // members registered (subscribe message seen)
	Ticks      int64 // fan-out ticks fired
	Pushed     int64 // pushes initiated (deliveries owed to clients)
	PushBusy   int64 // pushes skipped: the member's previous push still draining
	WriteBlock int64 // pushes that jammed against the peer window
	BytesSent  int64
	Closed     int64
}

// conn is the per-connection state: a descriptor, its registered event and
// the draining state of an in-flight push.
type conn struct {
	fd  *simkernel.FD
	sc  *netsim.ServerConn
	ev  *eventlib.Event
	idx int // index in members, -1 before the subscribe
	// pending is how many push bytes the socket has not yet accepted; while
	// positive the descriptor holds read+write interest.
	pending int
}

// Server is a running pushcore instance inside the simulation.
type Server struct {
	K   *simkernel.Kernel
	Net *netsim.Network
	P   *simkernel.Proc

	cfg       Config
	api       *netsim.SockAPI
	base      *eventlib.Base
	edgeStyle bool
	lfd       *simkernel.FD

	conns   []*conn // fd-indexed; nil = closed
	members []int   // fd numbers of subscribed members
	free    []*conn

	tick   *eventlib.Event
	tickNo uint64

	stats Stats

	// OnDeliver, when non-nil, is called (inside the batch) for every push
	// initiated: the member's connection and the tick instant the payload
	// belongs to. The load generator anchors delivery latency here.
	OnDeliver func(now core.Time, sc *netsim.ServerConn)

	started bool
}

// New creates a pushcore instance bound to the kernel and network.
func New(k *simkernel.Kernel, net *netsim.Network, cfg Config) *Server {
	if cfg.Backend == "" {
		cfg.Backend = "poll"
	}
	if cfg.FanoutSize <= 0 {
		cfg.FanoutSize = 32
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 512
	}
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = 10 * core.Millisecond
	}
	if cfg.MaxEventsPerWait <= 0 {
		cfg.MaxEventsPerWait = 1024
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = core.Second
	}
	p := k.NewProc("pushcore")
	api := netsim.NewSockAPI(k, p, net)
	s := &Server{K: k, Net: net, P: p, cfg: cfg, api: api}

	poller, _, err := eventlib.OpenBackend(k, p, cfg.Backend)
	if err != nil {
		panic("pushcore: " + err.Error())
	}
	s.base = eventlib.NewWithPoller(k, p, poller, eventlib.Config{
		MaxEventsPerWait: cfg.MaxEventsPerWait,
		LoopCost:         k.Cost.ServerLoopOverhead,
	})
	s.edgeStyle = eventlib.EdgeStyle(poller)
	return s
}

// Start opens the listening socket, arms the fan-out tick and starts
// dispatching. It may be called once.
func (s *Server) Start() {
	if s.started {
		return
	}
	s.started = true
	s.P.Batch(s.K.Now(), func() {
		s.lfd, _ = s.api.Listen()
		acc := s.base.NewEvent(s.lfd.Num, eventlib.EvRead|eventlib.EvPersist, s.onAcceptable)
		if err := acc.Add(0); err != nil {
			panic("pushcore: registering the listener: " + err.Error())
		}
		s.tick = s.base.NewTimer(eventlib.EvPersist, s.onTick)
		if err := s.tick.Add(s.cfg.TickInterval); err != nil {
			panic("pushcore: arming the tick: " + err.Error())
		}
		s.base.OnOverflow(s.rescan)
	}, func(core.Time) {
		s.base.Dispatch()
	})
}

// Stop halts the event loop after the current iteration.
func (s *Server) Stop() { s.base.Stop() }

// Stats returns the application-level counters.
func (s *Server) Stats() Stats { return s.stats }

// OpenConnections reports how many connections the server currently holds.
func (s *Server) OpenConnections() int {
	open := 0
	for _, c := range s.conns {
		if c != nil {
			open++
		}
	}
	return open
}

// Poller exposes the event mechanism (for experiment statistics).
func (s *Server) Poller() core.Poller { return s.base.Poller() }

// Base exposes the event base (for tests).
func (s *Server) Base() *eventlib.Base { return s.base }

// Loops counts completed event-loop iterations.
func (s *Server) Loops() int64 { return s.base.Iterations() }

// getConn returns fd's state, nil when unknown (stale events).
func (s *Server) getConn(fd int) *conn {
	if fd < 0 || fd >= len(s.conns) {
		return nil
	}
	return s.conns[fd]
}

func (s *Server) setConn(fd int, c *conn) {
	for fd >= len(s.conns) {
		s.conns = append(s.conns, nil)
	}
	s.conns[fd] = c
}

// onAcceptable drains the accept queue, registering a persistent read event
// per new connection. Edge-style backends read each freshly accepted
// connection once: a subscribe that arrived before registration produces no
// further transition.
func (s *Server) onAcceptable(_ int, _ eventlib.What, now core.Time) {
	for {
		fd, sc, err := s.api.Accept(s.lfd)
		if err != nil {
			return
		}
		s.stats.Accepted++
		var c *conn
		if n := len(s.free); n > 0 {
			c = s.free[n-1]
			s.free[n-1] = nil
			s.free = s.free[:n-1]
		} else {
			c = &conn{}
		}
		c.fd, c.sc, c.idx, c.pending = fd, sc, -1, 0
		c.ev = s.base.NewEvent(fd.Num, eventlib.EvRead|eventlib.EvPersist, s.connReady)
		s.setConn(fd.Num, c)
		_ = c.ev.Add(0)
		if s.edgeStyle {
			s.readConn(now, c)
		}
	}
}

// connReady is the shared per-connection callback; write readiness first, as
// draining a jammed push may close the connection.
func (s *Server) connReady(fd int, what eventlib.What, now core.Time) {
	c := s.getConn(fd)
	if c == nil {
		return
	}
	if what.Has(eventlib.EvWrite) {
		s.drain(now, c)
		if s.getConn(fd) != c {
			return
		}
	}
	if what.Has(eventlib.EvRead) {
		s.readConn(now, c)
	}
}

// readConn consumes whatever the member sent: the subscribe message on a
// fresh connection (anything after it is ignored — members are idle by
// protocol), and the FIN when the client leaves at the end of the run.
func (s *Server) readConn(now core.Time, c *conn) {
	data, eof := s.api.Read(c.fd, 0)
	if len(data) > 0 && c.idx < 0 {
		c.idx = len(s.members)
		s.members = append(s.members, c.fd.Num)
		s.stats.Subscribed++
	}
	if eof {
		s.closeConn(c)
	}
}

// onTick fans the payload out to FanoutSize members sampled with replacement
// from the member set. The sampling hashes (seed, tick, slot) through
// splitmix64, so it is a pure function of the configuration — identical runs
// push to identical members, on any thread count.
func (s *Server) onTick(_ int, _ eventlib.What, now core.Time) {
	s.stats.Ticks++
	m := len(s.members)
	if m == 0 {
		return
	}
	for i := 0; i < s.cfg.FanoutSize; i++ {
		h := Mix(s.cfg.Seed ^ (s.tickNo*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9))
		c := s.getConn(s.members[int(h%uint64(m))])
		if c == nil {
			continue
		}
		if c.pending > 0 {
			// The member's previous push is still draining: skip rather than
			// queue unboundedly behind a slow consumer.
			s.stats.PushBusy++
			continue
		}
		s.push(now, c)
	}
	s.tickNo++
}

// push writes one payload to a member, parking the remainder on write
// interest when the peer's receive window jams it.
func (s *Server) push(now core.Time, c *conn) {
	s.stats.Pushed++
	if s.OnDeliver != nil {
		s.OnDeliver(now, c.sc)
	}
	wrote := s.api.Write(c.fd, s.cfg.Payload)
	s.stats.BytesSent += int64(wrote)
	if wrote >= s.cfg.Payload {
		return
	}
	c.pending = s.cfg.Payload - wrote
	s.stats.WriteBlock++
	// Upgrade to read+write interest (one event per descriptor, so the read
	// event is replaced — epoll_ctl(MOD) in a real server).
	_ = c.ev.Del()
	c.ev = s.base.NewEvent(c.fd.Num, eventlib.EvRead|eventlib.EvWrite|eventlib.EvPersist, s.connReady)
	_ = c.ev.Add(0)
}

// drain retries a jammed push; once it clears, the descriptor downgrades back
// to read-only interest.
func (s *Server) drain(now core.Time, c *conn) {
	if c.pending <= 0 {
		return
	}
	wrote := s.api.Write(c.fd, c.pending)
	s.stats.BytesSent += int64(wrote)
	c.pending -= wrote
	if c.pending > 0 {
		return
	}
	_ = c.ev.Del()
	c.ev = s.base.NewEvent(c.fd.Num, eventlib.EvRead|eventlib.EvPersist, s.connReady)
	_ = c.ev.Add(0)
}

// closeConn tears down a connection, swap-removing it from the member set.
func (s *Server) closeConn(c *conn) {
	if s.getConn(c.fd.Num) != c {
		return
	}
	s.conns[c.fd.Num] = nil
	_ = c.ev.Del()
	if c.idx >= 0 {
		last := len(s.members) - 1
		moved := s.members[last]
		s.members[c.idx] = moved
		s.members = s.members[:last]
		if c.idx <= last-1 {
			if mc := s.getConn(moved); mc != nil {
				mc.idx = c.idx
			}
		}
		c.idx = -1
	}
	s.api.Close(c.fd)
	s.stats.Closed++
	c.fd, c.sc, c.ev = nil, nil, nil
	s.free = append(s.free, c)
}

// rescan recovers from a lost-notification condition (RT-signal queue
// overflow): drain the accept queue, retry every jammed push and read every
// open connection once.
func (s *Server) rescan(now core.Time) {
	s.onAcceptable(0, 0, now)
	for fd := 0; fd < len(s.conns); fd++ {
		c := s.conns[fd]
		if c == nil {
			continue
		}
		s.drain(now, c)
		if s.getConn(fd) == c {
			s.readConn(now, c)
		}
	}
}

// Mix is the splitmix64 finalizer the tick sampling uses; exported so the
// load generator and tests can reproduce the sampling sequence.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
