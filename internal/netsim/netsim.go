// Package netsim simulates the network between the benchmark client host and
// the server host of the paper's testbed: TCP connection establishment with a
// listener backlog, per-connection round-trip latency, transmission delay on a
// 100 Mbit/s link, the ~60000-port / 60-second TIME-WAIT limitation that
// dictates the paper's 35000-connection benchmark procedure, and the
// server-side socket system calls (accept/read/write/close) with their CPU
// costs charged to the simulated kernel.
//
// The client host (the 4-way Xeon driving httperf) is modelled with unbounded
// CPU: client-side actions occur exactly at their network event times. The
// server host is the uniprocessor simulated by package simkernel.
package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// Config describes the simulated testbed.
type Config struct {
	// LinkBandwidthBps is the bandwidth of the Ethernet link in bits/second.
	LinkBandwidthBps float64
	// DefaultRTT is the round-trip time used for connections that do not
	// specify their own (the LAN-attached httperf clients).
	DefaultRTT core.Duration
	// ListenBacklog bounds the server's accept queue; SYNs arriving when it is
	// full are refused, which is one of the error sources Figure 10 counts.
	ListenBacklog int
	// PortSpace is the number of client ephemeral ports available (the paper's
	// "about 60000 open sockets at a single point in time").
	PortSpace int
	// TimeWait is how long a client port stays unusable after its connection
	// finishes (the paper's sixty seconds).
	TimeWait core.Duration
	// MaxServerFDs bounds the server process's descriptor table; 0 means
	// unlimited. thttpd/phhttpd in the paper run with a large limit.
	MaxServerFDs int
	// Shard selects how new connections are distributed when several
	// listeners share the port SO_REUSEPORT-style (a prefork server's
	// workers). With a single listener the policy is irrelevant and the
	// behaviour is exactly the paper's single accept queue.
	Shard ShardPolicy
	// DgramLossRate is the probability a datagram is dropped in flight
	// (either direction). Losses are decided by a deterministic hash of a
	// per-network send sequence, so identical runs lose identical datagrams.
	// Zero (the default) loses nothing; stream traffic is never affected.
	DgramLossRate float64
	// DgramReorderRate is the probability a datagram is delayed by an extra
	// half-RTT in flight, arriving behind datagrams sent after it. Decided by
	// the same deterministic sequence hash as losses.
	DgramReorderRate float64
}

// ShardPolicy distributes incoming connections across the listeners sharing
// the served port.
type ShardPolicy int

// Sharding policies.
const (
	// ShardHash hashes the connection onto a listener, as the kernel's
	// SO_REUSEPORT four-tuple hash does: stateless, and a connection's queue
	// is fixed at SYN time.
	ShardHash ShardPolicy = iota
	// ShardRoundRobin deals connections to listeners in rotation — an
	// idealised perfectly-balanced dispatch, the comparison point for the
	// hash's statistical balance.
	ShardRoundRobin
)

// String names the policy.
func (s ShardPolicy) String() string {
	if s == ShardRoundRobin {
		return "rr"
	}
	return "hash"
}

// DefaultConfig returns the testbed configuration used by the paper's
// evaluation (100 Mbit/s switched Ethernet, LAN RTT, 60 s TIME-WAIT).
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBps: 100e6,
		DefaultRTT:       200 * core.Microsecond,
		ListenBacklog:    128,
		PortSpace:        60000,
		TimeWait:         60 * core.Second,
		MaxServerFDs:     0,
	}
}

// Stats aggregates network-level counters for an experiment run.
type Stats struct {
	ConnAttempts    int64 // client connect() calls
	ConnEstablished int64 // connections that completed the handshake
	ConnRefused     int64 // SYNs rejected (backlog full or listener closed)
	ConnPortFail    int64 // connects that failed locally for lack of ports
	BytesToServer   int64 // request bytes delivered to the server
	BytesToClient   int64 // response bytes delivered to clients
	SegmentsRx      int64 // segments received by the server (IRQ charges)
	Accepted        int64 // connections accepted by the server
	ServerCloses    int64 // server-initiated closes
	ClientCloses    int64 // client-initiated closes
	DgramsSent      int64 // datagrams handed to the network (both directions)
	DgramsDelivered int64 // datagrams delivered to a live endpoint
	DgramsDropped   int64 // datagrams lost in flight or unroutable
	DgramsStale     int64 // datagrams discarded by the fd-generation check
}

// timewaitRing holds the release instants of ports waiting out TIME-WAIT.
// Every port enters with release = now + the fixed TIME-WAIT duration and the
// clock never runs backwards, so entries arrive already sorted: a FIFO ring
// (reusing its backing array) replaces the former heap with identical
// pop order and no per-entry boxing.
type timewaitRing struct {
	releases []core.Time
	head     int
}

func (r *timewaitRing) len() int { return len(r.releases) - r.head }

func (r *timewaitRing) push(release core.Time) {
	r.releases = append(r.releases, release)
}

// expire drops entries whose release instant has passed, compacting the
// backing array once the dead prefix outweighs the live suffix so a long run
// holds O(live TIME-WAIT ports) memory, not O(total connections).
func (r *timewaitRing) expire(now core.Time) {
	for r.head < len(r.releases) && r.releases[r.head] <= now {
		r.head++
	}
	if r.head == len(r.releases) {
		r.releases = r.releases[:0]
		r.head = 0
	} else if r.head > 64 && r.head*2 >= len(r.releases) {
		n := copy(r.releases, r.releases[r.head:])
		r.releases = r.releases[:n]
		r.head = 0
	}
}

// Network is the simulated wire between the client host and the server host.
type Network struct {
	K   *simkernel.Kernel
	Cfg Config

	listeners []*Listener
	rrNext    int

	// lstats holds one Stats block per lane (a single block on a sequential
	// run). Counters are incremented on the lane where the counted event
	// executes and summed by Stats, so a parallel run needs no atomics and a
	// sequential run is exactly the old single-struct accounting.
	lstats []Stats

	portsInUse int
	timewait   timewaitRing

	// pools recycles the scheduled-delivery records of client.go, one pool
	// per lane: a record is taken from the scheduling lane's pool and
	// returned to the executing lane's, so each pool has a single writer.
	pools [][]*connEvt

	nextConnID int64

	// Datagram-transport state (see datagram.go). All of it — the binding
	// table, the peer address table and the loss/reorder sequence — lives on
	// the datagram home lane (the lane of the process that opened the first
	// datagram socket; the driver lane before any exists), so a parallel run
	// needs no locking and matches the sequential engine event for event.
	dgramBinds    map[Addr]*dgramBind
	peerAddrs     map[Addr]*Peer
	dgramHome     simkernel.Q
	dgramHomeSet  bool
	dgramSeq      uint64
	nextDgramAddr Addr

	// Parallel-run state (see Parallelize). driverQ doubles as the global
	// queue delegate on a sequential run, so scheduling code is identical on
	// both paths.
	parallel  bool
	lookahead core.Duration
	driverQ   simkernel.Q
}

// New creates a network bound to the given simulated kernel.
func New(k *simkernel.Kernel, cfg Config) *Network {
	if cfg.LinkBandwidthBps <= 0 {
		cfg.LinkBandwidthBps = 100e6
	}
	if cfg.DefaultRTT <= 0 {
		cfg.DefaultRTT = 200 * core.Microsecond
	}
	if cfg.ListenBacklog <= 0 {
		cfg.ListenBacklog = 128
	}
	if cfg.PortSpace <= 0 {
		cfg.PortSpace = 60000
	}
	if cfg.TimeWait < 0 {
		cfg.TimeWait = 0
	}
	n := &Network{
		K: k, Cfg: cfg,
		lstats:        make([]Stats, 1),
		pools:         make([][]*connEvt, 1),
		driverQ:       k.Sim.LaneQ(0),
		dgramBinds:    make(map[Addr]*dgramBind),
		peerAddrs:     make(map[Addr]*Peer),
		nextDgramAddr: dgramAutoAddrBase,
	}
	n.dgramHome = n.driverQ
	return n
}

// Parallelize homes the network onto the kernel's sharded lanes: the
// experiment driver (connection launches, the shared port/TIME-WAIT pool,
// connection-id assignment) owns lane 0, and every connection lives wholly on
// the lane of the server process whose listener receives it — client-side
// callbacks included — so all per-connection state stays single-writer and
// same-instant event ties within a connection keep the sequential engine's
// order. Only two event classes cross lanes: SYNs (driver to the connection's
// lane, at least half an RTT out) and port releases (connection lane back to
// the driver, deferred by the lookahead with the TIME-WAIT expiry carried as
// an absolute instant, which keeps PortsAvailable identical to a sequential
// run at every instant). Must be called after Kernel.EnableParallel and
// before any server or connection exists.
//
// Configurations whose semantics depend on global event order (round-robin
// listener sharding) or whose port-release deferral would be observable
// (TimeWait below the lookahead) cannot be parallelized; they panic here, and
// the experiment driver falls back to a sequential run for them instead.
func (n *Network) Parallelize() {
	sim := n.K.Sim
	if !sim.Sharded() {
		return
	}
	if n.Cfg.Shard == ShardRoundRobin {
		panic("netsim: round-robin listener sharding depends on global SYN order and cannot run parallel")
	}
	la := sim.Lookahead()
	if n.Cfg.TimeWait < la {
		panic("netsim: TimeWait below the lookahead would make deferred port release observable")
	}
	n.parallel = true
	n.lookahead = la
	n.driverQ = sim.LaneQ(0)
	n.dgramHome = n.driverQ
	n.lstats = make([]Stats, sim.NumLanes())
	n.pools = make([][]*connEvt, sim.NumLanes())
}

// Parallel reports whether the network has been homed onto sharded lanes.
func (n *Network) Parallel() bool { return n.parallel }

// statsAt returns the counter block for the lane q is bound to (the single
// block on a sequential run).
func (n *Network) statsAt(q simkernel.Q) *Stats {
	return &n.lstats[q.LaneIndex()]
}

// Stats returns a snapshot of the network counters, summed across lanes.
func (n *Network) Stats() Stats {
	s := n.lstats[0]
	for _, ls := range n.lstats[1:] {
		s.ConnAttempts += ls.ConnAttempts
		s.ConnEstablished += ls.ConnEstablished
		s.ConnRefused += ls.ConnRefused
		s.ConnPortFail += ls.ConnPortFail
		s.BytesToServer += ls.BytesToServer
		s.BytesToClient += ls.BytesToClient
		s.SegmentsRx += ls.SegmentsRx
		s.Accepted += ls.Accepted
		s.ServerCloses += ls.ServerCloses
		s.ClientCloses += ls.ClientCloses
		s.DgramsSent += ls.DgramsSent
		s.DgramsDelivered += ls.DgramsDelivered
		s.DgramsDropped += ls.DgramsDropped
		s.DgramsStale += ls.DgramsStale
	}
	return s
}

// Listener returns the first registered listening socket, if any — the only
// one on every single-worker server.
func (n *Network) Listener() *Listener {
	if len(n.listeners) == 0 {
		return nil
	}
	return n.listeners[0]
}

// Listeners returns all listening sockets sharing the served port, in
// registration order (worker order for a prefork server).
func (n *Network) Listeners() []*Listener { return n.listeners }

// pickListener selects the accept queue for a new connection according to the
// sharding policy. With one listener (the paper's topology) every policy
// degenerates to that listener. Closed listeners still occupy their slot so
// worker indexes stay stable; a SYN sharded onto one is refused, as a real
// dead SO_REUSEPORT socket would refuse it.
func (n *Network) pickListener(connID int64) *Listener {
	switch len(n.listeners) {
	case 0:
		return nil
	case 1:
		return n.listeners[0]
	}
	switch n.Cfg.Shard {
	case ShardRoundRobin:
		l := n.listeners[n.rrNext]
		n.rrNext = (n.rrNext + 1) % len(n.listeners)
		return l
	default:
		// Fibonacci hash of the connection id stands in for the kernel's
		// four-tuple hash: deterministic per connection, statistically even.
		return n.listeners[int((uint64(connID)*2654435761)%uint64(len(n.listeners)))]
	}
}

// TransmitDelay returns the serialisation delay for sending size bytes over
// the link (excluding propagation, which is covered by the RTT).
func (n *Network) TransmitDelay(size int) core.Duration {
	if size <= 0 {
		return 0
	}
	seconds := float64(size*8) / n.Cfg.LinkBandwidthBps
	return core.Duration(seconds * float64(core.Second))
}

// PortsAvailable reports how many client ephemeral ports can be allocated at
// virtual time now, after lazily expiring TIME-WAIT entries.
func (n *Network) PortsAvailable(now core.Time) int {
	n.timewait.expire(now)
	return n.Cfg.PortSpace - n.portsInUse - n.timewait.len()
}

// PortsInTimeWait reports how many ports are currently waiting out TIME-WAIT.
func (n *Network) PortsInTimeWait(now core.Time) int {
	n.timewait.expire(now)
	return n.timewait.len()
}

// allocPort claims a client ephemeral port; it returns false when the port
// space (including TIME-WAIT entries) is exhausted, which the paper avoids by
// limiting runs to 35000 connections.
func (n *Network) allocPort(now core.Time) bool {
	if n.PortsAvailable(now) <= 0 {
		return false
	}
	n.portsInUse++
	return true
}

// releasePort moves a port into TIME-WAIT at time now.
func (n *Network) releasePort(now core.Time) {
	if n.portsInUse <= 0 {
		return
	}
	n.portsInUse--
	if n.Cfg.TimeWait > 0 {
		n.timewait.push(now.Add(n.Cfg.TimeWait))
	}
}

// connID returns a fresh connection identifier for tracing.
func (n *Network) connID() int64 {
	n.nextConnID++
	return n.nextConnID
}

// String summarises the configuration, mostly for experiment logs.
func (c Config) String() string {
	return fmt.Sprintf("link=%.0fMbit/s rtt=%v backlog=%d ports=%d timewait=%v",
		c.LinkBandwidthBps/1e6, c.DefaultRTT, c.ListenBacklog, c.PortSpace, c.TimeWait)
}
