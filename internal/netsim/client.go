package netsim

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simkernel"
)

// RefuseReason explains why a connection attempt failed.
type RefuseReason int

// Reasons a connection attempt can fail.
const (
	RefusedBacklog RefuseReason = iota // server accept queue full
	RefusedClosed                      // no listener / listener closed
	RefusedPorts                       // client ran out of ephemeral ports
	RefusedReset                       // connection reset before being served
)

// String names the refusal reason.
func (r RefuseReason) String() string {
	switch r {
	case RefusedBacklog:
		return "backlog-full"
	case RefusedClosed:
		return "listener-closed"
	case RefusedPorts:
		return "ports-exhausted"
	case RefusedReset:
		return "reset"
	default:
		return "unknown"
	}
}

// ConnState is the client's view of the connection lifecycle.
type ConnState int

// Client connection states.
const (
	StateConnecting ConnState = iota
	StateEstablished
	StateRefused
	StateClosed
)

// ConnHandler receives the client-side connection callbacks — the stream
// specialization of the Socket consumer surface (Peer/DgramHandler is the
// datagram one). The client host has unbounded CPU, so methods run exactly at
// the event's virtual time. Implementing the interface directly is the
// allocation-free path the load generator uses: one interface value per
// connection instead of a closure per callback; closure-based callers adapt
// with simtest.ConnHooks.
type ConnHandler interface {
	Connected(now core.Time)
	Refused(now core.Time, reason RefuseReason)
	Data(now core.Time, n int)
	PeerClosed(now core.Time)
}

// noopHandler stands in when a caller passes a nil handler.
type noopHandler struct{}

func (noopHandler) Connected(core.Time)             {}
func (noopHandler) Refused(core.Time, RefuseReason) {}
func (noopHandler) Data(core.Time, int)             {}
func (noopHandler) PeerClosed(core.Time)            {}

var sharedNoopHandler ConnHandler = noopHandler{}

// ConnectOptions parameterise one client connection.
type ConnectOptions struct {
	// RTT is the round-trip time between this client and the server; zero
	// selects the network's default (LAN) RTT. The paper's inactive clients
	// use a large RTT to model modem-attached users.
	RTT core.Duration
	// RecvWindow is the client's advertised receive window in bytes; zero
	// means unlimited (the paper's workload, where clients always drain).
	// With a finite window the server's writes only progress as fast as the
	// client application consumes: each delivered byte occupies the window
	// until the client reads it, and the window update travels half an RTT
	// back before the server sees POLLOUT again.
	RecvWindow int
	// StallReads makes the client application never consume delivered bytes:
	// the receive window, once filled, never reopens. Combined with a small
	// RecvWindow this is the classic stalled-reader (slow-read) adversary —
	// the server's response jams after RecvWindow bytes and the connection
	// occupies a descriptor, an interest-set entry and a blocked write until
	// the server's idle sweep gives up on it.
	StallReads bool
}

// ClientConn is the client-side endpoint of a simulated TCP connection.
type ClientConn struct {
	net *Network
	ID  int64
	rtt core.Duration

	// q is the lane every event of this connection — client-side callbacks
	// included — executes on: the lane of the server process whose listener
	// the connection hashes to (the global queue delegate on a sequential
	// run). synQ is the same handle, kept separate only for the SYN of a
	// connection that never establishes.
	q    simkernel.Q
	synQ simkernel.Q

	h     ConnHandler
	state ConnState

	server *ServerConn

	recvWindow  int
	portHeld    bool
	peerClosed  bool
	closedLocal bool
	stallReads  bool

	// fate is the fault plane's verdict for this connection, fixed at connect
	// time from the driver-assigned id (thread-count invariant); fateFired
	// records that the trigger has been pulled, vanished that the peer went
	// silent (its eventual Close releases the port without a FIN).
	fate      faults.ConnFate
	fateFired bool
	vanished  bool

	// StartedAt is when Connect was called; loadgen uses it for latency.
	StartedAt core.Time
}

// ConnectWith starts a connection attempt at virtual time now. The returned
// ClientConn reports progress through h (which may be nil for fire-and-forget
// connections). On a parallelized network it must be called from code
// executing on the driver lane: connection-id assignment and the port pool
// are driver-lane state.
func (n *Network) ConnectWith(now core.Time, opts ConnectOptions, h ConnHandler) *ClientConn {
	if h == nil {
		h = sharedNoopHandler
	}
	rtt := opts.RTT
	if rtt <= 0 {
		rtt = n.Cfg.DefaultRTT
	}
	c := &ClientConn{
		net: n, ID: n.connID(), rtt: rtt, h: h, state: StateConnecting,
		StartedAt: now, recvWindow: opts.RecvWindow, stallReads: opts.StallReads,
	}
	c.q = n.driverQ
	c.synQ = c.q
	if f := &n.K.Faults; f.ResetRate > 0 || f.VanishRate > 0 {
		c.fate = f.FateOf(c.ID)
	}
	st := n.statsAt(n.driverQ)
	st.ConnAttempts++

	if !n.allocPort(now) {
		st.ConnPortFail++
		c.state = StateRefused
		// Port-refused connections stay homed on the driver lane: their one
		// and only callback fires right here, on the driver.
		n.driverQ.After(0, func(t core.Time) { h.Refused(t, RefusedPorts) })
		return c
	}
	c.portHeld = true

	// Home the connection: the listener choice is a pure function of the
	// connection id (Parallelize forbids round-robin sharding), so the home
	// lane can be resolved at launch, before the SYN travels.
	if n.parallel {
		if l := n.pickListener(c.ID); l != nil && l.owner != nil {
			c.q = l.owner.Q()
			c.synQ = c.q
		}
	}

	// SYN reaches the server half an RTT from now; the handshake completes (or
	// the refusal is learned) another half RTT later.
	n.schedule(n.driverQ, c.synQ, now.Add(rtt/2), evtSYN, c, nil, 0, 0, nil)
	return c
}

// State reports the client's view of the connection.
func (c *ClientConn) State() ConnState { return c.state }

// Transport implements Socket.
func (c *ClientConn) Transport() Transport { return Stream }

// Q returns the scheduling handle of the lane the connection is homed on (the
// global-queue delegate on a sequential run). Client-side callbacks execute
// on this lane; callers scheduling follow-up work against the connection
// (timeouts, think times) must target it.
func (c *ClientConn) Q() simkernel.Q { return c.q }

// RTT returns the connection's round-trip time.
func (c *ClientConn) RTT() core.Duration { return c.rtt }

// synArrive handles the SYN reaching the server host. It executes on the
// connection's home lane — the lane of the listener the id hashes to.
func (c *ClientConn) synArrive(t core.Time) {
	n := c.net
	st := n.statsAt(c.synQ)
	// The sharding decision is made in the NIC/stack before the interrupt
	// is raised, so the SYN's interrupt cost lands on the CPU of the
	// worker whose accept queue receives the connection (IRQ steering).
	l := n.pickListener(c.ID)
	var irq *simkernel.CPU
	if l != nil && l.owner != nil {
		irq = l.owner.CPU()
	}
	n.K.InterruptOn(irq, t, n.K.Cost.NetRxIRQ, nil)
	st.SegmentsRx++
	reason := RefusedClosed
	if l != nil {
		// The client's receive window is advertised in the handshake.
		sc := &ServerConn{net: n, ID: c.ID, rtt: c.rtt, peer: c, owner: l.owner,
			q: c.synQ, sndWindow: c.recvWindow, sndAvail: c.recvWindow}
		if l.deliverSYN(t, sc) {
			c.server = sc
			st.ConnEstablished++
			n.schedule(c.synQ, c.q, t.Add(c.rtt/2), evtEstablished, c, nil, 0, 0, nil)
			return
		}
		reason = RefusedBacklog
	}
	st.ConnRefused++
	n.schedule(c.synQ, c.q, t.Add(c.rtt/2), evtRefuse, c, nil, 0, reason, nil)
}

// established completes the handshake on the client side.
func (c *ClientConn) established(t core.Time) {
	if c.state != StateConnecting {
		return
	}
	c.state = StateEstablished
	c.h.Connected(t)
}

// Send transmits request bytes toward the server at time now. Bytes arrive
// after half an RTT plus the link transmission delay and are buffered on the
// server connection until it reads them. The data slice is retained until
// delivery and must not be mutated by the caller in the meantime.
func (c *ClientConn) Send(now core.Time, data []byte) {
	if c.state != StateEstablished && c.state != StateConnecting {
		return
	}
	if len(data) == 0 {
		return
	}
	switch c.fate {
	case faults.FateVanish:
		// The vanished peer's request never leaves its host: the server sees
		// an accepted connection that stays silent until the idle sweep.
		c.vanished = true
		return
	case faults.FateResetRequest:
		if !c.fateFired {
			c.fateFired = true
			// A deterministic fraction of the request escapes, then the RST
			// chases it down the same path so the server reads a truncated
			// request and then fails with ECONNRESET.
			cut := int(c.net.K.Faults.CutFraction(c.ID) * float64(len(data)))
			if cut < 1 {
				cut = 1
			}
			if cut > len(data) {
				cut = len(data)
			}
			data = data[:cut:cut]
			arrival := now.Add(c.rtt / 2).Add(c.net.TransmitDelay(cut))
			c.net.schedule(c.q, c.synQ, arrival, evtDataToServer, c, nil, cut, 0, data)
			c.abortWithReset(now, arrival)
		}
		return
	}
	n := len(data)
	arrival := now.Add(c.rtt / 2).Add(c.net.TransmitDelay(n))
	c.net.schedule(c.q, c.synQ, arrival, evtDataToServer, c, nil, n, 0, data)
}

// abortWithReset tears the connection down from the client side with an RST
// that reaches the server at rstArrival, surfacing the abort to the client's
// handler as a reset. The ephemeral port is released immediately — a reset
// connection skips TIME-WAIT's FIN handshake bookkeeping on the sender.
func (c *ClientConn) abortWithReset(now core.Time, rstArrival core.Time) {
	if c.closedLocal {
		return
	}
	c.closedLocal = true
	c.state = StateClosed
	c.releasePort(now)
	if c.server != nil {
		c.net.schedule(c.q, c.server.q, rstArrival, evtRSTToServer, nil, c.server, 0, 0, nil)
	}
	c.h.Refused(now, RefusedReset)
}

// dataArriveServer delivers sent bytes to the server host.
func (c *ClientConn) dataArriveServer(t core.Time, data []byte) {
	if c.server == nil {
		return
	}
	net := c.net
	st := net.statsAt(c.server.q)
	net.K.InterruptOn(c.server.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
	st.SegmentsRx++
	st.BytesToServer += int64(len(data))
	c.server.deliverData(t, data)
}

// Close closes the client end at time now; the FIN reaches the server half an
// RTT later. The client's ephemeral port enters TIME-WAIT.
func (c *ClientConn) Close(now core.Time) {
	if c.closedLocal {
		return
	}
	c.closedLocal = true
	if c.state == StateEstablished || c.state == StateConnecting {
		c.state = StateClosed
	}
	c.net.statsAt(c.q).ClientCloses++
	c.releasePort(now)
	if c.server == nil || c.vanished {
		// A vanished peer never announces the close: no FIN reaches the
		// server, which reclaims the connection only through its idle sweep.
		return
	}
	c.net.schedule(c.q, c.server.q, now.Add(c.rtt/2), evtFINToServer, c, c.server, 0, 0, nil)
}

// refuse finalises a failed connection attempt on the client side.
func (c *ClientConn) refuse(now core.Time, reason RefuseReason) {
	if c.state != StateConnecting {
		return
	}
	c.state = StateRefused
	c.releasePort(now)
	c.h.Refused(now, reason)
}

// scheduleData delivers response bytes to the client at the given instant.
// A draining client (the normal case) consumes the bytes on arrival, and the
// window update announcing the freed space reaches the server half an RTT
// later; a stalled reader leaves the window occupied forever.
func (c *ClientConn) scheduleData(at core.Time, n int) {
	c.net.schedule(c.server.q, c.q, at, evtDataToClient, c, nil, n, 0, nil)
}

// dataArriveClient consumes delivered response bytes on the client host.
func (c *ClientConn) dataArriveClient(t core.Time, n int) {
	if c.closedLocal {
		return
	}
	if c.fate == faults.FateResetResponse && !c.fateFired {
		// Mid-response reset: the first response bytes have arrived, more may
		// be in flight, and the client slams the connection shut. The server's
		// still-draining response fails with EPIPE when the RST lands.
		c.fateFired = true
		c.abortWithReset(t, t.Add(c.rtt/2))
		return
	}
	c.h.Data(t, n)
	if !c.stallReads && c.server != nil && c.server.sndWindow > 0 {
		// The window update is an ACK segment: it costs the server an RX
		// interrupt like any other arriving segment.
		c.net.schedule(c.q, c.server.q, t.Add(c.rtt/2), evtWindowUpdate, nil, c.server, n, 0, nil)
	}
}

// schedulePeerClose delivers the server's FIN to the client at the given
// instant.
func (c *ClientConn) schedulePeerClose(at core.Time) {
	c.net.schedule(c.server.q, c.q, at, evtPeerClose, c, nil, 0, 0, nil)
}

// peerCloseArrive handles the server's FIN on the client host.
func (c *ClientConn) peerCloseArrive(t core.Time) {
	if c.peerClosed || c.closedLocal {
		return
	}
	c.peerClosed = true
	c.state = StateClosed
	c.releasePort(t)
	c.h.PeerClosed(t)
}

// scheduleReset aborts the connection from the server side (listener torn
// down, descriptor limit, ...), surfacing it to the client as a refusal. It
// executes on the server lane the connection is homed on.
func (c *ClientConn) scheduleReset(now core.Time) {
	src := c.synQ
	if c.server != nil {
		src = c.server.q
	}
	c.net.schedule(src, c.q, now.Add(c.rtt/2), evtReset, c, nil, 0, 0, nil)
}

// resetArrive handles a server-side reset on the client host.
func (c *ClientConn) resetArrive(t core.Time) {
	if c.closedLocal || c.peerClosed {
		return
	}
	switch c.state {
	case StateConnecting:
		c.refuse(t, RefusedReset)
	case StateEstablished:
		c.state = StateClosed
		c.peerClosed = true
		c.releasePort(t)
		c.h.Refused(t, RefusedReset)
	}
}

// releasePort returns the client's ephemeral port to TIME-WAIT exactly once.
// On a parallelized network the port pool is driver-lane state, so the
// release travels to the driver as a cross-lane event deferred by the
// lookahead, carrying the absolute TIME-WAIT expiry computed from the true
// release instant. PortsAvailable is unaffected by the deferral: a port in
// flight still counts as in use, and in-use plus TIME-WAIT is exactly the sum
// a sequential run maintains (Parallelize refuses TimeWait below the
// lookahead, the one configuration where the expiry could precede delivery).
func (c *ClientConn) releasePort(now core.Time) {
	if !c.portHeld {
		return
	}
	c.portHeld = false
	n := c.net
	if !n.parallel {
		n.releasePort(now)
		return
	}
	e := n.getEvt(c.q)
	e.kind, e.when, e.lane = evtPortRelease, now.Add(n.Cfg.TimeWait), 0
	c.q.Post(n.driverQ, now.Add(n.lookahead), e.fn)
}

// evtKind identifies what a pooled network event does when it fires.
type evtKind int

const (
	evtSYN           evtKind = iota // SYN reaches the server host
	evtEstablished                  // SYN-ACK reaches the client: handshake done
	evtRefuse                       // refusal reaches the client
	evtDataToServer                 // request bytes reach the server host
	evtDataToClient                 // response bytes reach the client host
	evtWindowUpdate                 // window-update ACK reaches the server host
	evtPeerClose                    // server FIN reaches the client host
	evtFINToServer                  // client FIN reaches the server host
	evtReset                        // server reset reaches the client host
	evtRSTToServer                  // client RST reaches the server host (fault plane)
	evtXmit                         // server write leaves the host (batch completion)
	evtSrvClose                     // server close's FIN leaves the host (batch completion)
	evtPortRelease                  // deferred port release reaches the driver lane
	evtDgramToServer                // datagram reaches a bound server socket
	evtDgramToPeer                  // datagram reaches a client-host peer
	evtDgramXmit                    // server SendTo leaves the host (batch completion)
	evtPeerStart                    // peer registration reaches the datagram home lane
)

// connEvt is one scheduled network delivery. Records are pooled on the
// Network and each carries a callback bound once for its life, so the
// per-segment traffic of a run — the majority of all scheduled events —
// allocates nothing at steady state. lane is the index of the lane the event
// executes on (its pool of recycle); when carries the absolute TIME-WAIT
// expiry of a deferred port release.
type connEvt struct {
	net    *Network
	kind   evtKind
	lane   int
	c      *ClientConn
	sc     *ServerConn
	n      int
	reason RefuseReason
	when   core.Time
	data   []byte
	fn     func(now core.Time)

	// Datagram-event payload: the socket or peer the event touches, the
	// source/destination address and the descriptor capture checked at
	// delivery (see datagram.go).
	ds   *DgramSock
	peer *Peer
	addr Addr
	fdn  int
	gen  uint64
}

// getEvt pops a recycled delivery record from the scheduling lane's pool (or
// allocates one with its callback bound) — the single home of the pool
// discipline. Records return to the executing lane's pool, so every pool has
// exactly one touching goroutine per epoch.
func (n *Network) getEvt(src simkernel.Q) *connEvt {
	pool := n.pools[src.LaneIndex()]
	if l := len(pool); l > 0 {
		e := pool[l-1]
		pool[l-1] = nil
		n.pools[src.LaneIndex()] = pool[:l-1]
		return e
	}
	e := &connEvt{net: n}
	e.fn = e.run
	return e
}

// schedule books a pooled delivery event at the given instant, from code
// executing on src's lane, to execute on dst's lane. On a sequential run both
// handles delegate to the global queue and this is exactly the old Sim.At.
func (n *Network) schedule(src, dst simkernel.Q, at core.Time, kind evtKind, c *ClientConn, sc *ServerConn, count int, reason RefuseReason, data []byte) {
	e := n.getEvt(src)
	e.kind, e.c, e.sc, e.n, e.reason, e.data = kind, c, sc, count, reason, data
	e.lane = dst.LaneIndex()
	src.Post(dst, at, e.fn)
}

// defer_ books a pooled delivery event as a deferred batch effect of the
// given process (the transmit side of server syscalls); it executes on the
// process's own lane at the batch's completion instant.
func (n *Network) defer_(p *simkernel.Proc, kind evtKind, sc *ServerConn, count int) {
	e := n.getEvt(p.Q())
	e.kind, e.sc, e.n = kind, sc, count
	e.lane = p.Q().LaneIndex()
	p.Defer(e.fn)
}

// run dispatches the event and recycles its record. The fields are extracted
// (and the record returned to the executing lane's pool) before the work
// runs, because the work itself may schedule and thus re-issue this very
// record.
func (e *connEvt) run(t core.Time) {
	net, kind, lane, c, sc, n, reason, when, data := e.net, e.kind, e.lane, e.c, e.sc, e.n, e.reason, e.when, e.data
	switch kind {
	case evtDgramToServer, evtDgramToPeer, evtDgramXmit, evtPeerStart:
		// Datagram events keep their record through the dispatch (the
		// handlers read the capture fields directly) and recycle afterwards;
		// any event they schedule draws a fresh record from the pool first.
		e.dispatchDgram(t)
		e.c, e.sc, e.data, e.ds, e.peer = nil, nil, nil, nil, nil
		net.pools[lane] = append(net.pools[lane], e)
		return
	}
	e.c, e.sc, e.data = nil, nil, nil
	net.pools[lane] = append(net.pools[lane], e)
	switch kind {
	case evtSYN:
		c.synArrive(t)
	case evtEstablished:
		c.established(t)
	case evtRefuse:
		c.refuse(t, reason)
	case evtDataToServer:
		c.dataArriveServer(t, data)
	case evtDataToClient:
		c.dataArriveClient(t, n)
	case evtWindowUpdate:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(sc.q).SegmentsRx++
		sc.windowOpen(t, n)
	case evtPeerClose:
		c.peerCloseArrive(t)
	case evtFINToServer:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(sc.q).SegmentsRx++
		sc.deliverFIN(t)
	case evtReset:
		c.resetArrive(t)
	case evtRSTToServer:
		net.K.InterruptOn(sc.irqCPU(), t, net.K.Cost.NetRxIRQ, nil)
		net.statsAt(sc.q).SegmentsRx++
		sc.deliverRST(t)
	case evtPortRelease:
		// Driver lane: fold the released port into TIME-WAIT at its
		// original expiry. Pushes stay monotonic because every release is
		// deferred by the same lookahead.
		if net.portsInUse > 0 {
			net.portsInUse--
			net.timewait.push(when)
		}
	case evtXmit:
		arrival := t.Add(net.TransmitDelay(n)).Add(sc.rtt / 2)
		if arrival < sc.lastDeliveryAt {
			arrival = sc.lastDeliveryAt
		}
		sc.lastDeliveryAt = arrival
		net.statsAt(sc.q).BytesToClient += int64(n)
		if sc.peer != nil {
			sc.peer.scheduleData(arrival, n)
		}
	case evtSrvClose:
		net.statsAt(sc.q).ServerCloses++
		arrival := t.Add(sc.rtt / 2)
		if arrival < sc.lastDeliveryAt {
			arrival = sc.lastDeliveryAt
		}
		sc.lastDeliveryAt = arrival
		if sc.peer != nil {
			sc.peer.schedulePeerClose(arrival)
		}
	}
}
