package netsim

import (
	"errors"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simkernel"
)

// Errors returned by the socket layer, mirroring the errno a real server sees.
var (
	// ErrAgain is accept(2)'s EAGAIN: nothing to return right now, either
	// because the accept queue is empty or because the fault plane injected a
	// spurious failure.
	ErrAgain = errors.New("netsim: resource temporarily unavailable (EAGAIN)")
	// ErrMFile is accept(2)'s EMFILE: the per-process descriptor limit is
	// reached. With the fault plane's FDLimit the pending connection stays on
	// the accept queue (the real syscall fails before touching it), so the
	// reserve-descriptor trick can still drain it.
	ErrMFile = errors.New("netsim: too many open files (EMFILE)")
)

// Listener is the server's listening socket ("port 80"). It implements
// simkernel.File so it can live in the server's descriptor table and be polled
// by any of the event mechanisms: it is readable whenever its accept queue is
// non-empty. Several listeners may share the served port SO_REUSEPORT-style
// (one per prefork worker); the network shards new connections across them
// (Config.Shard).
type Listener struct {
	net     *Network
	owner   *simkernel.Proc // the process that opened the socket (IRQ target)
	backlog int

	acceptQ []*ServerConn
	closed  bool

	notifier simkernel.Notifier

	// Overflows counts SYNs refused because the accept queue was full.
	Overflows int64
}

// Poll implements simkernel.File: POLLIN when a connection is waiting.
func (l *Listener) Poll() core.EventMask {
	if l.closed {
		return core.POLLNVAL
	}
	if len(l.acceptQ) > 0 {
		return core.POLLIN
	}
	return 0
}

// SetNotifier implements simkernel.File.
func (l *Listener) SetNotifier(n simkernel.Notifier) { l.notifier = n }

// Close implements simkernel.File.
func (l *Listener) Close(now core.Time) {
	l.closed = true
	// Connections still in the accept queue are reset.
	for _, c := range l.acceptQ {
		c.resetFromServer(now)
	}
	l.acceptQ = nil
}

// Backlog reports the current accept-queue depth.
func (l *Listener) Backlog() int { return len(l.acceptQ) }

// notify wakes pollers/hints after the queue became non-empty.
func (l *Listener) notify(now core.Time, mask core.EventMask) {
	if l.notifier != nil {
		l.notifier.Notify(now, mask)
	}
}

// deliverSYN is called by the network when a client's SYN reaches the server.
// It reports whether the connection was placed on the accept queue.
func (l *Listener) deliverSYN(now core.Time, conn *ServerConn) bool {
	if l.closed || len(l.acceptQ) >= l.backlog {
		l.Overflows++
		return false
	}
	conn.EstablishedAt = now
	l.acceptQ = append(l.acceptQ, conn)
	if len(l.acceptQ) == 1 {
		l.notify(now, core.POLLIN)
	}
	return true
}

// pop removes the oldest pending connection.
func (l *Listener) pop() (*ServerConn, bool) {
	if len(l.acceptQ) == 0 {
		return nil, false
	}
	c := l.acceptQ[0]
	l.acceptQ = l.acceptQ[1:]
	return c, true
}

// ServerConn is the server-side endpoint of an established connection. It
// implements simkernel.File: readable when request bytes are buffered or the
// peer has closed, writable while open.
type ServerConn struct {
	net   *Network
	ID    int64
	rtt   core.Duration
	peer  *ClientConn
	owner *simkernel.Proc // whose CPU receives this connection's interrupts

	// q is the lane the connection is homed on (its listener owner's lane;
	// the global-queue delegate on a sequential run). It matches the peer
	// ClientConn's home, so both endpoints of a connection execute on one
	// lane.
	q simkernel.Q

	rcvBuf      []byte // request bytes buffered, not yet read by the server
	peerClosed  bool   // client sent FIN
	closedLocal bool   // server closed its end
	resetPeer   bool   // client sent RST (fault plane): reads fail ECONNRESET, writes EPIPE
	accepted    bool

	// sndWindow is the peer's advertised receive window (0 = unlimited, the
	// paper's always-draining clients); sndAvail is how much of it is free.
	// Writes only accept up to sndAvail bytes, POLLOUT is withheld while the
	// window is closed, and window updates from a draining client reopen it.
	sndWindow int
	sndAvail  int

	// lastDeliveryAt is the client-side arrival time of the last response data
	// scheduled, used to keep FIN delivery ordered after the data.
	lastDeliveryAt core.Time

	// EstablishedAt is when the SYN was placed on the accept queue: the
	// anchor for server-side service latency, so that time spent waiting in
	// the backlog counts the same whether a server accepts eagerly (poll
	// loops) or only once request data has arrived (edge-style RT signals).
	EstablishedAt core.Time

	notifier simkernel.Notifier
}

// Poll implements simkernel.File.
func (c *ServerConn) Poll() core.EventMask {
	if c.closedLocal {
		return core.POLLNVAL
	}
	if c.resetPeer {
		// A reset connection reports error + hangup; both read- and
		// write-interested pollers surface it so the server can unwind.
		return core.POLLIN | core.POLLERR | core.POLLHUP
	}
	var m core.EventMask
	if len(c.rcvBuf) > 0 {
		m |= core.POLLIN
	}
	if c.peerClosed {
		m |= core.POLLIN | core.POLLHUP
	}
	if c.sndWindow == 0 || c.sndAvail > 0 {
		m |= core.POLLOUT
	}
	return m
}

// SetNotifier implements simkernel.File.
func (c *ServerConn) SetNotifier(n simkernel.Notifier) { c.notifier = n }

// Close implements simkernel.File. Note that the externally visible FIN is
// scheduled by SockAPI.Close as a deferred batch effect; this only marks local
// state.
func (c *ServerConn) Close(now core.Time) { c.closedLocal = true }

// Buffered reports how many unread request bytes are queued.
func (c *ServerConn) Buffered() int { return len(c.rcvBuf) }

// PeerClosed reports whether the client already sent FIN.
func (c *ServerConn) PeerClosed() bool { return c.peerClosed }

// ResetPeer reports whether the client reset the connection (fault plane).
func (c *ServerConn) ResetPeer() bool { return c.resetPeer }

// Accepted reports whether the server has accepted the connection.
func (c *ServerConn) Accepted() bool { return c.accepted }

// Peer returns the client endpoint (used by tests and the load generator).
func (c *ServerConn) Peer() *ClientConn { return c.peer }

// Transport implements Socket.
func (c *ServerConn) Transport() Transport { return Stream }

// Q implements Socket: the lane the connection is homed on.
func (c *ServerConn) Q() simkernel.Q { return c.q }

// Owner returns the process whose CPU this connection's interrupts are
// steered to (the accepting worker once accepted, its listener's owner before
// that).
func (c *ServerConn) Owner() *simkernel.Proc { return c.owner }

// irqCPU resolves the CPU that receives this connection's interrupts; nil
// selects the kernel's default (CPU 0), the uniprocessor behaviour.
func (c *ServerConn) irqCPU() *simkernel.CPU {
	if c.owner == nil {
		return nil
	}
	return c.owner.CPU()
}

func (c *ServerConn) notify(now core.Time, mask core.EventMask) {
	if c.notifier != nil {
		c.notifier.Notify(now, mask)
	}
}

// deliverData is called by the network when request bytes arrive.
func (c *ServerConn) deliverData(now core.Time, data []byte) {
	if c.closedLocal || len(data) == 0 {
		return
	}
	c.rcvBuf = append(c.rcvBuf, data...)
	c.notify(now, core.POLLIN)
}

// SendWindowAvail reports the free send-window space (-1 for an unlimited
// window), exposed for tests.
func (c *ServerConn) SendWindowAvail() int {
	if c.sndWindow == 0 {
		return -1
	}
	return c.sndAvail
}

// windowOpen is called by the network when a window update arrives: the
// draining peer consumed n bytes. Reopening a fully closed window raises
// POLLOUT, waking any write-interested poller.
func (c *ServerConn) windowOpen(now core.Time, n int) {
	if c.sndWindow == 0 || c.closedLocal {
		return
	}
	was := c.sndAvail
	c.sndAvail += n
	if c.sndAvail > c.sndWindow {
		c.sndAvail = c.sndWindow
	}
	if was == 0 && c.sndAvail > 0 {
		c.notify(now, core.POLLOUT)
	}
}

// deliverRST is called by the network when a client RST arrives (fault
// plane): buffered request bytes are discarded — a reset flushes the receive
// queue — and the connection is marked so the server's next read fails like
// ECONNRESET and its next write like EPIPE.
func (c *ServerConn) deliverRST(now core.Time) {
	if c.closedLocal || c.resetPeer {
		return
	}
	c.resetPeer = true
	c.rcvBuf = nil
	c.notify(now, core.POLLIN|core.POLLERR|core.POLLHUP)
}

// deliverFIN is called by the network when the client's FIN arrives.
func (c *ServerConn) deliverFIN(now core.Time) {
	if c.closedLocal {
		return
	}
	c.peerClosed = true
	c.notify(now, core.POLLIN|core.POLLHUP)
}

// resetFromServer aborts a connection that was never accepted (listener
// closed underneath it).
func (c *ServerConn) resetFromServer(now core.Time) {
	if c.peer != nil {
		c.peer.scheduleReset(now)
	}
}

// SockAPI exposes the socket system calls to a simulated server process. Every
// method charges its CPU cost to the process's current batch (see
// simkernel.Proc.Batch); externally visible effects — transmissions and FINs —
// are deferred to the batch's completion instant.
type SockAPI struct {
	K   *simkernel.Kernel
	P   *simkernel.Proc
	Net *Network

	// EMFILECount counts accepts that failed due to the descriptor limit.
	EMFILECount int64

	// Fault-plane decision streams. The salt is derived from the process name
	// and the sequence counters advance only while the corresponding rate is
	// non-zero, so they are lane-local (one SockAPI per process per lane) and
	// a zero fault config leaves the hot path untouched.
	faultSalt uint64
	acceptSeq uint64
	readSeq   uint64
	writeSeq  uint64
}

// fsalt lazily derives the per-process fault stream salt.
func (a *SockAPI) fsalt() uint64 {
	if a.faultSalt == 0 {
		a.faultSalt = faults.SaltString(a.P.Name)
	}
	return a.faultSalt
}

// NewSockAPI builds the socket interface for process p.
func NewSockAPI(k *simkernel.Kernel, p *simkernel.Proc, net *Network) *SockAPI {
	return &SockAPI{K: k, P: p, Net: net}
}

// Listen creates the listening socket, installs it in the descriptor table and
// registers it with the network so client SYNs can reach it. A second Listen —
// from another worker's SockAPI — joins the SO_REUSEPORT group: the network
// shards new connections across all registered listeners.
func (a *SockAPI) Listen() (*simkernel.FD, *Listener) {
	a.P.ChargeSyscall(a.K.Cost.Accept) // socket+bind+listen lumped together
	l := &Listener{net: a.Net, owner: a.P, backlog: a.Net.Cfg.ListenBacklog}
	fd := a.P.Install(l)
	a.Net.listeners = append(a.Net.listeners, l)
	return fd, l
}

// Accept pops one pending connection from the listener's queue, installing a
// new descriptor for it. It fails with ErrAgain when the queue is empty (or
// the fault plane injected a spurious EAGAIN, leaving the queue untouched) and
// with ErrMFile when a descriptor limit is reached. Under the fault plane's
// FDLimit the pending connection stays queued — the real syscall fails before
// dequeuing — while the network-level MaxServerFDs keeps its historical
// pop-and-reset semantics.
func (a *SockAPI) Accept(lfd *simkernel.FD) (fd *simkernel.FD, conn *ServerConn, err error) {
	a.P.ChargeSyscall(a.K.Cost.Accept)
	l, isListener := lfd.File().(*Listener)
	if !isListener {
		return nil, nil, core.ErrBadFD
	}
	if f := &a.K.Faults; f.AcceptEAGAINRate > 0 {
		a.acceptSeq++
		if f.AcceptEAGAIN(a.fsalt(), a.acceptSeq) {
			return nil, nil, ErrAgain
		}
	}
	if lim := a.K.Faults.FDLimit; lim > 0 && a.P.NumFDs() >= lim {
		a.EMFILECount++
		return nil, nil, ErrMFile
	}
	c, ok := l.pop()
	if !ok {
		return nil, nil, ErrAgain
	}
	if a.Net.Cfg.MaxServerFDs > 0 && a.P.NumFDs() >= a.Net.Cfg.MaxServerFDs {
		a.EMFILECount++
		c.resetFromServer(a.P.Now())
		return nil, nil, ErrMFile
	}
	c.accepted = true
	c.owner = a.P
	a.Net.statsAt(a.P.Q()).Accepted++
	fd = a.P.Install(c)
	return fd, c, nil
}

// AcceptDetach pops one pending connection without installing a descriptor
// for it: the single-acceptor half of a prefork handoff, where the accepting
// worker immediately passes the connection to a sibling over a UNIX-domain
// socket (the sendmsg side is charged here as ConnHandoff). ok is false when
// the queue is empty. The connection's interrupts stay steered to the
// acceptor's CPU until a sibling Adopts it.
func (a *SockAPI) AcceptDetach(lfd *simkernel.FD) (conn *ServerConn, ok bool) {
	a.P.ChargeSyscall(a.K.Cost.Accept)
	l, isListener := lfd.File().(*Listener)
	if !isListener {
		return nil, false
	}
	c, ok := l.pop()
	if !ok {
		return nil, false
	}
	c.accepted = true
	c.owner = a.P
	a.Net.statsAt(a.P.Q()).Accepted++
	a.P.Charge(a.K.Cost.ConnHandoff)
	return c, true
}

// Adopt installs a connection obtained from a sibling's AcceptDetach into this
// process's descriptor table — the recvmsg side of descriptor passing. The
// connection's interrupts are re-steered to the adopting worker's CPU. ok is
// false when the adopting process is out of descriptors (the connection is
// reset, as in Accept).
func (a *SockAPI) Adopt(conn *ServerConn) (fd *simkernel.FD, ok bool) {
	if a.Net.parallel {
		// Adoption moves a connection between processes — and so between
		// lanes — which would split its single-writer home. Handoff-mode
		// prefork is forced onto the sequential engine by the experiment
		// driver; fail loudly if a new caller slips through.
		panic("netsim: Adopt is not supported on a parallelized network")
	}
	a.P.ChargeSyscall(0) // recvmsg collecting the passed descriptor
	if a.Net.Cfg.MaxServerFDs > 0 && a.P.NumFDs() >= a.Net.Cfg.MaxServerFDs {
		a.EMFILECount++
		conn.resetFromServer(a.P.Now())
		return nil, false
	}
	conn.owner = a.P
	return a.P.Install(conn), true
}

// Read consumes up to max buffered request bytes from the connection,
// returning the data read and whether end-of-file (peer FIN with an empty
// buffer) was reached. max <= 0 reads everything buffered.
func (a *SockAPI) Read(fd *simkernel.FD, max int) (data []byte, eof bool) {
	cost := a.K.Cost.SockRead
	if fd.BufferRegistered {
		// Reads into a registered (pre-pinned) buffer skip the user-space
		// copy component; the descriptor-lookup and protocol work remain.
		if cost > a.K.Cost.SockReadCopy {
			cost -= a.K.Cost.SockReadCopy
		} else {
			cost = 0
		}
	}
	a.P.ChargeSyscall(cost)
	conn, isConn := fd.File().(*ServerConn)
	if !isConn || fd.Closed() {
		return nil, true
	}
	if f := &a.K.Faults; f.ReadEAGAINRate > 0 {
		a.readSeq++
		if f.ReadEAGAIN(a.fsalt(), a.readSeq) {
			// Injected spurious EAGAIN: no data, not EOF. The buffered bytes
			// stay queued and the descriptor stays readable, so a
			// level-triggered poller re-reports it and an edge-triggered one
			// already primed on Add retries on the next wakeup.
			return nil, false
		}
	}
	n := len(conn.rcvBuf)
	if max > 0 && max < n {
		n = max
	}
	if n > 0 {
		data = conn.rcvBuf[:n:n]
		conn.rcvBuf = conn.rcvBuf[n:]
	}
	if n == 0 && (conn.peerClosed || conn.resetPeer) {
		// A FIN'd connection drains to EOF; a reset one has had its buffer
		// flushed, so the read fails immediately (ECONNRESET — callers
		// distinguish via ResetPeer).
		eof = true
	}
	return data, eof
}

// Write queues up to n response bytes for transmission to the client,
// returning how many the socket accepted: all n with an unlimited peer window
// (the paper's workload), only what fits in the free window otherwise — the
// partial write a server must retry when POLLOUT returns. The CPU cost of the
// accepted bytes is charged now; they arrive at the client one
// link-transmission plus half an RTT after the batch completes.
func (a *SockAPI) Write(fd *simkernel.FD, n int) int {
	conn, isConn := fd.File().(*ServerConn)
	if !isConn || fd.Closed() || n <= 0 || conn.closedLocal {
		// The kernel still walks the write path before failing the call.
		a.P.ChargeSyscall(a.K.Cost.WriteCost(n))
		return 0
	}
	if conn.resetPeer {
		// EPIPE: the kernel fails the call before copying any bytes.
		a.P.ChargeSyscall(a.K.Cost.WriteCost(0))
		return 0
	}
	if f := &a.K.Faults; f.WriteEAGAINRate > 0 {
		a.writeSeq++
		if f.WriteEAGAIN(a.fsalt(), a.writeSeq) {
			// Injected spurious EAGAIN, priced like the real failed call.
			a.P.ChargeSyscall(a.K.Cost.WriteCost(0))
			return 0
		}
	}
	accepted := n
	if conn.sndWindow > 0 {
		if accepted > conn.sndAvail {
			accepted = conn.sndAvail
		}
		conn.sndAvail -= accepted
	}
	a.P.ChargeSyscall(a.K.Cost.WriteCost(accepted))
	if accepted <= 0 {
		return 0 // window closed: EAGAIN
	}
	a.Net.defer_(a.P, evtXmit, conn, accepted)
	return accepted
}

// Writev queues head+body response bytes for transmission as one vectored
// write, returning how many bytes the socket accepted. The two iovecs
// coalesce into a single syscall: the charge is exactly Write(head+body) —
// one kernel entry, one copy/checksum pass over the total — which is why a
// server assembling header and body separately still pays the single-write
// cost the historical combined-buffer path charged.
func (a *SockAPI) Writev(fd *simkernel.FD, head, body int) int {
	return a.Write(fd, head+body)
}

// Sendfile queues n response-body bytes for zero-copy transmission, returning
// how many the socket accepted. It follows Write's window semantics exactly,
// but the accepted bytes are charged at the sendfile rate: the write path
// minus the user-space copy (the bytes go from the page cache straight to the
// device) plus a per-page wiring charge — the transmit-side mirror of the
// registered-buffer read discount.
func (a *SockAPI) Sendfile(fd *simkernel.FD, n int) int {
	conn, isConn := fd.File().(*ServerConn)
	if !isConn || fd.Closed() || n <= 0 || conn.closedLocal {
		a.P.ChargeSyscall(a.K.Cost.SendfileCost(n))
		return 0
	}
	if conn.resetPeer {
		a.P.ChargeSyscall(a.K.Cost.SendfileCost(0))
		return 0
	}
	if f := &a.K.Faults; f.WriteEAGAINRate > 0 {
		a.writeSeq++
		if f.WriteEAGAIN(a.fsalt(), a.writeSeq) {
			a.P.ChargeSyscall(a.K.Cost.SendfileCost(0))
			return 0
		}
	}
	accepted := n
	if conn.sndWindow > 0 {
		if accepted > conn.sndAvail {
			accepted = conn.sndAvail
		}
		conn.sndAvail -= accepted
	}
	a.P.ChargeSyscall(a.K.Cost.SendfileCost(accepted))
	if accepted <= 0 {
		return 0 // window closed: EAGAIN
	}
	a.Net.defer_(a.P, evtXmit, conn, accepted)
	return accepted
}

// Close releases the descriptor and sends a FIN to the client after the
// current batch completes. For HTTP/1.0 the server closes every connection
// after writing the response, so the FIN is what lets the client measure the
// connection as complete.
func (a *SockAPI) Close(fd *simkernel.FD) {
	a.P.ChargeSyscall(a.K.Cost.SockClose)
	conn, isConn := fd.File().(*ServerConn)
	_ = a.P.CloseFD(a.P.Now(), fd.Num)
	if !isConn {
		return
	}
	if conn.resetPeer {
		// The peer already tore the connection down; there is no one to FIN.
		return
	}
	a.Net.defer_(a.P, evtSrvClose, conn, 0)
}
