// Package httpcore contains the connection-handling logic shared by the
// simulated web servers (thttpd, phhttpd and the hybrid server): accepting
// connections, incrementally parsing HTTP requests, serving static documents
// from a content store, closing connections and sweeping idle ones.
//
// Connections are a persistent state machine. In the historical HTTP/1.0 mode
// (Options zero value) every connection serves one request and closes, with
// charges identical to the pre-keep-alive implementation. With
// Options.KeepAlive the connection survives its responses: the parser advances
// past each served request and retains pipelined bytes, one readable dispatch
// drains at most PipelineBatch buffered requests (fairness), a blocked
// response parks the pipeline on write interest until the window reopens, and
// the per-connection request cap and keep-alive idle timeout bound the
// connection's lifetime.
//
// Handler.Attach (serve.go) wires this logic onto an eventlib.Base — the
// listener's accept event, a persistent read event per connection, the
// idle-sweep timer — so the servers own no dispatch loops of their own. What
// still differentiates them (which mechanism backs the base, per-event cost
// wrappers, post-accept reads for edge-style delivery, mode-switch policy)
// plugs in through ServeConfig and the base's configuration.
package httpcore

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rcache"
	"repro/internal/simkernel"
)

// WriteMode selects how a response's header and body reach the socket.
type WriteMode int

const (
	// WriteWritev coalesces header and body into one vectored write: a single
	// syscall charged over the combined length — exactly what the historical
	// single-buffer write path charged, so it is the default.
	WriteWritev WriteMode = iota
	// WriteCopy issues two separate write() calls (header, then body): the
	// naive server's extra kernel entry, for the write-path ablation.
	WriteCopy
	// WriteSendfile writes the header and transfers the body zero-copy with
	// sendfile(2): charged per page with the user-space copy skipped.
	WriteSendfile
)

// String renders the mode for figure labels and flags.
func (m WriteMode) String() string {
	switch m {
	case WriteCopy:
		return "copy"
	case WriteSendfile:
		return "sendfile"
	default:
		return "writev"
	}
}

// ParseWriteMode parses a -write-path flag value.
func ParseWriteMode(s string) (WriteMode, error) {
	switch s {
	case "", "writev":
		return WriteWritev, nil
	case "copy":
		return WriteCopy, nil
	case "sendfile":
		return WriteSendfile, nil
	}
	return WriteWritev, fmt.Errorf("httpcore: unknown write mode %q (want writev, copy or sendfile)", s)
}

// DefaultPipelineBatch bounds how many buffered pipelined requests one
// readable dispatch serves when Options.PipelineBatch is zero: enough to
// amortise the dispatch, small enough that one deep pipeline cannot starve
// the other ready descriptors in the batch.
const DefaultPipelineBatch = 4

// Options bundles the persistent-connection features shared by every server
// family. The zero value is the historical behaviour — HTTP/1.0, close after
// one response, no cache, single combined write — and charges exactly what
// the pre-keep-alive implementation charged, which is what keeps the existing
// figures byte-identical.
type Options struct {
	// KeepAlive honours the request's persistence negotiation (HTTP/1.1
	// default-persistent, HTTP/1.0 opt-in via Connection: keep-alive) instead
	// of closing after every response.
	KeepAlive bool
	// MaxRequests caps how many requests one connection may serve before the
	// server closes it (real thttpd's defense against connection hogging);
	// zero means unlimited.
	MaxRequests int
	// KeepAliveIdle closes a persistent connection that stays idle between
	// requests this long. It rides the per-connection event timeout on the
	// eventlib timer wheel, so it costs one wheel entry per connection and
	// re-arms automatically with each activity. Zero disables it (the coarse
	// SweepIdle path still applies when IdleTimeout is set).
	KeepAliveIdle core.Duration
	// PipelineBatch bounds pipelined requests served per readable dispatch;
	// zero selects DefaultPipelineBatch.
	PipelineBatch int
	// CacheKB sizes the mmap response cache in kilobytes; zero disables the
	// cache and its charges entirely.
	CacheKB int
	// WriteMode selects the response write path.
	WriteMode WriteMode
}

// CloseReason explains why the server closed a connection.
type CloseReason int

// Close reasons, tallied in Stats.
const (
	CloseServed CloseReason = iota // response written
	CloseBadRequest
	CloseEOF // client closed before sending a complete request
	CloseIdle
	CloseShutdown
	// CloseReset: the peer reset the connection (ECONNRESET on read or EPIPE
	// on write); any response in flight is discarded.
	CloseReset
)

// Stats tallies server-side application events.
type Stats struct {
	Accepted    int64
	Served      int64
	NotFound    int64
	BadRequests int64
	EOFCloses   int64
	IdleCloses  int64
	Closed      int64
	BytesSent   int64
	// KeptAlive counts responses after which the connection stayed open.
	KeptAlive int64
	// Pushed counts server-originated pushes (Push calls that wrote bytes).
	Pushed int64
	// CacheHits / CacheMisses count response-cache lookups (zero without a
	// cache).
	CacheHits   int64
	CacheMisses int64
	// Resets counts connections torn down because the peer reset them
	// (ECONNRESET/EPIPE under the fault plane).
	Resets int64
	// EmfileSheds counts connections drained and immediately closed through
	// the reserve-descriptor trick while accept was failing with EMFILE.
	EmfileSheds int64
	// AcceptBackoffs counts paced accept-retry timers armed after accept
	// stalled (EMFILE or an injected EAGAIN).
	AcceptBackoffs int64
}

// Add accumulates o into s, field by field: the server-wide view of several
// workers' handlers.
func (s *Stats) Add(o Stats) {
	s.Accepted += o.Accepted
	s.Served += o.Served
	s.NotFound += o.NotFound
	s.BadRequests += o.BadRequests
	s.EOFCloses += o.EOFCloses
	s.IdleCloses += o.IdleCloses
	s.Closed += o.Closed
	s.BytesSent += o.BytesSent
	s.KeptAlive += o.KeptAlive
	s.Pushed += o.Pushed
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Resets += o.Resets
	s.EmfileSheds += o.EmfileSheds
	s.AcceptBackoffs += o.AcceptBackoffs
}

// Conn is the per-connection state a server keeps. Closed connections return
// to a pool on the handler, and the embedded parser keeps its buffer and
// header-map storage across reuses, so the accept path allocates nothing at
// steady state.
type Conn struct {
	FD     *simkernel.FD
	SC     *netsim.ServerConn
	Parser httpsim.Parser

	OpenedAt     core.Time
	LastActivity core.Time

	// Requests counts requests served on this connection (the keep-alive
	// request cap compares against it).
	Requests int

	// PendingWrite is how many response bytes the socket has not yet accepted
	// (the peer's receive window closed mid-response). While positive the
	// connection is parked on write interest; finishReason records how the
	// connection should be closed once the response finally drains, and
	// keepOpen overrides it for a persistent connection that resumes its
	// pipeline instead of closing. pendingBody is the portion of the
	// remainder that is document body, so a sendfile-mode retry charges the
	// zero-copy rate for it.
	PendingWrite int
	pendingBody  int
	writeBlocked bool
	keepOpen     bool
	finishReason CloseReason

	// reqStart anchors the in-flight request's service-latency observation:
	// connection establishment for a connection's first request (time in the
	// listener backlog counts), the parse-completion dispatch for keep-alive
	// successors.
	reqStart core.Time

	// cachePath names the response-cache entry pinned for the in-flight
	// response; empty when no pin is held.
	cachePath string
}

// Handler implements the application layer of a static-content HTTP/1.0
// server over the simulated socket API. All methods that perform socket calls
// must be invoked from inside a simkernel batch; the servers' event loops
// guarantee this.
type Handler struct {
	K       *simkernel.Kernel
	P       *simkernel.Proc
	API     *netsim.SockAPI
	Content *httpsim.ContentStore

	// IdleTimeout closes connections that have shown no activity for this
	// long; zero disables the sweep. thttpd's connection timeout is what makes
	// the paper's inactive clients reopen their connections.
	IdleTimeout core.Duration

	// Opts selects the persistent-connection features; its zero value is the
	// historical one-request HTTP/1.0 behaviour. Install with SetOptions so
	// the response cache is built alongside.
	Opts Options
	// Cache is the mmap response cache, nil when disabled.
	Cache *rcache.Cache

	// OnConnOpen is called (inside the batch) after a connection is accepted
	// and installed; the server registers the descriptor with its event
	// mechanism here.
	OnConnOpen func(fd int)
	// OnConnClose is called (inside the batch) just before a connection's
	// descriptor is closed; the server unregisters it here.
	OnConnClose func(fd int)
	// OnWriteBlocked is called (inside the batch) when a response write could
	// not complete because the peer's receive window closed; the event loop
	// adds write interest for the descriptor so HandleWritable runs when the
	// window reopens.
	OnWriteBlocked func(fd int)
	// OnWriteDrained is called (inside the batch) when a persistent
	// connection's blocked response finishes draining and the connection
	// stays open; the event loop downgrades the descriptor back to read-only
	// interest.
	OnWriteDrained func(fd int)
	// OnDeferred is called (inside the batch) when a readable dispatch's
	// pipeline budget ran out with at least one more complete request
	// buffered; the event loop schedules a continuation so the remainder is
	// served without waiting for more client bytes.
	OnDeferred func(fd int)
	// OnAcceptStall is called (inside the batch) when an accept pass ended
	// with the queue possibly non-empty — EMFILE with no descriptor headroom,
	// or an injected EAGAIN on an edge-triggered backend whose listener will
	// post no further notification. The event loop arms a paced retry so the
	// queue is re-drained without spinning.
	OnAcceptStall func()

	Conns map[int]*Conn
	Stats Stats

	// reserve is the descriptor held back for the EMFILE accept-drain trick:
	// when accept fails on the descriptor limit, the reserve is closed to make
	// one slot, the pending connection is accepted and immediately closed
	// (shedding it with a clean FIN instead of leaving it to time out in the
	// queue), and the reserve is reopened. Armed by Attach when the fault
	// plane sets an FDLimit.
	reserve *simkernel.FD

	// free recycles Conn records (and their parser storage) across the
	// connection churn of a benchmark run; acceptScratch is AcceptAll's
	// reused result slice.
	free          []*Conn
	acceptScratch []int

	// ServiceLatency is the server-side request-latency histogram: accept to
	// response-fully-written, observed inside the dispatch batch that
	// completes each request. The histogram is embedded (fixed buckets, no
	// allocation per observation) so measuring it never perturbs the run it
	// measures; a multi-worker thttpd merges its workers' histograms into one.
	ServiceLatency metrics.LatencyHist
}

// NewHandler builds a handler with an empty connection table.
func NewHandler(k *simkernel.Kernel, p *simkernel.Proc, api *netsim.SockAPI, content *httpsim.ContentStore) *Handler {
	if content == nil {
		content = httpsim.DefaultContentStore()
	}
	return &Handler{K: k, P: p, API: api, Content: content, Conns: make(map[int]*Conn)}
}

// SetOptions installs the persistent-connection options, building the
// response cache when one is configured. Call it before Attach — the event
// loop reads the keep-alive idle timeout at registration time.
func (h *Handler) SetOptions(opts Options) {
	h.Opts = opts
	h.Cache = nil
	if opts.CacheKB > 0 {
		h.Cache = rcache.New(opts.CacheKB * 1024)
	}
}

// pipelineBudget is the per-dispatch bound on buffered requests served.
func (h *Handler) pipelineBudget() int {
	if h.Opts.PipelineBatch > 0 {
		return h.Opts.PipelineBatch
	}
	return DefaultPipelineBatch
}

// OpenConns returns the open connection descriptors in ascending order.
func (h *Handler) OpenConns() []int {
	out := make([]int, 0, len(h.Conns))
	for fd := range h.Conns {
		out = append(out, fd)
	}
	sort.Ints(out)
	return out
}

// newConn pops a pooled connection record (or allocates one) and initialises
// it for the given descriptor.
func (h *Handler) newConn(now core.Time, fd *simkernel.FD, sc *netsim.ServerConn) *Conn {
	var c *Conn
	if n := len(h.free); n > 0 {
		c = h.free[n-1]
		h.free[n-1] = nil
		h.free = h.free[:n-1]
		c.Parser.Reset()
	} else {
		c = &Conn{}
	}
	c.FD, c.SC = fd, sc
	c.OpenedAt, c.LastActivity = now, now
	c.Requests = 0
	c.PendingWrite = 0
	c.pendingBody = 0
	c.writeBlocked = false
	c.keepOpen = false
	c.finishReason = CloseServed
	c.reqStart = now
	c.cachePath = ""
	return c
}

// AcceptAll drains the listener's accept queue, installing a connection for
// each pending client and invoking OnConnOpen. It returns the descriptors of
// the newly accepted connections; edge-style servers (RT signals) use the list
// to perform an immediate read, since data that arrived before registration
// produces no completion signal. The returned slice is reused by the next
// AcceptAll call.
func (h *Handler) AcceptAll(now core.Time, lfd *simkernel.FD) []int {
	accepted := h.acceptScratch[:0]
	for {
		fd, sc, err := h.API.Accept(lfd)
		if err == netsim.ErrMFile && h.reserve != nil {
			// Descriptor limit: drain the queue through the reserve slot,
			// shedding each pending connection with an immediate close.
			if h.shedOverLimit(now, lfd) {
				continue
			}
			break
		}
		if err != nil {
			if h.OnAcceptStall != nil &&
				(h.K.Faults.AcceptEAGAINRate > 0 || (err == netsim.ErrMFile && h.K.Faults.FDLimit > 0)) {
				// The queue may still hold connections no further notification
				// will announce; have the loop retry on a paced timer.
				h.OnAcceptStall()
			}
			break
		}
		h.Stats.Accepted++
		h.Conns[fd.Num] = h.newConn(now, fd, sc)
		accepted = append(accepted, fd.Num)
		if h.OnConnOpen != nil {
			h.OnConnOpen(fd.Num)
		}
	}
	h.acceptScratch = accepted
	return accepted
}

// reserveFile is the dummy file occupying the reserve descriptor (a dup of
// /dev/null in a real server): never ready, never notifies.
type reserveFile struct{}

func (reserveFile) Poll() core.EventMask           { return 0 }
func (reserveFile) SetNotifier(simkernel.Notifier) {}
func (reserveFile) Close(core.Time)                {}

// ArmReserve opens the reserve descriptor for the EMFILE accept-drain trick.
// Attach calls it when the fault plane sets a descriptor limit; it must run
// inside the process's batch.
func (h *Handler) ArmReserve() {
	if h.reserve != nil {
		return
	}
	h.P.ChargeSyscall(0) // open("/dev/null")
	h.reserve = h.P.Install(reserveFile{})
}

// shedOverLimit runs one round of the reserve-descriptor trick: close the
// reserve to free a slot, accept the head of the queue, close it immediately
// (the client sees a clean FIN instead of rotting in the backlog), then reopen
// the reserve. It reports whether a connection was shed; false means the queue
// was empty.
func (h *Handler) shedOverLimit(now core.Time, lfd *simkernel.FD) bool {
	h.P.ChargeSyscall(h.K.Cost.SockClose) // close(reserve)
	_ = h.P.CloseFD(now, h.reserve.Num)
	h.reserve = nil
	fd, _, err := h.API.Accept(lfd)
	shed := err == nil
	if shed {
		h.API.Close(fd)
		h.Stats.EmfileSheds++
	}
	h.ArmReserve()
	return shed
}

// AdoptConn installs state for a connection accepted by a sibling worker and
// passed over (netsim.SockAPI.AcceptDetach / Adopt): the receiving half of a
// prefork handoff. Like AcceptAll it must run inside the adopting process's
// batch, and it invokes OnConnOpen so the worker's event loop registers the
// descriptor. The caller is responsible for the one unprompted read that
// covers request data delivered before the registration existed.
func (h *Handler) AdoptConn(now core.Time, fd *simkernel.FD, sc *netsim.ServerConn) {
	h.Stats.Accepted++
	h.Conns[fd.Num] = h.newConn(now, fd, sc)
	if h.OnConnOpen != nil {
		h.OnConnOpen(fd.Num)
	}
}

// HandleReadable processes a readability event on a connection: it reads
// whatever is buffered, advances the request parser and serves what completed
// — one request-then-close in HTTP/1.0 mode, up to the pipeline budget on a
// persistent connection. Events for unknown descriptors (stale RT signals,
// for example) are ignored, as the paper notes real servers must do.
func (h *Handler) HandleReadable(now core.Time, fd int) {
	c, ok := h.Conns[fd]
	if !ok {
		return
	}
	data, eof := h.API.Read(c.FD, 0)
	if len(data) > 0 {
		c.LastActivity = now
		if c.writeBlocked && h.Opts.KeepAlive {
			// A parked response owns the socket's write side; buffer the new
			// requests for the resume pump (sticky parse errors surface there
			// too) and keep the receive buffer drained.
			_, _ = c.Parser.Feed(data)
			return
		}
		if !h.pump(now, c, data) {
			return // closed, or parked on a blocked response
		}
	}
	h.settle(now, c, eof)
}

// Continue serves requests already buffered on fd without touching the
// socket: the continuation of a pipeline batch whose dispatch budget ran out.
// Unknown descriptors — the connection closed between deferral and
// continuation — are ignored.
func (h *Handler) Continue(now core.Time, fd int) {
	c, ok := h.Conns[fd]
	if !ok || c.writeBlocked {
		return
	}
	if h.pump(now, c, nil) {
		h.settle(now, c, false)
	}
}

// pump is the persistent connection's state machine: feed freshly read bytes
// to the parser, then serve complete requests until the connection closes,
// the pipeline budget runs out, a response jams against the peer's window, or
// no complete request remains. It reports whether the connection is still
// open with no response in flight.
func (h *Handler) pump(now core.Time, c *Conn, data []byte) bool {
	complete, err := c.Parser.Feed(data)
	for budget := h.pipelineBudget(); ; budget-- {
		if err != nil {
			h.respondError(c, httpsim.StatusBadReq)
			h.finishResponse(now, c, CloseBadRequest)
			return false
		}
		if !complete {
			return true
		}
		if budget <= 0 {
			// Fairness: another request is ready but this dispatch's budget
			// is spent. Defer the remainder so one deep pipeline cannot
			// monopolise the batch.
			if h.OnDeferred != nil {
				h.OnDeferred(c.FD.Num)
			}
			return true
		}
		c.reqStart = now
		if c.Requests == 0 {
			// A connection's first request anchors at establishment (SYN on
			// the accept queue): time spent in the listener backlog counts
			// the same for a server that accepts eagerly and one that
			// accepts only once data has arrived.
			c.reqStart = c.OpenedAt
			if c.SC != nil && c.SC.EstablishedAt > 0 {
				c.reqStart = c.SC.EstablishedAt
			}
		}
		keep := h.serve(c)
		c.Requests++
		if !keep {
			h.finishResponse(now, c, CloseServed)
			return false
		}
		h.Stats.KeptAlive++
		complete, err = c.Parser.Consume()
		if c.PendingWrite > 0 {
			// The response jammed against the peer's receive window
			// mid-pipeline: park on write interest. Requests already
			// buffered resume from HandleWritable once the window reopens.
			c.keepOpen = true
			c.writeBlocked = true
			c.finishReason = CloseServed
			if h.OnWriteBlocked != nil {
				h.OnWriteBlocked(c.FD.Num)
			}
			return false
		}
		h.bookServed(now, c)
	}
}

// settle closes the connection once the peer is gone. In the historical
// HTTP/1.0 mode an observed EOF closes unconditionally, exactly as before. A
// persistent connection additionally checks the socket directly — its FIN may
// have been consumed by an earlier dispatch whose budget deferred the final
// requests. Requests still buffered at EOF are discarded, not served: our
// clients only half-close after the final reply, so a FIN with requests
// outstanding means the client is dead, and a real server would hit RST/EPIPE
// on the next write rather than stream responses into the void. Serving those
// zombie pipelines is what collapses a keep-alive server under overload —
// most of its capacity goes to clients that already timed out.
func (h *Handler) settle(now core.Time, c *Conn, eof bool) {
	if c.SC != nil && c.SC.ResetPeer() {
		// ECONNRESET: the peer slammed the connection shut. Whatever the
		// parser has buffered is a dead pipeline; unwind immediately.
		h.abortReset(c)
		return
	}
	if !h.Opts.KeepAlive {
		if eof {
			// The client went away before completing its request.
			h.closeConn(c, CloseEOF)
		}
		return
	}
	if !eof {
		eof = c.SC != nil && c.SC.PeerClosed() && c.SC.Buffered() == 0
	}
	if eof {
		h.closeConn(c, CloseEOF)
	}
}

// bookServed records a completed keep-alive exchange — the response fully
// accepted by the socket — without closing the connection.
func (h *Handler) bookServed(now core.Time, c *Conn) {
	h.ServiceLatency.Observe(now.Sub(c.reqStart))
	h.releaseCache(c)
}

// releaseCache drops the pin taken for the in-flight response, if any.
func (h *Handler) releaseCache(c *Conn) {
	if c.cachePath != "" {
		h.Cache.Release(c.cachePath)
		c.cachePath = ""
	}
}

// Push writes an n-byte server-originated payload to connection fd with no
// pending request — the fan-out path of a push/chat server, where the server,
// not the client, decides when bytes flow. Must run inside the process's
// batch. If the peer's receive window accepts only part of the payload the
// remainder parks on write interest exactly like a blocked response:
// OnWriteBlocked arms write interest via the event loop with no read pending,
// and HandleWritable drains the tail and downgrades back to read-only
// interest when the window reopens. Pushes to unknown descriptors or to a
// connection still draining an earlier write report false and write nothing.
func (h *Handler) Push(now core.Time, fd int, n int) bool {
	c, ok := h.Conns[fd]
	if !ok || n <= 0 || c.PendingWrite > 0 {
		return false
	}
	wrote := h.API.Write(c.FD, n)
	h.Stats.BytesSent += int64(wrote)
	h.Stats.Pushed++
	c.LastActivity = now
	if wrote < n {
		// reqStart anchors the drain observation bookServed makes when the
		// tail finally clears: push-initiation to fully-written.
		c.reqStart = now
		c.PendingWrite = n - wrote
		c.pendingBody = 0
		c.writeBlocked = true
		c.keepOpen = true
		c.finishReason = CloseServed
		if h.OnWriteBlocked != nil {
			h.OnWriteBlocked(c.FD.Num)
		}
	}
	return true
}

// HandleWritable processes a writability event on a connection whose response
// jammed against the peer's receive window: it retries the blocked tail and,
// once the response has fully drained, either closes the connection with the
// reason recorded when the write first blocked or — on a persistent
// connection — books the exchange, downgrades back to read interest and
// resumes the parked pipeline. Events for unknown descriptors or connections
// with nothing pending are ignored.
func (h *Handler) HandleWritable(now core.Time, fd int) {
	c, ok := h.Conns[fd]
	if !ok || c.PendingWrite <= 0 {
		return
	}
	wrote := h.retryWrite(c)
	if wrote <= 0 {
		if c.SC != nil && c.SC.ResetPeer() {
			// EPIPE: the parked response can never drain. Discard it and
			// unwind mid-partial-write — the close below releases the cache
			// pin, the event registration and the descriptor.
			h.abortReset(c)
		}
		return
	}
	h.Stats.BytesSent += int64(wrote)
	c.PendingWrite -= wrote
	if c.pendingBody > c.PendingWrite {
		c.pendingBody = c.PendingWrite
	}
	c.LastActivity = now
	if c.PendingWrite > 0 || !c.writeBlocked {
		return
	}
	c.writeBlocked = false
	if !c.keepOpen {
		h.completeResponse(now, c, c.finishReason)
		return
	}
	c.keepOpen = false
	h.bookServed(now, c)
	if h.OnWriteDrained != nil {
		h.OnWriteDrained(c.FD.Num)
	}
	if h.pump(now, c, nil) {
		h.settle(now, c, false)
	}
}

// abortReset unwinds a connection whose peer reset it: any blocked response
// is discarded (there is no one left to drain it) and the connection closes
// through the ordinary path, releasing its cache pin, event registration,
// descriptor and pooled record.
func (h *Handler) abortReset(c *Conn) {
	c.PendingWrite, c.pendingBody = 0, 0
	c.writeBlocked, c.keepOpen = false, false
	h.closeConn(c, CloseReset)
}

// retryWrite pushes the blocked remainder into the socket. The copy and
// vectored paths retry with a plain write; sendfile mode keeps charging the
// zero-copy rate for the body portion of the remainder.
func (h *Handler) retryWrite(c *Conn) int {
	if h.Opts.WriteMode != WriteSendfile || c.pendingBody <= 0 {
		return h.API.Write(c.FD, c.PendingWrite)
	}
	headLeft := c.PendingWrite - c.pendingBody
	wrote := 0
	if headLeft > 0 {
		wrote = h.API.Write(c.FD, headLeft)
		if wrote < headLeft {
			return wrote
		}
	}
	return wrote + h.API.Sendfile(c.FD, c.pendingBody)
}

// finishResponse closes the connection if its response was fully accepted by
// the socket, or parks it on write interest until the peer's window reopens.
func (h *Handler) finishResponse(now core.Time, c *Conn, reason CloseReason) {
	if c.PendingWrite > 0 {
		c.writeBlocked = true
		c.finishReason = reason
		if h.OnWriteBlocked != nil {
			h.OnWriteBlocked(c.FD.Num)
		}
		return
	}
	h.completeResponse(now, c, reason)
}

// completeResponse books the end of a request-response exchange: the
// service-latency observation and the connection close. reqStart was anchored
// when the request entered service (connection establishment for a
// connection's first request, so time in the listener backlog counts).
func (h *Handler) completeResponse(now core.Time, c *Conn, reason CloseReason) {
	if reason == CloseServed {
		h.ServiceLatency.Observe(now.Sub(c.reqStart))
	}
	h.closeConn(c, reason)
}

// serve writes the response for the parsed request and reports whether the
// connection persists afterwards (keep-alive negotiated and under the request
// cap). Error responses always close.
func (h *Handler) serve(c *Conn) (keep bool) {
	req := c.Parser.Request()
	// The application-level work of serving a request: parse, map the URL,
	// locate the cached document, build headers.
	h.P.Charge(h.K.Cost.HTTPService)
	size, ok := h.Content.Lookup(req.Path)
	if !ok {
		h.Stats.NotFound++
		h.respondError(c, httpsim.StatusNotFound)
		return false
	}
	keep = h.persistAfter(c, req)
	head := httpsim.ResponseSizeVersion(httpsim.StatusOK, size, keep) - size
	h.chargeFileAccess(c, req.Path, size)
	h.writeResponse(c, head, size)
	h.Stats.Served++
	return keep
}

// persistAfter decides whether the connection survives the response being
// served: keep-alive enabled, the per-connection cap not yet reached, and the
// request negotiated persistence.
func (h *Handler) persistAfter(c *Conn, req *httpsim.Request) bool {
	if !h.Opts.KeepAlive {
		return false
	}
	if h.Opts.MaxRequests > 0 && c.Requests+1 >= h.Opts.MaxRequests {
		return false
	}
	return req.KeepAlive()
}

// chargeFileAccess charges the document-access asymmetry of the response
// cache: a hit touches the resident mapping, a miss opens the file and faults
// its pages in. Without a cache nothing is charged — the flat HTTPService
// constant already folds in the historical document access, which keeps the
// no-cache figures byte-identical.
func (h *Handler) chargeFileAccess(c *Conn, path string, size int) {
	if h.Cache == nil {
		return
	}
	pages, hit := h.Cache.Acquire(path, size)
	c.cachePath = path
	if hit {
		h.Stats.CacheHits++
		h.P.Charge(h.K.Cost.CacheHit)
		return
	}
	h.Stats.CacheMisses++
	h.P.Charge(h.K.Cost.FileOpen + core.Duration(pages)*h.K.Cost.FileReadPage)
}

// respondError writes a minimal error response (always Connection: close).
func (h *Handler) respondError(c *Conn, status int) {
	h.P.Charge(h.K.Cost.HTTPService / 4)
	h.writeResponse(c, httpsim.ResponseSize(status, 0), 0)
	if status == httpsim.StatusBadReq {
		h.Stats.BadRequests++
	}
}

// writeResponse pushes a head+body response into the socket along the
// configured write path, recording any blocked remainder on the connection.
// With the paper's always-draining clients the whole response is accepted in
// one call and PendingWrite stays zero. The default vectored path charges one
// syscall over the combined length — exactly the historical single-buffer
// write.
func (h *Handler) writeResponse(c *Conn, head, body int) {
	var wrote int
	switch {
	case h.Opts.WriteMode == WriteCopy && body > 0:
		wrote = h.API.Write(c.FD, head)
		if wrote == head {
			wrote += h.API.Write(c.FD, body)
		}
	case h.Opts.WriteMode == WriteSendfile && body > 0:
		wrote = h.API.Write(c.FD, head)
		if wrote == head {
			wrote += h.API.Sendfile(c.FD, body)
		}
	default:
		wrote = h.API.Writev(c.FD, head, body)
	}
	h.Stats.BytesSent += int64(wrote)
	c.PendingWrite = head + body - wrote
	c.pendingBody = body
	if c.pendingBody > c.PendingWrite {
		c.pendingBody = c.PendingWrite
	}
}

// CloseIdle closes a persistent connection whose keep-alive idle timeout
// fired — unless work is outstanding: a response still draining, or request
// bytes already buffered in the parser or on the socket (a request racing the
// timeout wins, matching a real server that checks for input before closing).
func (h *Handler) CloseIdle(now core.Time, fd int) {
	c, ok := h.Conns[fd]
	if !ok {
		return
	}
	if c.PendingWrite > 0 || c.Parser.Buffered() > 0 || (c.SC != nil && c.SC.Buffered() > 0) {
		return
	}
	h.closeConn(c, CloseIdle)
}

// CloseConn closes the connection for descriptor fd with the given reason, if
// it is still open.
func (h *Handler) CloseConn(now core.Time, fd int, reason CloseReason) {
	if c, ok := h.Conns[fd]; ok {
		h.closeConn(c, reason)
	}
}

func (h *Handler) closeConn(c *Conn, reason CloseReason) {
	// The identity check (not just presence) keeps a stale double-close from
	// tearing down a pooled record that has since been reissued for a new
	// connection on a recycled descriptor number.
	if cur, ok := h.Conns[c.FD.Num]; !ok || cur != c {
		return
	}
	h.releaseCache(c)
	if h.OnConnClose != nil {
		h.OnConnClose(c.FD.Num)
	}
	delete(h.Conns, c.FD.Num)
	h.API.Close(c.FD)
	c.FD, c.SC = nil, nil
	h.free = append(h.free, c)
	h.Stats.Closed++
	switch reason {
	case CloseEOF:
		h.Stats.EOFCloses++
	case CloseIdle:
		h.Stats.IdleCloses++
	case CloseReset:
		h.Stats.Resets++
	}
}

// SweepIdle closes connections that have been inactive longer than
// IdleTimeout and returns how many were closed. thttpd performs this from its
// timer callbacks; the simulated servers call it when their wait times out.
func (h *Handler) SweepIdle(now core.Time) int {
	if h.IdleTimeout <= 0 {
		return 0
	}
	var victims []*Conn
	for _, c := range h.Conns {
		if now.Sub(c.LastActivity) >= h.IdleTimeout {
			victims = append(victims, c)
		}
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].FD.Num < victims[j].FD.Num })
	for _, c := range victims {
		h.closeConn(c, CloseIdle)
	}
	return len(victims)
}

// CloseAll tears down every open connection (server shutdown).
func (h *Handler) CloseAll(now core.Time) {
	for _, fd := range h.OpenConns() {
		h.CloseConn(now, fd, CloseShutdown)
	}
}
