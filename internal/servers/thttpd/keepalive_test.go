package thttpd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// startHTTP builds a running thttpd with the given persistent-connection
// options, the idle sweep disabled so only the keep-alive machinery closes
// connections.
func startHTTP(t *testing.T, opts httpcore.Options) (*simkernel.Kernel, *netsim.Network, *Server) {
	t.Helper()
	k := simkernel.NewKernel(nil)
	n := netsim.New(k, netsim.DefaultConfig())
	cfg := DefaultConfig()
	cfg.IdleTimeout = 0
	cfg.HTTP = opts
	s := New(k, n, cfg)
	s.Start()
	k.Sim.RunUntil(core.Time(10 * core.Millisecond))
	return k, n, s
}

// TestKeepAlivePipelinedEndToEnd drives a deep pipeline through the full
// event loop: one readable dispatch serves a budget's worth, the zero-delay
// resume timer continues the rest, and the final Connection: close request
// tears the connection down.
func TestKeepAlivePipelinedEndToEnd(t *testing.T) {
	k, n, s := startHTTP(t, httpcore.Options{KeepAlive: true})

	var payload []byte
	for i := 0; i < 8; i++ {
		payload = append(payload, httpsim.FormatRequest11("/index.html", false)...)
	}
	payload = append(payload, httpsim.FormatRequest11("/index.html", true)...)

	p := &probe{}
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { p.bytes += b },
		OnPeerClosed: func(core.Time) { p.closed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) { cc.Send(now, payload) })
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	st := s.Stats()
	if st.Served != 9 || st.KeptAlive != 8 || st.Closed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	ka := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true)
	cl := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, false)
	if want := 8*ka + cl; p.bytes != want || !p.closed {
		t.Fatalf("probe = %+v, want %d bytes and closed", p, want)
	}
	if s.OpenConnections() != 0 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
	// One latency observation per request, not per connection.
	if lat := s.ServiceLatency(); lat.Count() != 9 {
		t.Fatalf("latency observations = %d", lat.Count())
	}
}

// TestKeepAliveIdleTimeoutEndToEnd: a persistent connection that goes quiet
// is closed by the per-connection wheel timeout, while one that keeps
// issuing requests inside the idle window survives until its close request.
func TestKeepAliveIdleTimeoutEndToEnd(t *testing.T) {
	k, n, s := startHTTP(t, httpcore.Options{KeepAlive: true, KeepAliveIdle: 500 * core.Millisecond})

	quiet := &probe{}
	qc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { quiet.bytes += b },
		OnPeerClosed: func(core.Time) { quiet.closed = true },
	})
	k.Sim.After(core.Millisecond, func(now core.Time) {
		qc.Send(now, httpsim.FormatRequest11("/index.html", false))
	})

	busy := &probe{}
	bc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { busy.bytes += b },
		OnPeerClosed: func(core.Time) { busy.closed = true },
	})
	// Requests every 300 ms stay inside the 500 ms idle window; the last one
	// closes voluntarily at t=1.2s, after the quiet connection has timed out.
	for i, at := range []core.Duration{core.Millisecond, 300 * core.Millisecond, 600 * core.Millisecond, 900 * core.Millisecond} {
		last := i == 3
		k.Sim.After(at, func(now core.Time) {
			bc.Send(now, httpsim.FormatRequest11("/index.html", last))
		})
	}

	k.Sim.RunUntil(core.Time(3 * core.Second))
	s.Stop()

	st := s.Stats()
	if st.Served != 5 || st.IdleCloses != 1 || st.Closed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if !quiet.closed {
		t.Fatal("idle connection not closed by the keep-alive timeout")
	}
	ka := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true)
	cl := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, false)
	if want := 3*ka + cl; busy.bytes != want || !busy.closed {
		t.Fatalf("busy probe = %+v, want %d bytes", busy, want)
	}
	if s.OpenConnections() != 0 {
		t.Fatalf("open connections = %d", s.OpenConnections())
	}
}

// TestKeepAliveWithCacheAndSendfileEndToEnd: the full persistent hot path —
// keep-alive, response cache and sendfile — serves repeat requests with hit
// charges and closes cleanly.
func TestKeepAliveWithCacheAndSendfileEndToEnd(t *testing.T) {
	k, n, s := startHTTP(t, httpcore.Options{
		KeepAlive: true,
		CacheKB:   64,
		WriteMode: httpcore.WriteSendfile,
	})

	p := &probe{}
	cc := n.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
		OnData:       func(_ core.Time, b int) { p.bytes += b },
		OnPeerClosed: func(core.Time) { p.closed = true },
	})
	var payload []byte
	for i := 0; i < 3; i++ {
		payload = append(payload, httpsim.FormatRequest11("/index.html", i == 2)...)
	}
	k.Sim.After(core.Millisecond, func(now core.Time) { cc.Send(now, payload) })
	k.Sim.RunUntil(core.Time(2 * core.Second))
	s.Stop()

	st := s.Stats()
	if st.Served != 3 || st.CacheMisses != 1 || st.CacheHits != 2 {
		t.Fatalf("stats = %+v", st)
	}
	ka := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, true)
	cl := httpsim.ResponseSizeVersion(httpsim.StatusOK, httpsim.DefaultDocumentSize, false)
	if want := 2*ka + cl; p.bytes != want || !p.closed {
		t.Fatalf("probe = %+v, want %d bytes", p, want)
	}
}
