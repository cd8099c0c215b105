package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// listenBacklog replaces netsim's 128-entry accept queue in every workload.
// With the paper's 128, the inactive population's synchronised reconnects
// after each idle sweep refuse about one benchmark connection per 30 virtual
// seconds at any offered rate; the benchmark's workloads are chosen so that no
// operation fails, and a modern Linux accept queue (SOMAXCONN is 4096 since
// 5.4) absorbs the burst.
const listenBacklog = 1024

// workload is one benchmark traffic mix: a family of server kinds over one
// eventlib backend, driven by an open-loop simulated client at a fixed
// offered rate. size is the connection (or request, or member) count a
// benchmark run uses; tests build the same spec at a smaller size.
type workload struct {
	name    string
	family  string // server-kind prefix: "thttpd" or "push"
	backend string // the eventlib backend the server runs on
	size    int
	spec    func(size int) experiments.RunSpec
}

var workloads = []workload{
	{
		// HTTP/1.0 at 1000 req/s: every request pays connect, accept and
		// close plus a 61 s TIME-WAIT timer, so the event queue is deep and
		// per-connection allocation and accounting dominate, while epoll
		// keeps the mechanism cheap.
		name: "conn-churn", family: "thttpd", backend: "epoll", size: 150000,
		spec: func(n int) experiments.RunSpec {
			return experiments.RunSpec{
				RequestRate: 1000, Inactive: 251, Connections: n,
				Network: network(2*n + 100000),
			}
		},
	},
	{
		// The paper's cost, fig 8 near the knee: each poll() walks about 500
		// idle descriptors to find one ready one, while the queue and the
		// connection count stay small.
		name: "poll-scan", family: "thttpd", backend: "poll", size: 60000,
		spec: func(n int) experiments.RunSpec {
			return experiments.RunSpec{
				RequestRate: 400, Inactive: 501, Connections: n,
				Network: network(0),
			}
		},
	},
	{
		// The persistent-connection hot path of figs 32-35: eight pipelined
		// keep-alive requests per connection served from a 64 KB cache with
		// sendfile. Connections counts requests here.
		name: "keepalive-cached", family: "thttpd", backend: "epoll", size: 500000,
		spec: func(n int) experiments.RunSpec {
			return experiments.RunSpec{
				RequestRate: 1300, Inactive: 501, Connections: n,
				Network: network(0),
				HTTP: httpcore.Options{
					KeepAlive: true, CacheKB: 64, WriteMode: httpcore.WriteSendfile,
				},
				Client: loadgen.ClientProfile{RequestsPerConn: 8, PipelineDepth: 8},
			}
		},
	},
	{
		// Fig 37's anchor: a huge idle member set and server-originated
		// writes instead of parsed reads. Connections counts members, and the
		// run delivers as many pushes at 1000/s.
		name: "idle-push", family: "push", backend: "epoll", size: 200000,
		spec: func(n int) experiments.RunSpec {
			return experiments.RunSpec{
				Workload: "push", RequestRate: 1000, Connections: n,
				Network: network(2*n + 100000),
			}
		},
	},
}

// network is the testbed configuration the workloads share; a positive
// portSpace widens the client's ephemeral ports the way the massive-scale
// figures do, so TIME-WAIT never exhausts them.
func network(portSpace int) *netsim.Config {
	cfg := netsim.DefaultConfig()
	cfg.ListenBacklog = listenBacklog
	if portSpace > 0 {
		cfg.PortSpace = portSpace
	}
	return &cfg
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (choices: %s)", name, strings.Join(names, ", "))
}

// plainSpec is the workload at size n and seed on the stock registry backend.
func (w workload) plainSpec(n int, seed int64) experiments.RunSpec {
	spec := w.spec(n)
	spec.Server = experiments.ServerKind(w.family + "-" + w.backend)
	spec.Seed = seed
	return spec
}

// seamSpec is plainSpec routed through the benchmark's registry seam.
func (w workload) seamSpec(n int, seed int64) experiments.RunSpec {
	spec := w.plainSpec(n, seed)
	spec.Server = experiments.ServerKind(w.family + "-" + seamName(w.backend))
	return spec
}

// seamHook, when set, sees every poller the seam backends open, with the
// kernel it was opened on, and returns the poller the server will use.
var seamHook func(k *simkernel.Kernel, p core.Poller) core.Poller

func seamName(backend string) string { return "perfbench-" + backend }

// registerSeam registers a copy of backend under seamName(backend) whose Open
// passes each new poller through seamHook. Servers reach it by name through
// the ordinary registry lookup, so the seam changes no program code.
func registerSeam(backend string) error {
	b, ok := eventlib.Lookup(backend)
	if !ok {
		return eventlib.UnknownBackendError(backend)
	}
	open := b.Open
	b.Name = seamName(backend)
	b.Description = "benchmark seam over " + backend
	b.Open = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
		poller := open(k, p)
		if seamHook != nil {
			return seamHook(k, poller)
		}
		return poller
	}
	eventlib.Register(b)
	return nil
}
