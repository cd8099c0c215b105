// Package experiments ties the substrate together into the paper's
// evaluation: it builds a simulated testbed (kernel, network, one of the
// servers, the httperf-like load generator), runs one benchmark point, and
// provides the figure definitions and sweep drivers that regenerate every
// figure of the paper plus the ablation studies described in DESIGN.md.
package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/eventlib"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/servers/dhtnode"
	"repro/internal/servers/dual"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/pushcore"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

// ServerKind selects the server under test: a server family, optionally
// parameterised by an eventlib backend name ("thttpd-epoll-et",
// "hybrid-epoll"). The set of valid kinds derives from the backend registry —
// see ServerKinds — rather than a hard-coded enumeration.
type ServerKind string

// The paper's four servers plus the backend-parameterised extensions.
const (
	ServerThttpdPoll    ServerKind = "thttpd-poll"     // stock thttpd on stock poll()
	ServerThttpdDevPoll ServerKind = "thttpd-devpoll"  // thttpd modified to use /dev/poll
	ServerPhhttpd       ServerKind = "phhttpd"         // RT-signal phhttpd
	ServerHybrid        ServerKind = "hybrid"          // the paper's hypothetical hybrid
	ServerThttpdEpoll   ServerKind = "thttpd-epoll"    // thttpd on level-triggered epoll
	ServerThttpdEpollET ServerKind = "thttpd-epoll-et" // thttpd on edge-triggered epoll
	ServerThttpdRtsig   ServerKind = "thttpd-rtsig"    // thttpd on the RT signal queue
	ServerHybridEpoll   ServerKind = "hybrid-epoll"    // hybrid with epoll as the bulk poller
	ServerHybridEpollET ServerKind = "hybrid-epoll-et" // hybrid with edge-triggered epoll bulk
	ServerThttpdCompio  ServerKind = "thttpd-compio"   // thttpd on the completion rings
)

// PreforkKind names thttpd run by N worker processes: "prefork-N" runs N
// workers on epoll, "prefork-N-<backend>" on the named eventlib backend. Any
// N >= 1 resolves; ServerKinds lists the power-of-two sizes. "prefork-1-<b>"
// and "thttpd-<b>" name the same server.
func PreforkKind(workers int) ServerKind {
	return ServerKind(fmt.Sprintf("prefork-%d", workers))
}

// bulkCapable reports whether the named backend can serve as the hybrid's
// bulk poller (see eventlib.Backend.Bulk).
func bulkCapable(name string) bool {
	b, ok := eventlib.Lookup(name)
	return ok && name != "" && b.Bulk
}

// ServerKinds lists all selectable servers: the paper's four first, then the
// extensions generated from the backend registry.
func ServerKinds() []ServerKind {
	kinds := []ServerKind{ServerThttpdPoll, ServerThttpdDevPoll, ServerPhhttpd, ServerHybrid}
	for _, b := range eventlib.Backends() {
		if b.Name == "poll" || b.Name == "devpoll" {
			continue // already listed as the paper's thttpd configurations
		}
		kinds = append(kinds, ServerKind("thttpd-"+b.Name))
	}
	for _, b := range eventlib.Backends() {
		if b.Name == "devpoll" || !bulkCapable(b.Name) {
			continue // plain "hybrid" is the devpoll-bulk configuration
		}
		kinds = append(kinds, ServerKind("hybrid-"+b.Name))
	}
	for _, n := range []int{1, 2, 4, 8} {
		kinds = append(kinds, PreforkKind(n))
	}
	// The millions-mostly-idle families: the server-push daemon and the
	// datagram rendezvous node, each on any registered backend.
	for _, b := range eventlib.Backends() {
		kinds = append(kinds, ServerKind("push-"+b.Name))
	}
	for _, b := range eventlib.Backends() {
		kinds = append(kinds, ServerKind("dht-"+b.Name))
	}
	return kinds
}

// resolvedKind is a parsed ServerKind: the family plus the backend that
// parameterises it (the per-worker event backend for thttpd, the fallback
// poller for phhttpd and hybrid) and, for thttpd, the worker count. The
// thttpd-<b> and prefork-N[-<b>] spellings both resolve to the thttpd family.
type resolvedKind struct {
	family  string
	backend string
	workers int
}

// resolveKind parses and validates kind against the family set and the
// eventlib backend registry. The empty kind selects the paper's baseline,
// thttpd on stock poll().
func resolveKind(kind ServerKind) (resolvedKind, error) {
	s := string(kind)
	if s == "" {
		s = string(ServerThttpdPoll)
	}
	switch {
	case s == "phhttpd":
		return resolvedKind{family: "phhttpd", backend: "poll"}, nil
	case s == "hybrid":
		return resolvedKind{family: "hybrid", backend: "devpoll"}, nil
	case strings.HasPrefix(s, "thttpd-"):
		name := strings.TrimPrefix(s, "thttpd-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "thttpd", backend: name, workers: 1}, nil
		}
	case strings.HasPrefix(s, "hybrid-"):
		name := strings.TrimPrefix(s, "hybrid-")
		if _, ok := eventlib.Lookup(name); ok && bulkCapable(name) {
			return resolvedKind{family: "hybrid", backend: name}, nil
		}
	case strings.HasPrefix(s, "push-"):
		name := strings.TrimPrefix(s, "push-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "push", backend: name}, nil
		}
	case strings.HasPrefix(s, "dht-"):
		name := strings.TrimPrefix(s, "dht-")
		if _, ok := eventlib.Lookup(name); ok {
			return resolvedKind{family: "dht", backend: name}, nil
		}
	case strings.HasPrefix(s, "prefork-"):
		rest := strings.TrimPrefix(s, "prefork-")
		count, backend := rest, "epoll"
		if i := strings.IndexByte(rest, '-'); i >= 0 {
			count, backend = rest[:i], rest[i+1:]
		}
		n, err := strconv.Atoi(count)
		if err != nil || n < 1 || n > 64 {
			break
		}
		if _, ok := eventlib.Lookup(backend); ok {
			return resolvedKind{family: "thttpd", backend: backend, workers: n}, nil
		}
	}
	return resolvedKind{}, unknownServerKindError(kind)
}

// unknownServerKindError is the single source of the listed-choices error for
// server kinds, mirroring eventlib's for backends.
func unknownServerKindError(kind ServerKind) error {
	names := make([]string, 0, len(ServerKinds()))
	for _, k := range ServerKinds() {
		names = append(names, string(k))
	}
	return fmt.Errorf("experiments: unknown server kind %q (choices: %s)",
		kind, strings.Join(names, ", "))
}

// ValidateServerKind reports whether kind names a runnable server, returning
// the listed-choices error otherwise. Command-line tools call it before
// building specs.
func ValidateServerKind(kind ServerKind) error {
	_, err := resolveKind(kind)
	return err
}

// RetargetKind re-parameterises kind onto the named eventlib backend: thttpd
// kinds switch their event backend (keeping the prefork-N spelling), hybrid
// kinds switch their bulk poller when the backend is bulk-capable, and other
// kinds (phhttpd, a hybrid asked for a non-bulk backend) are returned
// unchanged. Unknown backend names produce the registry's listed-choices
// error.
func RetargetKind(kind ServerKind, backend string) (ServerKind, error) {
	if _, ok := eventlib.Lookup(backend); !ok {
		return kind, eventlib.UnknownBackendError(backend)
	}
	rk, err := resolveKind(kind)
	if err != nil {
		return kind, err
	}
	switch rk.family {
	case "thttpd":
		if !strings.HasPrefix(string(kind), "prefork-") {
			return ServerKind("thttpd-" + backend), nil
		}
		if backend == "epoll" {
			return PreforkKind(rk.workers), nil
		}
		return ServerKind(fmt.Sprintf("prefork-%d-%s", rk.workers, backend)), nil
	case "push":
		return ServerKind("push-" + backend), nil
	case "dht":
		return ServerKind("dht-" + backend), nil
	case "hybrid":
		if backend == "devpoll" {
			return ServerHybrid, nil
		}
		if bulkCapable(backend) {
			return ServerKind("hybrid-" + backend), nil
		}
	}
	return kind, nil
}

// RunSpec describes one benchmark point: one server, one offered rate, one
// inactive-connection load.
type RunSpec struct {
	Server      ServerKind
	RequestRate float64
	Inactive    int
	// Connections is the number of benchmark connections (the paper uses
	// 35000; the test and bench defaults scale this down, which preserves the
	// curve shapes because the run is long enough to reach steady state).
	// When Client.RequestsPerConn > 1 it counts offered requests instead: the
	// run launches Connections/RequestsPerConn persistent connections, so the
	// total work and issue window match an HTTP/1.0 run of the same spec.
	Connections int
	Seed        int64
	// Workload names the loadgen workload scenario (arrival process,
	// background-population behavior, RTT distribution); empty selects the
	// paper's constant workload. See loadgen.Workloads.
	Workload string

	// HTTP selects the server's persistent-connection features (keep-alive,
	// pipelining budget, response cache, write path) for every family; the
	// zero value is the historical one-request HTTP/1.0 server.
	HTTP httpcore.Options
	// Client holds the per-client knobs (requests per connection, pipeline
	// depth, patience, RTTs, jitter, retry). Its non-zero fields are laid over
	// loadgen.DefaultConfig's profile and the scaled-run timeout; the zero
	// value is the paper's one-request HTTP/1.0 client.
	Client loadgen.ClientProfile

	// FanoutSize overrides the push workload's per-tick fan-out (push-* server
	// kinds); zero keeps the workload's own value. The push server's tick
	// interval derives from it: FanoutSize pushes per tick at RequestRate
	// deliveries per second overall.
	FanoutSize int
	// ChurnRate overrides the churn workload's peer join rate in peers/second
	// (dht-* server kinds); zero keeps the workload's own value.
	ChurnRate float64

	// Faults configures the deterministic fault-injection plane (EINTR storms,
	// spurious EAGAIN, a descriptor limit, connection resets, vanishing
	// peers). The zero value injects nothing and charges nothing, leaving
	// every fault-free figure byte-identical.
	Faults faults.Config

	// Cost optionally overrides the calibrated cost model (ablations).
	Cost *simkernel.CostModel
	// Network optionally overrides the testbed configuration.
	Network *netsim.Config
	// OpenPoller, when non-nil, replaces the registry's poller for the
	// kind's backend: every thttpd worker's event poller, or the fallback
	// poller of phhttpd and the hybrid. The ablations build option variants
	// (/dev/poll without hints, compio with another SQ size) this way; thttpd
	// reads the override's delivery style from the registry entry its Name
	// names.
	OpenPoller func(*simkernel.Kernel, *simkernel.Proc) core.Poller
	// Dual optionally overrides the RT-signal server configuration of the
	// phhttpd and hybrid[-<b>] kinds; nil runs DualConfig(Server). The
	// policy and fallback backend always come from the kind.
	Dual *dual.Config
	// PreforkMode selects how thttpd's workers receive connections
	// (reuseport by default; handoff for the single-acceptor comparison).
	PreforkMode thttpd.Mode

	// Threads is the number of OS threads driving the simulation. 1 (or 0)
	// selects the sequential engine; N >= 2 shards the event kernel into one
	// lane per simulated CPU plus a driver lane, synchronised by RTT
	// lookahead, and runs it on N goroutines. Figures are byte-identical
	// across thread counts. Configurations the sharded engine cannot host
	// (round-robin listener sharding, thttpd's handoff mode, a TIME-WAIT
	// shorter than the lookahead window) silently run sequentially.
	Threads int

	// MaxVirtualTime caps the simulated run as a safety net; zero selects a
	// generous default derived from the workload.
	MaxVirtualTime core.Duration
}

// DefaultSpec returns a spec for the given server, rate and inactive load with
// a reduced connection count suitable for tests and benchmarks.
func DefaultSpec(server ServerKind, rate float64, inactive int) RunSpec {
	return RunSpec{
		Server:      server,
		RequestRate: rate,
		Inactive:    inactive,
		Connections: 4000,
		Seed:        1,
	}
}

// RunResult is the outcome of one benchmark point.
type RunResult struct {
	Spec RunSpec

	Load   loadgen.Result
	Server httpcore.Stats

	// Mechanism statistics: Primary is the server's event mechanism, the RT
	// signal queue for phhttpd and the hybrid; Secondary is populated for
	// those two only, with their fallback poller's.
	Primary   core.Stats
	Secondary core.Stats

	// Mode/switching information for phhttpd (overflows, handoffs) and the
	// hybrid (switches).
	FinalMode        string
	Overflows        int64
	Handoffs         int64
	SwitchesToPoll   int64
	SwitchesToSignal int64

	// Latency is the client-observed connection-latency percentile summary
	// (identical to Load.Latency, surfaced here so figure and gate tooling
	// need not reach into the loadgen result); ServiceLatency is the
	// server-side accept-to-response-written distribution measured inside
	// the dispatch path, merged across thttpd workers.
	Latency        metrics.LatencyPercentiles
	ServiceLatency metrics.LatencyPercentiles

	// CPUUtilization is the mean per-CPU utilisation over each CPU's work
	// window — identical to the single CPU's utilisation on a uniprocessor
	// run. PerCPUUtilization holds the per-core values; Workers the thttpd
	// worker count (1 for the single-process servers); PerWorkerServed
	// thttpd's served-request balance across workers.
	CPUUtilization    float64
	PerCPUUtilization []float64
	Workers           int
	PerWorkerServed   []int64
	VirtualTime       core.Duration
	EventLoops        int64

	// Threads is the number of OS threads that actually drove the run: the
	// spec's request, downgraded to 1 when the configuration was ineligible
	// for the sharded engine.
	Threads int
}

// benchServer is the control surface a family builder returns: server
// lifecycle plus the family-specific result extraction.
type benchServer interface {
	Start()
	Stop()
	Stats() httpcore.Stats
	fill(res *RunResult)
}

type thttpdRun struct{ *thttpd.Server }

func (r thttpdRun) fill(res *RunResult) {
	res.Primary = r.MechanismStats()
	res.EventLoops = r.Loops()
	res.FinalMode = r.Poller().Name()
	res.Workers = r.Config().Workers
	res.PerWorkerServed = r.PerWorkerServed()
	res.Handoffs = r.Handoffs
	merged := r.ServiceLatency()
	res.ServiceLatency = merged.Percentiles()
}

type dualRun struct{ *dual.Server }

func (r dualRun) fill(res *RunResult) {
	res.Primary = r.SignalQueue().MechanismStats()
	if src, ok := r.Fallback().(core.StatsSource); ok {
		res.Secondary = src.MechanismStats()
	}
	res.EventLoops = r.Loops()
	res.FinalMode = r.ModeName()
	res.Overflows = r.Overflows
	res.Handoffs = r.Handoffs
	res.SwitchesToPoll = r.SwitchesToPoll
	res.SwitchesToSignal = r.SwitchesToSignal
	res.ServiceLatency = r.Handler().ServiceLatency.Percentiles()
}

// pushRun adapts the server-push daemon to the benchServer surface. Its
// application counters map onto the HTTP stats shape so figure and gate
// tooling read every family uniformly: Served counts subscribed members,
// Pushed the server-originated deliveries.
type pushRun struct{ *pushcore.Server }

func (r pushRun) Stats() httpcore.Stats {
	st := r.Server.Stats()
	return httpcore.Stats{
		Accepted:  st.Accepted,
		Served:    st.Subscribed,
		Pushed:    st.Pushed,
		BytesSent: st.BytesSent,
		Closed:    st.Closed,
	}
}

func (r pushRun) fill(res *RunResult) {
	if src, ok := r.Poller().(core.StatsSource); ok {
		res.Primary = src.MechanismStats()
	}
	res.EventLoops = r.Loops()
	res.FinalMode = r.Poller().Name()
}

// dhtRun adapts the datagram rendezvous node: Accepted counts peer joins,
// Served the pongs sent, IdleCloses the sessions the sweep expired.
type dhtRun struct{ *dhtnode.Server }

func (r dhtRun) Stats() httpcore.Stats {
	st := r.Server.Stats()
	return httpcore.Stats{
		Accepted:   st.Joins,
		Served:     st.Pongs,
		IdleCloses: st.Expired,
		Closed:     st.Expired,
	}
}

func (r dhtRun) fill(res *RunResult) {
	if src, ok := r.Poller().(core.StatsSource); ok {
		res.Primary = src.MechanismStats()
	}
	res.EventLoops = r.Loops()
	res.FinalMode = r.Poller().Name()
}

// buildServer constructs the server a resolved kind names. The workload
// carries the push/churn-family knobs the non-HTTP servers derive their
// configuration from.
func buildServer(spec RunSpec, wl loadgen.Workload, rk resolvedKind, k *simkernel.Kernel, net *netsim.Network) benchServer {
	switch rk.family {
	case "push":
		cfg := pushcore.DefaultConfig()
		cfg.Backend = rk.backend
		if wl.FanoutSize > 0 {
			cfg.FanoutSize = wl.FanoutSize
		}
		if wl.PushPayload > 0 {
			cfg.Payload = wl.PushPayload
		}
		cfg.Seed = uint64(spec.Seed)
		// RequestRate is the offered delivery rate: one tick pushes
		// FanoutSize payloads, so the tick period is FanoutSize/rate.
		cfg.TickInterval = core.Duration(float64(cfg.FanoutSize) / spec.RequestRate * float64(core.Second))
		return pushRun{pushcore.New(k, net, cfg)}
	case "dht":
		cfg := dhtnode.DefaultConfig()
		cfg.Backend = rk.backend
		if wl.PingSize > 0 {
			cfg.PongSize = wl.PingSize
		}
		if wl.PeerTimeout > 0 {
			cfg.PeerTimeout = wl.PeerTimeout
		}
		return dhtRun{dhtnode.New(k, net, cfg)}
	case "phhttpd", "hybrid":
		kindCfg := DualConfig(spec.Server)
		cfg := kindCfg
		if spec.Dual != nil {
			cfg = *spec.Dual
			cfg.Policy, cfg.Backend = kindCfg.Policy, kindCfg.Backend
		}
		cfg.OpenPoller = spec.OpenPoller
		applyHTTP(&cfg.HTTP, spec)
		return dualRun{dual.New(k, net, cfg)}
	default: // thttpd, any worker count
		cfg := thttpd.DefaultConfig()
		cfg.Workers = rk.workers
		cfg.Mode = spec.PreforkMode
		cfg.Backend = rk.backend
		cfg.OpenPoller = spec.OpenPoller
		applyHTTP(&cfg.HTTP, spec)
		return thttpdRun{thttpd.New(k, net, cfg)}
	}
}

// DualConfig returns the default configuration of the RT-signal server a
// phhttpd or hybrid[-<b>] kind runs: phhttpd's Handoff policy on a stock
// poll() sibling, or the hybrid's Mirror policy on the kind's bulk poller.
// It is the base a RunSpec.Dual override starts from; other kinds ignore it.
func DualConfig(kind ServerKind) dual.Config {
	rk, _ := resolveKind(kind)
	policy := dual.Mirror
	if rk.family == "phhttpd" {
		policy = dual.Handoff
	}
	cfg := dual.DefaultConfig(policy)
	cfg.Backend = rk.backend
	return cfg
}

// applyHTTP copies the spec's persistent-connection options into a server
// configuration. A zero spec.HTTP leaves the configuration's own value alone,
// so a wholesale Dual override keeps its own.
func applyHTTP(dst *httpcore.Options, spec RunSpec) {
	if spec.HTTP != (httpcore.Options{}) {
		*dst = spec.HTTP
	}
}

// Run executes one benchmark point to completion and returns its results. The
// spec's ServerKind must be valid; Run panics with the listed-choices error
// otherwise. Callers handling user input use RunE or ValidateServerKind.
func Run(spec RunSpec) RunResult {
	res, err := RunE(spec)
	if err != nil {
		panic(err)
	}
	return res
}

// RunE executes one benchmark point, returning the registry's listed-choices
// error for an unknown ServerKind.
func RunE(spec RunSpec) (RunResult, error) {
	rk, err := resolveKind(spec.Server)
	if err != nil {
		return RunResult{}, err
	}
	workload, ok := loadgen.LookupWorkload(spec.Workload)
	if !ok {
		return RunResult{}, loadgen.UnknownWorkloadError(spec.Workload)
	}
	if err := checkFamilyPairing(rk, workload); err != nil {
		return RunResult{}, err
	}
	if spec.FanoutSize > 0 {
		workload.FanoutSize = spec.FanoutSize
	}
	if spec.ChurnRate > 0 {
		workload.ChurnRate = spec.ChurnRate
	}
	if spec.Connections <= 0 {
		spec.Connections = 4000
	}
	if spec.RequestRate <= 0 {
		spec.RequestRate = 500
	}
	// Keep-alive runs hold the request budget constant: Connections counts
	// offered requests, so N requests per connection means 1/N as many
	// connections, launched at 1/N the rate by the generator. Offered load,
	// total work and issue window all match the HTTP/1.0 curve of the same
	// figure — the comparison isolates the per-connection costs (accept,
	// interest-set registration, teardown) that persistence amortises. The
	// non-request families have no request budget to normalise.
	requests := spec.Connections
	rpc := spec.Client.RequestsPerConn
	if workload.Kind == loadgen.KindRequest && rpc > 1 {
		spec.Connections = (spec.Connections + rpc - 1) / rpc
	}
	ncpu := rk.workers
	if ncpu < 1 {
		ncpu = 1
	}
	k := simkernel.NewKernelSMP(spec.Cost, ncpu)
	k.Faults = spec.Faults
	netCfg := netsim.DefaultConfig()
	if spec.Network != nil {
		netCfg = *spec.Network
	}
	if workload.Kind == loadgen.KindPush && netCfg.ListenBacklog < spec.Connections {
		// The push workload front-loads its entire population: members connect
		// at MemberRate (tens of thousands per second) before measurement
		// starts, which is not the arrival process under test — the fan-out
		// is. Let the whole population queue rather than refuse the ramp.
		netCfg.ListenBacklog = spec.Connections
	}

	// The work window is how long the run's traffic takes to offer: the issue
	// window for the request family, the member ramp plus the delivery budget
	// for push, the join window plus one peer's ping lifetime for churn. It
	// paces the sampling interval and bounds the virtual-time safety net.
	work := workWindow(spec, workload, requests)
	lcfg := loadConfig(spec, workload, requests, work)

	threads := parallelThreads(spec, rk, netCfg, lcfg)
	if threads > 1 {
		// One lane per simulated CPU plus a driver lane for the load
		// generator, the rng and the port/TIME-WAIT accounting; cross-lane
		// traffic (SYNs, port releases) is covered by half the shortest RTT.
		k.EnableParallel(ncpu+1, threads, minRTT(netCfg, lcfg)/2)
	}
	net := netsim.New(k, netCfg)
	if threads > 1 {
		net.Parallelize()
	}

	srv := buildServer(spec, workload, rk, k, net)
	gen := loadgen.New(k, net, lcfg)
	if pr, ok := srv.(pushRun); ok {
		// The generator anchors delivery latency at push initiation.
		pr.OnDeliver = gen.PushDeliver
	}
	gen.OnDone(func(loadgen.Result) {
		srv.Stop()
		k.Sim.Stop()
	})

	srv.Start()
	gen.Start(k.Now())

	deadline := spec.MaxVirtualTime
	if deadline <= 0 {
		// Work window plus a generous drain allowance.
		deadline = (work + 30*core.Second) * 2
	}
	k.Sim.RunUntil(core.Time(deadline))

	res := RunResult{
		Spec:              spec,
		Load:              gen.Result(),
		Server:            srv.Stats(),
		VirtualTime:       k.Now().Sub(0),
		PerCPUUtilization: k.Sched.Utilizations(k.Now()),
		Workers:           1,
		Threads:           threads,
	}
	for _, u := range res.PerCPUUtilization {
		// CPU.Utilization no longer clamps, so a ratio above 1 over the work
		// window can only mean a batch was charged twice — fail loudly rather
		// than report corrupted utilisation alongside otherwise-plausible
		// throughput numbers.
		if u > 1 {
			panic(fmt.Sprintf("experiments: CPU utilisation %.6f > 1 — a batch was double-charged", u))
		}
		res.CPUUtilization += u
	}
	res.CPUUtilization /= float64(len(res.PerCPUUtilization))
	res.Latency = res.Load.Latency
	srv.fill(&res)
	return res, nil
}

// loadConfig builds a run's generator configuration: DefaultConfig, scaled
// for runs smaller than the paper's, with the non-zero fields of spec.Client
// laid over its client profile. Scaled-down runs (fewer than the paper's
// 35000 connections) shrink the sampling interval and the client timeout
// proportionally, so that the ratio of queue-buildup time to client patience
// — which is what turns an overloaded server into the paper's error
// percentages — is preserved; a caller's Client.Timeout still wins.
func loadConfig(spec RunSpec, wl loadgen.Workload, requests int, work core.Duration) loadgen.Config {
	lcfg := loadgen.DefaultConfig(spec.RequestRate, spec.Inactive)
	lcfg.Connections = spec.Connections
	lcfg.Seed = spec.Seed
	lcfg.Workload = wl
	p, c := &lcfg.Profile, spec.Client
	if requests < 20000 {
		si := work / 8
		if si < 500*core.Millisecond {
			si = 500 * core.Millisecond
		}
		if si > 5*core.Second {
			si = 5 * core.Second
		}
		lcfg.SampleInterval = si
		to := core.Duration(float64(5*core.Second) * float64(requests) / 35000.0)
		if to < core.Second {
			to = core.Second
		}
		p.Timeout = to
	}
	if c.RequestsPerConn > 0 {
		p.RequestsPerConn = c.RequestsPerConn
	}
	if c.PipelineDepth > 0 {
		p.PipelineDepth = c.PipelineDepth
	}
	if c.Timeout > 0 {
		p.Timeout = c.Timeout
	}
	if c.ActiveRTT > 0 {
		p.ActiveRTT = c.ActiveRTT
	}
	if c.InactiveRTT > 0 {
		p.InactiveRTT = c.InactiveRTT
	}
	if c.Jitter > 0 {
		p.Jitter = c.Jitter
	}
	p.Retry, p.RetryMax, p.RetryBase = c.Retry, c.RetryMax, c.RetryBase
	return lcfg
}

// checkFamilyPairing rejects a server kind driven by the wrong traffic
// family: the push daemon cannot parse HTTP requests, the HTTP servers
// cannot answer datagram pings, and silently running the mismatch would
// produce all-error results that look like a mechanism collapse.
func checkFamilyPairing(rk resolvedKind, wl loadgen.Workload) error {
	want := loadgen.KindRequest
	switch rk.family {
	case "push":
		want = loadgen.KindPush
	case "dht":
		want = loadgen.KindDHTChurn
	}
	if wl.Kind != want {
		return fmt.Errorf("experiments: server family %q serves %q traffic, but workload %q drives %q (pair push-* kinds with the push workload, dht-* kinds with dhtchurn, HTTP kinds with the request workloads)",
			rk.family, want, wl.Name, wl.Kind)
	}
	return nil
}

// workWindow is the virtual-time span the spec's traffic takes to offer.
// The request family issues requests/rate seconds of connections; push ramps
// the member population at MemberRate and then spends its delivery budget at
// RequestRate; churn joins peers at ChurnRate and the last peer still pings
// through its quota afterwards.
func workWindow(spec RunSpec, wl loadgen.Workload, requests int) core.Duration {
	switch wl.Kind {
	case loadgen.KindPush:
		mr := wl.MemberRate
		if mr <= 0 {
			mr = 50000
		}
		ramp := core.Duration(float64(requests)/mr*float64(core.Second)) + 400*core.Millisecond
		return ramp + core.Duration(float64(requests)/spec.RequestRate*float64(core.Second))
	case loadgen.KindDHTChurn:
		churn := wl.ChurnRate
		if churn <= 0 {
			churn = 100
		}
		interval := wl.PingInterval
		if interval <= 0 {
			interval = 500 * core.Millisecond
		}
		quota := spec.RequestRate / churn
		if quota < 1 {
			quota = 1
		}
		join := core.Duration(float64(requests) / churn * float64(core.Second))
		return join + core.Duration(quota*float64(interval))
	default:
		return core.Duration(float64(requests) / spec.RequestRate * float64(core.Second))
	}
}

// minRTT returns the shortest round-trip time any connection in the run can
// be configured with: the bound on how early a SYN launched on the driver
// lane can reach a server lane, and therefore the basis of the sharded
// engine's lookahead window.
func minRTT(netCfg netsim.Config, lcfg loadgen.Config) core.Duration {
	min := netCfg.DefaultRTT
	if min <= 0 {
		min = 200 * core.Microsecond // netsim.New's default
	}
	consider := func(d core.Duration) {
		if d > 0 && d < min {
			min = d
		}
	}
	consider(lcfg.Profile.ActiveRTT)
	consider(lcfg.Profile.InactiveRTT)
	for _, band := range lcfg.Workload.RTTMix {
		consider(band.RTT)
	}
	return min
}

// parallelThreads resolves the spec's thread request against the sharded
// engine's eligibility rules, returning 1 (sequential) when the configuration
// cannot be parallelised: round-robin listener sharding mutates shared state
// per connection, thttpd's handoff mode adopts connections across workers, and a
// TIME-WAIT shorter than the lookahead window cannot defer port releases.
func parallelThreads(spec RunSpec, rk resolvedKind, netCfg netsim.Config, lcfg loadgen.Config) int {
	if spec.Threads < 2 {
		return 1
	}
	if netCfg.Shard == netsim.ShardRoundRobin {
		return 1
	}
	if rk.family == "thttpd" && spec.PreforkMode == thttpd.ModeHandoff {
		return 1
	}
	tw := netCfg.TimeWait
	if tw <= 0 {
		tw = netsim.DefaultConfig().TimeWait
	}
	if tw < minRTT(netCfg, lcfg)/2 {
		return 1
	}
	return spec.Threads
}

// Describe renders a short human-readable summary of one run.
func Describe(r RunResult) string {
	return fmt.Sprintf("%-15s %s cpu=%4.0f%% loops=%d mode=%s",
		r.Spec.Server, r.Load.String(), 100*r.CPUUtilization, r.EventLoops, r.FinalMode)
}
