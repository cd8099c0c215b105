package experiments

import (
	"fmt"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/servers/httpcore"
)

// OverloadRates is the default overload sweep: from comfortably below a
// uniprocessor's capacity to well past it, so the knee falls inside the
// figure for every mechanism.
func OverloadRates() []float64 {
	return []float64{400, 700, 1000, 1300, 1600}
}

// overloadMechanismCurves returns the paper's four servers at the given
// inactive load plus the compio extension, the fixed curve set of the
// per-workload overload figures. compio stays last so the pre-existing
// columns keep their positions (each curve runs on a fresh kernel, so the
// earlier columns' values are unaffected by the addition).
func overloadMechanismCurves(inactive int) []Curve {
	return []Curve{
		{Label: "normal poll", Server: ServerThttpdPoll, Inactive: inactive},
		{Label: "devpoll", Server: ServerThttpdDevPoll, Inactive: inactive},
		{Label: "phhttpd", Server: ServerPhhttpd, Inactive: inactive},
		{Label: "hybrid", Server: ServerHybrid, Inactive: inactive},
		{Label: "compio", Server: ServerThttpdCompio, Inactive: inactive},
	}
}

// overloadFigures returns the overload figure family: one figure per
// workload scenario over the paper's four mechanisms, plus the prefork
// worker-count figure. Numbers continue after the worker-scaling figures so
// identifiers stay unambiguous.
func overloadFigures() []Figure {
	return []Figure{
		{
			ID:     "fig19",
			Number: 19,
			Title:  "Overload: constant arrivals past saturation, 251 inactive connections",
			Paper: "The shape Figures 4-13 imply but never draw in full: reply rate tracks the offered " +
				"load, flattens at each mechanism's capacity, then declines as retries and timeouts eat " +
				"useful work, while p99 latency explodes at the knee.",
			Metric:   MetricReplyP99,
			Workload: "constant",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig20",
			Number: 20,
			Title:  "Overload: flash-crowd burst trains, 251 inactive connections",
			Paper: "Not in the paper. Bursts at three times the nominal rate saturate every mechanism " +
				"well before its constant-rate knee; the interest-set-scanning servers degrade soonest " +
				"because each burst arrives on top of the idle-connection scan.",
			Metric:   MetricReplyP99,
			Workload: "flashcrowd",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig21",
			Number: 21,
			Title:  "Overload: heavy-tailed (Pareto) arrivals, 251 inactive connections",
			Paper: "Not in the paper. Clumped arrivals with the same mean rate raise tail latency at " +
				"every load; mechanisms with O(ready) waits absorb the clumps, poll() pays the full " +
				"interest-set scan per clump.",
			Metric:   MetricReplyP99,
			Workload: "pareto",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig22",
			Number: 22,
			Title:  "Adversarial: slow-loris background population (251 tricklers)",
			Paper: "Not in the paper. Unlike silent inactive connections, tricklers generate a steady " +
				"event stream and defeat the idle sweep: every dribbled byte costs an interrupt, a " +
				"readiness event and a read, so the background load taxes the event path itself.",
			Metric:   MetricReplyP99,
			Workload: "slowloris",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig23",
			Number: 23,
			Title:  "Adversarial: stalled-reader background population (251 stalled)",
			Paper: "Not in the paper. Stalled readers make the server do the full accept/parse/serve " +
				"work, then jam its response against a closed receive window: each one holds a " +
				"descriptor, an interest-set entry and a blocked write until the idle sweep evicts it.",
			Metric:   MetricReplyP99,
			Workload: "stalled",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig24",
			Number: 24,
			Title:  "Overload: WAN RTT mix, 251 inactive connections",
			Paper: "Not in the paper, whose clients sit on a uniform LAN. Wide-area RTTs stretch " +
				"connection lifetimes, so the server holds many more concurrent connections at the " +
				"same offered rate and the p99 is dominated by the slow-path tail.",
			Metric:   MetricReplyP99,
			Workload: "wan",
			Rates:    OverloadRates(),
			Curves:   overloadMechanismCurves(251),
		},
		{
			ID:     "fig25",
			Number: 25,
			Title:  "Overload: prefork worker counts under flash-crowd bursts, 500 inactive connections",
			Paper: "Not in the paper. Adding workers moves the knee to the right near-linearly: the " +
				"offered rate at which reply rate departs the diagonal and p99 departs the floor " +
				"roughly doubles from one to two to four workers.",
			Metric:   MetricReplyP99,
			Workload: "flashcrowd",
			Rates:    []float64{1000, 2000, 3000, 4000},
			Curves: []Curve{
				{Label: "prefork-1", Server: PreforkKind(1), Inactive: 500},
				{Label: "prefork-2", Server: PreforkKind(2), Inactive: 500},
				{Label: "prefork-4", Server: PreforkKind(4), Inactive: 500},
			},
		},
	}
}

// ScaleRates is the request-rate sweep of the scale figures: below, at and
// past the uniprocessor knee, so both the flat region and the collapse are
// visible at every connection count.
func ScaleRates() []float64 {
	return []float64{700, 1000, 1300}
}

// scaleFigures returns the scale figure family (figs 26-28): the paper's
// reply-rate and p99 curves re-run at 10000, 20000 and 30000 benchmark
// connections per point across all four event mechanisms plus the four-worker
// thttpd (prefork-4). The paper's testbed topped out around 35000 connections per
// run on a 400 MHz uniprocessor; these figures are what the optimized
// simulation substrate buys — the same measurement an order of magnitude
// beyond the original hardware's practical reach.
func scaleFigures() []Figure {
	mk := func(num, conns int) Figure {
		return Figure{
			ID:     fmt.Sprintf("fig%d", num),
			Number: num,
			Title: fmt.Sprintf("Scale: %d connections per point, four mechanisms plus prefork-4 and compio, 251 inactive connections",
				conns),
			Paper: "Not in the paper, whose procedure was capped near 35000 connections per run by the " +
				"client's port space and the testbed's speed. The mechanism ordering (poll collapses, " +
				"/dev/poll and epoll sustain, RT signals fall between, prefork moves the knee right) " +
				"must hold unchanged as the run grows an order of magnitude.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       ScaleRates(),
			Connections: conns,
			Curves: []Curve{
				{Label: "normal poll", Server: ServerThttpdPoll, Inactive: 251},
				{Label: "devpoll", Server: ServerThttpdDevPoll, Inactive: 251},
				{Label: "phhttpd", Server: ServerPhhttpd, Inactive: 251},
				{Label: "epoll", Server: ServerThttpdEpoll, Inactive: 251},
				{Label: "prefork-4", Server: PreforkKind(4), Inactive: 251},
				{Label: "compio", Server: ServerThttpdCompio, Inactive: 251},
			},
		}
	}
	return []Figure{mk(26, 10000), mk(27, 20000), mk(28, 30000)}
}

// massiveScaleFigures returns the 100k-1M-connection figure family (figs
// 29-31): the scale measurement continued two further orders of magnitude,
// which is what the sharded parallel kernel exists to make affordable. The
// client port space grows with the run (the paper's 60000-port limit is a
// client artifact, not a property of the server mechanisms under test); all
// five server kinds remain comparable because each point still sweeps the
// same rates against the same 251-connection inactive load.
func massiveScaleFigures() []Figure {
	mk := func(num, conns int) Figure {
		return Figure{
			ID:     fmt.Sprintf("fig%d", num),
			Number: num,
			Title: fmt.Sprintf("Massive scale: %d connections per point, four mechanisms plus prefork-4, 251 inactive connections",
				conns),
			Paper: "Not in the paper: its testbed topped out near 35000 connections per run. This family " +
				"re-runs the scale measurement at 100k-1M connections per point, where the interest-set " +
				"mechanisms' ordering must survive three orders of magnitude of growth.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       ScaleRates(),
			Connections: conns,
			PortSpace:   2*conns + 100000,
			Curves: []Curve{
				{Label: "normal poll", Server: ServerThttpdPoll, Inactive: 251},
				{Label: "devpoll", Server: ServerThttpdDevPoll, Inactive: 251},
				{Label: "phhttpd", Server: ServerPhhttpd, Inactive: 251},
				{Label: "epoll", Server: ServerThttpdEpoll, Inactive: 251},
				{Label: "prefork-4", Server: PreforkKind(4), Inactive: 251},
			},
		}
	}
	return []Figure{mk(29, 100000), mk(30, 300000), mk(31, 1000000)}
}

// mostlyIdleCurves returns the five paper mechanisms as curves of the given
// family prefix ("push" or "dht"): the millions-mostly-idle figures compare
// the same event mechanisms the HTTP figures do, but hosted in the non-HTTP
// daemons, so the backend name is the whole server kind.
func mostlyIdleCurves(family string) []Curve {
	curves := make([]Curve, 0, 5)
	for _, b := range []string{"poll", "devpoll", "rtsig", "epoll", "compio"} {
		curves = append(curves, Curve{Label: b, Server: ServerKind(family + "-" + b)})
	}
	return curves
}

// mostlyIdleFigures returns the millions-mostly-idle figure family (figs
// 36-39): the server-push daemon's delivery rate and p99 delivery latency
// against interest-set size and offered delivery rate, and the datagram
// rendezvous node against ping rate and peer churn. These figures pin their
// own connection counts (like the scale family), so "-fig all" skips
// them; regenerate with -fig 36,37,38,39.
func mostlyIdleFigures() []Figure {
	return []Figure{
		{
			ID:     "fig36",
			Number: 36,
			Title:  "Server push: delivery rate and p99 vs offered rate, 10000 subscribed members, five mechanisms",
			Paper: "Not in the paper, whose traffic is all client-initiated. Members subscribe once and go " +
				"silent; the server fans 32-payload ticks out to sampled member sets, so under 1% of the " +
				"interest set is active at any instant and the mechanisms separate purely on what an " +
				"idle registration costs per dispatch: poll rescans all 10000 members every tick.",
			Metric:      MetricReplyP99,
			Workload:    "push",
			Rates:       []float64{1000, 4000, 16000},
			Connections: 10000,
			Curves:      mostlyIdleCurves("push"),
		},
		{
			ID:     "fig37",
			Number: 37,
			Title:  "Server push at 100000 members: the millions-mostly-idle regime, five mechanisms",
			Paper: "Not in the paper: two orders of magnitude past its testbed. With 100k members and 32 " +
				"pushes per tick (>=99.9% of the interest set idle), poll's full-set scan per tick " +
				"dominates everything else the server does and its delivery rate collapses, while " +
				"/dev/poll, epoll and the completion ring stay on the offered-rate diagonal.",
			Metric:      MetricReplyP99,
			Workload:    "push",
			Rates:       []float64{1000, 3200, 6400},
			Connections: 100000,
			PortSpace:   2*100000 + 100000,
			Curves:      mostlyIdleCurves("push"),
		},
		{
			ID:     "fig38",
			Number: 38,
			Title:  "Datagram churn: pong rate and p99 vs offered ping rate, 4000 peer sessions, five mechanisms",
			Paper: "Not in the paper, which never leaves TCP. Peers join a rendezvous node at 200/s, ping " +
				"their per-peer session sockets and leave; the interest set is one datagram descriptor " +
				"per live peer, churning constantly, so the figure measures registration and teardown " +
				"cost as much as dispatch.",
			Metric:      MetricReplyP99,
			Workload:    "dhtchurn",
			Rates:       []float64{1000, 2000, 4000, 8000},
			Connections: 4000,
			Curves:      mostlyIdleCurves("dht"),
		},
		{
			ID:     "fig39",
			Number: 39,
			Title:  "Datagram churn: pong rate and p99 vs churn rate at 2000 pings/s, 4000 peer sessions, five mechanisms",
			Paper: "Not in the paper. Holding the ping rate fixed and sweeping the join rate moves the " +
				"descriptor-churn/dispatch ratio: at low churn sessions live long and the run is all " +
				"dispatch, at high churn every mechanism pays constant interest-set registration and " +
				"teardown, the cost /dev/poll-style kernel-resident sets amortise and poll does not.",
			Metric:      MetricReplyP99,
			Workload:    "dhtchurn",
			Rates:       []float64{2000},
			Churn:       []float64{50, 100, 200, 400, 800},
			Connections: 4000,
			Curves:      mostlyIdleCurves("dht"),
		},
	}
}

// faultAxisLabel names a chaos figure's x axis.
func faultAxisLabel(fault string) string {
	switch fault {
	case "reset":
		return "reset rate"
	case "vanish":
		return "vanish rate"
	case "fdlimit":
		return "fd limit"
	case "eintr":
		return "eintr rate"
	case "overflow":
		return "overflow-storm rate"
	default:
		return fault
	}
}

// applyFaultAxis sets the swept fault knob on one point's spec.
func applyFaultAxis(spec *RunSpec, fault string, x float64) {
	switch fault {
	case "reset":
		spec.Faults.ResetRate = x
	case "vanish":
		spec.Faults.VanishRate = x
	case "fdlimit":
		spec.Faults.FDLimit = int(x)
	case "eintr":
		spec.Faults.EINTRRate = x
	case "overflow":
		spec.Faults.OverflowStormRate = x
	default:
		panic("experiments: unknown fault axis " + fault)
	}
}

// ChaosRate is the fixed offered rate of the chaos figures: just below the
// slowest mechanism's knee, so the degradation each figure plots is the
// fault's doing, not ambient overload.
const ChaosRate = 900

// chaosFigures returns the chaos figure family (figs 40-43): the overload
// measurement re-run with the deterministic fault plane turned on, one fault
// class per figure, swept on the x axis at a fixed offered rate. The
// acceptance shape is graceful degradation: reply rate declines and p99 climbs
// smoothly with the fault intensity, with no mechanism cliffing to zero.
func chaosFigures() []Figure {
	return []Figure{
		{
			ID:     "fig40",
			Number: 40,
			Title:  "Chaos: connection resets mid-request and mid-response, five mechanisms, 251 inactive connections",
			Paper: "Not in the paper, whose clients always complete or time out cleanly. A deterministic " +
				"fraction of connections RST mid-exchange: half mid-request (the server's read fails with " +
				"ECONNRESET), half mid-response (the draining write fails with EPIPE). The server must " +
				"unwind each one without leaking a descriptor, a pooled connection or a timer; reply rate " +
				"should fall roughly linearly with the doomed fraction.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       []float64{ChaosRate},
			Fault:       "reset",
			FaultValues: []float64{0, 0.02, 0.05, 0.1, 0.2},
			Curves:      overloadMechanismCurves(251),
		},
		{
			ID:     "fig41",
			Number: 41,
			Title:  "Chaos: descriptor-limit headroom (RLIMIT_NOFILE), five mechanisms, 251 inactive connections",
			Paper: "Not in the paper. With 251 inactive connections pinning descriptors, shrinking the " +
				"process fd limit squeezes the headroom for active ones until accept fails with EMFILE. " +
				"The reserve-descriptor drain sheds the overflow cleanly and paced backoff keeps the " +
				"accept loop from spinning; reply rate should degrade to the sustainable headroom, not " +
				"collapse.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       []float64{ChaosRate},
			Fault:       "fdlimit",
			FaultValues: []float64{0, 600, 450, 350, 300},
			Curves:      overloadMechanismCurves(251),
		},
		{
			ID:     "fig42",
			Number: 42,
			Title:  "Chaos: EINTR storms on the blocking wait, five mechanisms, 251 inactive connections",
			Paper: "Not in the paper. Each blocking wait episode is interrupted with probability p and " +
				"restarts with a recomputed timeout; the interrupt charges a signal delivery and the " +
				"restart a fresh syscall entry. Readiness arriving during the interrupt window must not " +
				"be lost, so the cost is pure overhead: reply rate bends down gently as p grows.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       []float64{ChaosRate},
			Fault:       "eintr",
			FaultValues: []float64{0, 0.2, 0.4, 0.6, 0.8},
			Curves:      overloadMechanismCurves(251),
		},
		{
			ID:     "fig43",
			Number: 43,
			Title:  "Chaos: notification-queue overflow storms, RT signals and completion ring",
			Paper: "Not in the paper, though its Section 5 fears exactly this: the RT signal queue " +
				"overflows and the server must fall back to a full scan. Injected kernel-side bursts " +
				"swallow a deterministic fraction of signal enqueues and ring posts, forcing repeated " +
				"overflow-recovery cycles with live traffic between them; the mechanisms whose recovery " +
				"is a bounded rescan degrade smoothly as the storm intensifies.",
			Metric:      MetricReplyP99,
			Workload:    "constant",
			Rates:       []float64{ChaosRate},
			Fault:       "overflow",
			FaultValues: []float64{0, 0.05, 0.1, 0.2, 0.4},
			Curves: []Curve{
				{Label: "phhttpd", Server: ServerPhhttpd, Inactive: 251},
				{Label: "hybrid", Server: ServerHybrid, Inactive: 251},
				{Label: "compio", Server: ServerThttpdCompio, Inactive: 251},
			},
		},
	}
}

// KeepAliveRequests is the per-connection request count of the keep-alive
// figure family and the sweep-level -keepalive default: long enough to
// amortise the connection setup, short enough that connections still churn.
const KeepAliveRequests = 8

// keepAliveFigures returns the persistent-connection figure family (figs
// 32-35): the HTTP/1.1 hot path measured one axis at a time — keep-alive
// against close-per-request on all five mechanisms, pipeline depth, response
// cache size, and the write path (copy vs writev vs sendfile).
func keepAliveFigures() []Figure {
	ka := httpcore.Options{KeepAlive: true}
	pair := func(label string, server ServerKind) []Curve {
		return []Curve{
			{Label: label + " http/1.0", Server: server, Inactive: 251},
			{Label: label + " keepalive", Server: server, Inactive: 251,
				HTTP: ka, Client: loadgen.ClientProfile{RequestsPerConn: KeepAliveRequests,
					PipelineDepth: KeepAliveRequests}},
		}
	}
	var cmp []Curve
	cmp = append(cmp, pair("normal poll", ServerThttpdPoll)...)
	cmp = append(cmp, pair("devpoll", ServerThttpdDevPoll)...)
	cmp = append(cmp, pair("phhttpd", ServerPhhttpd)...)
	cmp = append(cmp, pair("hybrid", ServerHybrid)...)
	cmp = append(cmp, pair("compio", ServerThttpdCompio)...)

	depth := func(d int) Curve {
		return Curve{Label: fmt.Sprintf("depth-%d", d), Server: ServerThttpdEpoll,
			Inactive: 251, HTTP: ka, Client: loadgen.ClientProfile{RequestsPerConn: 16, PipelineDepth: d}}
	}
	cache := func(kb int) Curve {
		label := "cache-off"
		if kb > 0 {
			label = fmt.Sprintf("cache-%dkb", kb)
		}
		return Curve{Label: label, Server: ServerThttpdEpoll, Inactive: 251,
			HTTP:   httpcore.Options{KeepAlive: true, CacheKB: kb},
			Client: loadgen.ClientProfile{RequestsPerConn: KeepAliveRequests}}
	}
	write := func(m httpcore.WriteMode) Curve {
		return Curve{Label: m.String(), Server: ServerThttpdEpoll, Inactive: 251,
			HTTP:   httpcore.Options{KeepAlive: true, WriteMode: m},
			Client: loadgen.ClientProfile{RequestsPerConn: KeepAliveRequests}}
	}
	return []Figure{
		{
			ID:     "fig32",
			Number: 32,
			Title:  "Keep-alive vs HTTP/1.0 at the overload knee, five mechanisms, 251 inactive connections",
			Paper: "Not in the paper, whose testbed closed every connection after one request. Each keep-alive " +
				"client pipelines its eight requests over one connection, so the accept, the interest-set " +
				"registration and the close are amortised over eight requests and the server dispatches " +
				"whole batches per readiness event. Every mechanism's reply-rate knee moves right; the " +
				"mechanisms whose per-event costs dominate (poll's full-set scan on every dispatch) gain " +
				"the most. The offered request budget matches the HTTP/1.0 curves: one eighth as many " +
				"connections at one eighth the connection rate.",
			Metric:   MetricReplyP99,
			Workload: "constant",
			Rates:    OverloadRates(),
			Curves:   cmp,
		},
		{
			ID:     "fig33",
			Number: 33,
			Title:  "Pipeline depth 1 vs 4 vs 16 on keep-alive epoll, 16 requests per connection, 251 inactive connections",
			Paper: "Not in the paper. Pipelining removes the client's request-response round trip from the " +
				"connection's critical path; past depth ~4 the server's bounded per-dispatch batch (not " +
				"the network) paces the connection, so returns diminish.",
			Metric:   MetricReplyP99,
			Workload: "constant",
			Rates:    OverloadRates(),
			Curves:   []Curve{depth(1), depth(4), depth(16)},
		},
		{
			ID:     "fig34",
			Number: 34,
			Title:  "Response cache size sweep on keep-alive epoll, 251 inactive connections",
			Paper: "Not in the paper. cache-off is the legacy model with no file-access charges at all; " +
				"turning the explicit file model on, a cache too small for the document (4 KB vs the " +
				"6 KB default document) pays open-plus-page-read on every request, while any " +
				"sufficient size serves from the mmap'd cache at a fraction of that.",
			Metric:   MetricReplyP99,
			Workload: "constant",
			Rates:    OverloadRates(),
			Curves:   []Curve{cache(0), cache(4), cache(64), cache(1024)},
		},
		{
			ID:     "fig35",
			Number: 35,
			Title:  "Write path copy vs writev vs sendfile on keep-alive epoll, 251 inactive connections",
			Paper: "Not in the paper. Two-write copy pays the user-space copy twice plus an extra " +
				"syscall; writev folds header and body into one charge; sendfile skips the " +
				"user-space copy entirely and charges per page crossed.",
			Metric:   MetricReplyP99,
			Workload: "constant",
			Rates:    OverloadRates(),
			Curves:   []Curve{write(httpcore.WriteCopy), write(httpcore.WriteWritev), write(httpcore.WriteSendfile)},
		},
	}
}

// withWorkerCounts rebuilds the figure's curves for the given worker counts,
// honoring SweepOptions.Workers (-workers) on the prefork overload figure;
// figures without prefork curves (and empty counts) pass through unchanged.
func (f Figure) withWorkerCounts(counts []int) Figure {
	if len(counts) == 0 {
		return f
	}
	inactive := -1
	for _, c := range f.Curves {
		if strings.HasPrefix(string(c.Server), "prefork-") {
			inactive = c.Inactive
			break
		}
	}
	if inactive < 0 {
		return f
	}
	curves := make([]Curve, 0, len(counts))
	for _, n := range counts {
		curves = append(curves, Curve{
			Label:    fmt.Sprintf("prefork-%d", n),
			Server:   PreforkKind(n),
			Inactive: inactive,
		})
	}
	f.Curves = curves
	return f
}
