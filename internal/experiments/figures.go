package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
)

// MetricKind selects what a figure plots on its y axis.
type MetricKind int

// Metrics plotted by the figures.
const (
	MetricReplyRate     MetricKind = iota // average/min/max reply rate (FIGS 4-9, 11-13)
	MetricErrorPercent                    // percentage of failed connections (FIG 10)
	MetricMedianLatency                   // median connection time in ms (FIG 14)
	MetricReplyP99                        // reply-rate average and p99 connection time (figs 19+)
)

// String names the metric.
func (m MetricKind) String() string {
	switch m {
	case MetricReplyRate:
		return "reply rate (replies/s)"
	case MetricErrorPercent:
		return "errors (percent)"
	case MetricMedianLatency:
		return "median connection time (ms)"
	case MetricReplyP99:
		return "reply rate and p99 connection time"
	default:
		return "unknown"
	}
}

// series returns the empty series one curve plots under the metric.
func (m MetricKind) series(label, xlabel string) []metrics.Series {
	mk := func(suffix, ylabel string) metrics.Series {
		return metrics.Series{Label: label + suffix, XLabel: xlabel, YLabel: ylabel}
	}
	switch m {
	case MetricReplyRate:
		y := m.String()
		return []metrics.Series{mk(" (avg)", y), mk(" (min)", y), mk(" (max)", y)}
	case MetricReplyP99:
		return []metrics.Series{mk(" (reply avg)", MetricReplyRate.String()), mk(" (p99 ms)", "p99 connection time (ms)")}
	default:
		return []metrics.Series{mk("", m.String())}
	}
}

// observe appends one run's y values at x to the series the metric's series
// method returned.
func (m MetricKind) observe(ss []metrics.Series, x float64, r RunResult) {
	switch m {
	case MetricReplyRate:
		ss[0].Append(x, r.Load.ReplyRate.Mean)
		ss[1].Append(x, r.Load.ReplyRate.Min)
		ss[2].Append(x, r.Load.ReplyRate.Max)
	case MetricErrorPercent:
		ss[0].Append(x, r.Load.ErrorPercent)
	case MetricMedianLatency:
		ss[0].Append(x, r.Load.MedianLatencyMs)
	case MetricReplyP99:
		ss[0].Append(x, r.Load.ReplyRate.Mean)
		ss[1].Append(x, r.Latency.P99)
	}
}

// Curve is one plotted configuration within a figure.
type Curve struct {
	Label    string
	Server   ServerKind
	Inactive int

	// HTTP and Client give the curve its own persistent-connection
	// configuration (the keep-alive figure family, figs 32-35); zero values
	// select the HTTP/1.0 paths or the sweep-level overrides.
	HTTP   httpcore.Options
	Client loadgen.ClientProfile
}

// Figure describes one figure swept over the offered request rate (or, for
// the churn and chaos families, over a churn or fault knob at one fixed
// rate) and how to regenerate it.
type Figure struct {
	ID     string // "fig04" ... "fig43"
	Number int
	Title  string
	// Paper summarises what the original figure showed (or, for figures
	// beyond the paper, what the extension expects), so EXPERIMENTS.md can
	// compare shape against the reproduction.
	Paper  string
	Metric MetricKind
	// Workload names the loadgen scenario every point runs under; empty
	// selects the paper's constant workload.
	Workload string
	Rates    []float64
	Curves   []Curve
	// Connections, when positive, is the figure's own per-point connection
	// count, used when the sweep options leave it unset. The scale family
	// (figs 26-28) pins 10k/20k/30k here; every other figure uses the global
	// scaled-down default.
	Connections int
	// PortSpace, when positive, overrides the client ephemeral-port space.
	// The 100k-1M family (figs 29-31) must raise it: the paper capped runs
	// at 35000 connections precisely because 60 s of TIME-WAIT exhausts a
	// 60000-port space, and these figures push far past that.
	PortSpace int
	// Churn, when non-empty, turns the figure's x axis into the churn
	// workload's peer join rate: every curve runs once per churn value at the
	// figure's single fixed offered rate (Rates[0]). Only the mostly-idle
	// family (fig39) uses it.
	Churn []float64
	// Fault, when non-empty, turns the figure's x axis into a fault-injection
	// knob swept over FaultValues at the figure's single fixed offered rate
	// (Rates[0]), the same shape as the churn axis. Knobs: "reset" (fraction
	// of connections RST mid-exchange), "fdlimit" (RLIMIT_NOFILE; 0 =
	// unlimited), "eintr" (probability a blocking wait is interrupted),
	// "overflow" (RT signal queue limit and completion-ring capacity). Only
	// the chaos family (figs 40-43) uses it.
	Fault       string
	FaultValues []float64
	// Faults is the figure's base fault configuration, applied to every point
	// before the Fault axis knob; the zero value injects nothing.
	Faults faults.Config
}

// axis returns the figure's x axis — its table column name, its series label
// and its values: the offered rates unless the figure sweeps churn or a fault
// knob at one fixed rate.
func (f Figure) axis(rates []float64) (name, label string, xs []float64) {
	switch {
	case f.Fault != "":
		return f.Fault, faultAxisLabel(f.Fault), f.FaultValues
	case len(f.Churn) > 0:
		return "churn", "churn rate", f.Churn
	}
	return "rate", "request rate", rates
}

// Entry is one figure of the catalogue: a Figure, or a WorkerFigure whose x
// axis is the worker count. Exactly one of the two is set.
type Entry struct {
	ID      string
	Number  int
	Title   string
	Figure  *Figure
	Workers *WorkerFigure
}

// PinsConnections reports whether the figure sets its own per-point
// connection count (the scale and mostly-idle families, at 10k-1M
// connections); the default "all" set leaves those out.
func (e Entry) PinsConnections() bool { return e.Figure != nil && e.Figure.Connections > 0 }

// Run regenerates the figure and returns its formatted table and raw runs.
func (e Entry) Run(opts SweepOptions) (string, []RunResult) {
	if e.Workers != nil {
		res := RunWorkerFigure(*e.Workers, opts)
		return FormatWorkers(res), res.Runs
	}
	res := RunFigure(*e.Figure, opts)
	return Format(res), res.Runs
}

// Catalogue returns every figure in listing and sweep order: the paper's
// figures (4-14) and the epoll extensions (15-16), the worker-scaling figures
// (17-18), then the overload (19-25), keep-alive (32-35), scale (26-31),
// mostly-idle (36-39) and chaos (40-43) families.
func Catalogue() []Entry {
	var out []Entry
	add := func(figs []Figure) {
		for i := range figs {
			f := &figs[i]
			out = append(out, Entry{ID: f.ID, Number: f.Number, Title: f.Title, Figure: f})
		}
	}
	add(paperFigures())
	add(extensionFigures())
	for _, w := range workerFigures() {
		out = append(out, Entry{ID: w.ID, Number: w.Number, Title: w.Title, Workers: &w})
	}
	add(overloadFigures())
	add(keepAliveFigures())
	add(scaleFigures())
	add(massiveScaleFigures())
	add(mostlyIdleFigures())
	add(chaosFigures())
	return out
}

// Lookup finds a catalogue figure by its "fig04"-style identifier or its bare
// number ("4"), returning a listed-choices error for an unknown one.
func Lookup(id string) (Entry, error) {
	key := strings.ToLower(strings.TrimSpace(id))
	cat := Catalogue()
	ids := make([]string, 0, len(cat))
	for _, e := range cat {
		if e.ID == key || strconv.Itoa(e.Number) == key {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	return Entry{}, fmt.Errorf("experiments: unknown figure %q (choices: %s)", id, strings.Join(ids, ", "))
}

// DefaultRates is the request-rate sweep used by the paper's figures (its x
// axis runs from 500 to 1100 requests per second).
func DefaultRates() []float64 {
	return []float64{500, 600, 700, 800, 900, 1000, 1100}
}

// paperFigures returns the paper's figures 4-14.
func paperFigures() []Figure {
	rates := DefaultRates()
	replyFig := func(num int, server ServerKind, inactive int, title, paper string) Figure {
		return Figure{
			ID:     fmt.Sprintf("fig%02d", num),
			Number: num,
			Title:  title,
			Paper:  paper,
			Metric: MetricReplyRate,
			Rates:  rates,
			Curves: []Curve{{Label: string(server), Server: server, Inactive: inactive}},
		}
	}
	return []Figure{
		replyFig(4, ServerThttpdPoll, 1,
			"Stock thttpd with poll(), 1 inactive connection",
			"Server performs well until a high enough request rate, then breaks down as processing latency exceeds the request rate."),
		replyFig(5, ServerThttpdDevPoll, 1,
			"thttpd with /dev/poll, 1 inactive connection",
			"Performs well at all request rates; no point where processing latency exceeds request rate."),
		replyFig(6, ServerThttpdPoll, 251,
			"Stock thttpd with poll(), 251 inactive connections",
			"Breaks down sooner as inactive-connection load increases; minimum response rates hit zero in several places."),
		replyFig(7, ServerThttpdDevPoll, 251,
			"thttpd with /dev/poll, 251 inactive connections",
			"Performs almost as well as with no inactive connections."),
		replyFig(8, ServerThttpdPoll, 501,
			"Stock thttpd with poll(), 501 inactive connections",
			"Latency due to inactive connections dominates at all request rates: poor performance and high error rates."),
		replyFig(9, ServerThttpdDevPoll, 501,
			"thttpd with /dev/poll, 501 inactive connections",
			"Handles the high inactive load with ease; performance begins to break down only at extreme request rates."),
		{
			ID:     "fig10",
			Number: 10,
			Title:  "Connection error rate, stock poll() vs /dev/poll, 251 and 501 inactive connections",
			Paper:  "Stock thttpd's error rate climbs toward ~60% of connections; thttpd with /dev/poll shows only sporadic errors (none at 251).",
			Metric: MetricErrorPercent,
			Rates:  rates,
			Curves: []Curve{
				{Label: "normal poll, load 251", Server: ServerThttpdPoll, Inactive: 251},
				{Label: "devpoll, load 251", Server: ServerThttpdDevPoll, Inactive: 251},
				{Label: "normal poll, load 501", Server: ServerThttpdPoll, Inactive: 501},
				{Label: "devpoll, load 501", Server: ServerThttpdDevPoll, Inactive: 501},
			},
		},
		replyFig(11, ServerPhhttpd, 1,
			"phhttpd (RT signals), 1 inactive connection",
			"Compares with the best servers at lower rates; very high request rates make it falter due to per-signal system-call overhead."),
		replyFig(12, ServerPhhttpd, 251,
			"phhttpd (RT signals), 251 inactive connections",
			"Reaches its performance knee sooner; inactive connections unexpectedly increase the cost of handling active ones."),
		replyFig(13, ServerPhhttpd, 501,
			"phhttpd (RT signals), 501 inactive connections",
			"Inactive-connection load affects throughput at all request rates; scales less well than thttpd with /dev/poll."),
		{
			ID:     "fig14",
			Number: 14,
			Title:  "Median connection time, 251 inactive connections",
			Paper:  "phhttpd responds 1-3 ms faster than thttpd+/dev/poll up to ~900 req/s, then its median latency jumps past 120 ms while thttpd+/dev/poll stays steady; stock poll sits above both.",
			Metric: MetricMedianLatency,
			Rates:  rates,
			Curves: []Curve{
				{Label: "devpoll", Server: ServerThttpdDevPoll, Inactive: 251},
				{Label: "normal poll", Server: ServerThttpdPoll, Inactive: 251},
				{Label: "phhttpd", Server: ServerPhhttpd, Inactive: 251},
			},
		},
	}
}

// extensionFigures returns figures that go beyond the paper: the epoll curves
// the follow-up literature made the obvious next measurement. Extension
// figures use numbers above the paper's 14 so identifiers stay unambiguous.
func extensionFigures() []Figure {
	rates := DefaultRates()
	return []Figure{
		{
			ID:     "fig15",
			Number: 15,
			Title:  "Extension: thttpd with epoll (level-triggered), 501 inactive connections",
			Paper:  "Not in the paper. epoll's O(ready) wait should match or beat /dev/poll under heavy inactive load.",
			Metric: MetricReplyRate,
			Rates:  rates,
			Curves: []Curve{{Label: string(ServerThttpdEpoll), Server: ServerThttpdEpoll, Inactive: 501}},
		},
		{
			ID:     "fig16",
			Number: 16,
			Title:  "Extension: event mechanisms compared at 501 inactive connections",
			Paper:  "Not in the paper. Stock poll collapses, /dev/poll and both epoll modes sustain the load.",
			Metric: MetricReplyRate,
			Rates:  rates,
			Curves: []Curve{
				{Label: "normal poll", Server: ServerThttpdPoll, Inactive: 501},
				{Label: "devpoll", Server: ServerThttpdDevPoll, Inactive: 501},
				{Label: "epoll", Server: ServerThttpdEpoll, Inactive: 501},
				{Label: "epoll-et", Server: ServerThttpdEpollET, Inactive: 501},
			},
		},
	}
}

// SweepOptions control how a figure is regenerated; the zero value runs the
// figure as defined.
type SweepOptions struct {
	// Connections per point; zero selects the figure's own count, else 4000
	// (the scaled-down default). Use 35000 to reproduce the paper's full
	// procedure.
	Connections int
	// Rates overrides the figure's request-rate sweep (useful for quick runs).
	Rates []float64
	// Workers overrides the worker-count sweep of the worker-scaling figures
	// and rebuilds the prefork curves of the prefork overload figure.
	Workers []int
	// Backend, when non-empty, re-parameterises each curve's server onto the
	// named eventlib backend (see RetargetKind): thttpd curves switch their
	// event backend, hybrid curves their bulk poller, prefork curves their
	// per-worker backend. The name must be valid — callers validate it
	// against the registry first; the drivers panic on an unknown name.
	Backend string
	// Workload, when non-empty, re-runs every point under the named loadgen
	// workload scenario instead of the figure's own. The name must be valid
	// (loadgen.LookupWorkload).
	Workload string
	// Seed for the load generator; zero selects 1.
	Seed int64
	// HTTP and Client apply a persistent-connection configuration to every
	// curve that does not carry its own (the -keepalive/-cache-kb/
	// -write-mode/-requests-per-conn/-pipeline-depth flags). Client.
	// RequestsPerConn > 1 or Client.PipelineDepth > 1 implies keep-alive;
	// keep-alive alone defaults to KeepAliveRequests per connection.
	// Client.Retry (the -retry flag) applies to every curve.
	HTTP   httpcore.Options
	Client loadgen.ClientProfile

	// Fanout overrides the push workload's per-tick fan-out on push-* curves
	// and ChurnRate the churn workload's join rate on dht-* curves (the
	// -fanout and -churn-rate flags). Zero keeps the workload's own values; a
	// figure's own churn axis (fig39) wins over ChurnRate.
	Fanout    int
	ChurnRate float64

	// Faults applies a fault-injection configuration to every point (the
	// -fault-* flags). A chaos figure's own base config and swept axis win
	// over it; the zero value injects nothing.
	Faults faults.Config

	// Threads is the number of OS threads driving each point's simulation;
	// values below 2 select the sequential engine. Deterministic metrics are
	// byte-identical across thread counts (see RunSpec.Threads).
	Threads int
	// Progress, when non-nil, receives a line per completed point.
	Progress func(format string, args ...interface{})
}

// pointSpec builds the spec shared by one curve's points: the sweep and
// figure defaults, the curve's or the sweep's HTTP and client configuration,
// and the sweep-wide fault, fan-out, churn and thread settings. The caller
// sets the x-axis knob.
func (o SweepOptions) pointSpec(curve Curve, connections int, workload string) RunSpec {
	if o.Connections > 0 {
		connections = o.Connections
	}
	if connections <= 0 {
		connections = 4000
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	spec := RunSpec{
		Server:      curve.Server,
		Inactive:    curve.Inactive,
		Connections: connections,
		Seed:        seed,
		Workload:    workload,
		Threads:     o.Threads,
		FanoutSize:  o.Fanout,
		ChurnRate:   o.ChurnRate,
		Faults:      o.Faults,
		Client:      o.Client,
	}
	if curve.HTTP != (httpcore.Options{}) || curve.Client.RequestsPerConn > 0 {
		spec.HTTP = curve.HTTP
		spec.Client.RequestsPerConn = curve.Client.RequestsPerConn
		spec.Client.PipelineDepth = curve.Client.PipelineDepth
		return spec
	}
	spec.HTTP = o.HTTP
	spec.HTTP.KeepAlive = o.HTTP.KeepAlive || o.Client.RequestsPerConn > 1 || o.Client.PipelineDepth > 1
	if spec.HTTP.KeepAlive && spec.Client.RequestsPerConn <= 1 {
		spec.Client.RequestsPerConn = KeepAliveRequests
	}
	return spec
}

// retarget re-parameterises kind onto backend (see RetargetKind); the empty
// backend keeps kind. The name is documented as caller-validated, and running
// the wrong configuration while claiming the requested one would silently
// corrupt results, so an unknown name panics like Run.
func retarget(kind ServerKind, backend string) ServerKind {
	if backend == "" {
		return kind
	}
	kind, err := RetargetKind(kind, backend)
	if err != nil {
		panic(err)
	}
	return kind
}

// FigureResult holds everything needed to print or compare one regenerated
// figure.
type FigureResult struct {
	Figure Figure
	// Series holds the labelled series of every curve: three per curve for
	// reply-rate figures (average, minimum, maximum, mirroring the error bars
	// and min/max marks in the paper's graphs), two for reply-and-p99 figures,
	// one otherwise.
	Series []metrics.Series
	// Runs holds the raw per-point results, keyed in sweep order.
	Runs []RunResult
}

// RunFigure regenerates one figure by sweeping its x axis for each of its
// curves. opts.Workload, when non-empty, overrides the figure's own workload.
func RunFigure(fig Figure, opts SweepOptions) FigureResult {
	fig = fig.withWorkerCounts(opts.Workers)
	rates := fig.Rates
	if len(opts.Rates) > 0 {
		rates = opts.Rates
	}
	workload := fig.Workload
	if opts.Workload != "" {
		workload = opts.Workload
	}
	_, xlabel, xs := fig.axis(rates)
	out := FigureResult{Figure: fig}
	for _, curve := range fig.Curves {
		if kind := retarget(curve.Server, opts.Backend); kind != curve.Server {
			// The label must name what actually ran, not the figure's
			// original mechanism.
			if curve.Label == string(curve.Server) {
				curve.Label = string(kind)
			} else {
				curve.Label += " [" + string(kind) + "]"
			}
			curve.Server = kind
		}
		base := opts.pointSpec(curve, fig.Connections, workload)
		if fig.PortSpace > 0 {
			netCfg := netsim.DefaultConfig()
			netCfg.PortSpace = fig.PortSpace
			base.Network = &netCfg
		}
		if fig.Fault != "" && fig.Faults.Enabled() {
			base.Faults = fig.Faults
		}
		ss := fig.Metric.series(curve.Label, xlabel)
		for _, x := range xs {
			spec := base
			spec.RequestRate = x
			switch {
			case fig.Fault != "":
				spec.RequestRate = rates[0]
				applyFaultAxis(&spec, fig.Fault, x)
			case len(fig.Churn) > 0:
				spec.RequestRate = rates[0]
				spec.ChurnRate = x
			}
			res := Run(spec)
			out.Runs = append(out.Runs, res)
			fig.Metric.observe(ss, x, res)
			if opts.Progress != nil {
				tag := fig.ID
				if workload != "" {
					tag += " [" + workload + "]"
				}
				opts.Progress("%s %s", tag, Describe(res))
			}
		}
		out.Series = append(out.Series, ss...)
	}
	return out
}

// Format renders a figure result as the aligned text table the command-line
// tool prints and EXPERIMENTS.md records.
func Format(res FigureResult) string {
	fig := res.Figure
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE %d (%s): %s\npaper: %s\n", fig.Number, fig.ID, fig.Title, fig.Paper)
	if fig.Metric != MetricReplyP99 {
		fmt.Fprintf(&b, "metric: %s\n", fig.Metric)
		writeTable(&b, "rate", 22, res.Series)
		return b.String()
	}
	workload := fig.Workload
	if len(res.Runs) > 0 && res.Runs[0].Spec.Workload != "" {
		workload = res.Runs[0].Spec.Workload
	}
	fmt.Fprintf(&b, "metric: %s vs offered load, workload %s\n", fig.Metric, workload)
	if fig.Connections > 0 && len(res.Runs) > 0 {
		fmt.Fprintf(&b, "connections: %d per point\n", res.Runs[0].Spec.Connections)
	}
	// Backend retargeting lengthens curve labels; widen every column to the
	// longest so the header stays over its data.
	width := 26
	for _, s := range res.Series {
		if len(s.Label)+2 > width {
			width = len(s.Label) + 2
		}
	}
	xname, _, _ := fig.axis(nil)
	writeTable(&b, xname, width, res.Series)
	return b.String()
}

// writeTable renders series as an aligned table: one row per x value present
// in any series, one width-wide column per series. Fractional x values (a
// 0.02 fault rate) print with two decimals, whole ones as integers.
func writeTable(b *strings.Builder, xname string, width int, series []metrics.Series) {
	seen := map[float64]bool{}
	for _, s := range series {
		for _, x := range s.X {
			seen[x] = true
		}
	}
	xs := make([]float64, 0, len(seen))
	for x := range seen {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	xfmt := "%-12.0f"
	for _, x := range xs {
		if x != float64(int64(x)) {
			xfmt = "%-12.2f"
			break
		}
	}
	fmt.Fprintf(b, "%-12s", xname)
	for _, s := range series {
		fmt.Fprintf(b, "%*s", width, s.Label)
	}
	b.WriteString("\n")
	for _, x := range xs {
		fmt.Fprintf(b, xfmt, x)
		for _, s := range series {
			if y, ok := s.YAt(x); ok {
				fmt.Fprintf(b, "%*.1f", width, y)
			} else {
				fmt.Fprintf(b, "%*s", width, "-")
			}
		}
		b.WriteString("\n")
	}
}

// FormatPercentiles renders the per-point latency-percentile table the
// -percentiles flag appends below a figure: the client-observed connection
// distribution next to the server-side service distribution for every run.
func FormatPercentiles(runs []RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %6s %6s %10s | %9s %9s %9s %9s %9s | %9s %9s\n",
		"server", "rate", "load", "workload",
		"p50 ms", "p90 ms", "p99 ms", "p999 ms", "max ms", "svc p99", "svc p999")
	for _, r := range runs {
		wl := r.Spec.Workload
		if wl == "" {
			wl = "constant"
		}
		fmt.Fprintf(&b, "%-18s %6.0f %6d %10s | %9.2f %9.2f %9.2f %9.2f %9.2f | %9.2f %9.2f\n",
			r.Spec.Server, r.Spec.RequestRate, r.Spec.Inactive, wl,
			r.Latency.P50, r.Latency.P90, r.Latency.P99, r.Latency.P999, r.Latency.Max,
			r.ServiceLatency.P99, r.ServiceLatency.P999)
	}
	return b.String()
}
