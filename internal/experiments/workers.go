package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
)

// WorkerCurve is one plotted configuration of a worker-scaling figure: an
// accept-distribution architecture plus a sharding policy.
type WorkerCurve struct {
	Label string
	Mode  thttpd.Mode
	Shard netsim.ShardPolicy
	// Backend names the per-worker eventlib backend; empty selects epoll.
	Backend string
}

// WorkerFigure describes a figure whose x axis is the worker count rather
// than the request rate: the SMP extension the paper's uniprocessor testbed
// could not measure.
type WorkerFigure struct {
	ID     string
	Number int
	Title  string
	Paper  string
	// Rate is the offered request rate, chosen well above a single worker's
	// capacity so scaling is visible; Inactive is the idle-connection load.
	Rate     float64
	Inactive int
	Workers  []int
	Curves   []WorkerCurve
	// PlotUtilization adds a mean per-CPU utilisation series per curve.
	PlotUtilization bool
}

// DefaultWorkerCounts is the worker sweep used by the scaling figures.
func DefaultWorkerCounts() []int { return []int{1, 2, 4, 8} }

// ParseWorkerCounts parses a comma-separated worker-count list ("1,2,4,8")
// against the same bounds resolveKind enforces for prefork kinds. An empty
// string returns nil (use the figure's default sweep).
func ParseWorkerCounts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 || v > 64 {
			return nil, fmt.Errorf("experiments: bad worker count %q (want 1..64)", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// workerFigures returns the figure-17 family: reply-rate and utilisation
// scaling with worker count, and the accept-sharding ablation. Numbers
// continue after the extension figures so identifiers stay unambiguous.
func workerFigures() []WorkerFigure {
	return []WorkerFigure{
		{
			ID:     "fig17",
			Number: 17,
			Title:  "Extension: prefork worker scaling, 1500 inactive connections, 3000 req/s offered",
			Paper: "Not in the paper, whose testbed is a uniprocessor. N epoll workers on N CPUs " +
				"(SO_REUSEPORT sharding) should lift the single-worker saturation point near-linearly " +
				"until capacity meets the offered load; per-CPU utilisation falls once it does.",
			Rate:            3000,
			Inactive:        1500,
			Workers:         DefaultWorkerCounts(),
			Curves:          []WorkerCurve{{Label: "reuseport-hash", Mode: thttpd.ModeReuseport, Shard: netsim.ShardHash}},
			PlotUtilization: true,
		},
		{
			ID:     "fig18",
			Number: 18,
			Title:  "Extension: accept-sharding policy ablation, 1500 inactive connections, 3000 req/s offered",
			Paper: "Not in the paper. SO_REUSEPORT hash sharding versus idealised round-robin dispatch " +
				"versus the classic single-acceptor handoff: the handoff's serialised accept path and " +
				"per-connection descriptor passing cost it the scaling the in-stack policies keep.",
			Rate:     3000,
			Inactive: 1500,
			Workers:  DefaultWorkerCounts(),
			Curves: []WorkerCurve{
				{Label: "reuseport-hash", Mode: thttpd.ModeReuseport, Shard: netsim.ShardHash},
				{Label: "reuseport-rr", Mode: thttpd.ModeReuseport, Shard: netsim.ShardRoundRobin},
				{Label: "handoff", Mode: thttpd.ModeHandoff, Shard: netsim.ShardHash},
			},
		},
	}
}

// WorkerFigureResult holds one regenerated worker-scaling figure.
type WorkerFigureResult struct {
	Figure WorkerFigure
	Series []metrics.Series
	Runs   []RunResult
}

// RunWorkerFigure regenerates one worker-scaling figure by sweeping the
// worker count for each of its curves at the figure's fixed offered rate.
// opts.Workers overrides the figure's worker counts and opts.Backend every
// curve's per-worker backend; the rest of opts applies as for RunFigure.
func RunWorkerFigure(fig WorkerFigure, opts SweepOptions) WorkerFigureResult {
	workers := fig.Workers
	if len(opts.Workers) > 0 {
		workers = opts.Workers
	}
	out := WorkerFigureResult{Figure: fig}
	for _, curve := range fig.Curves {
		backend := curve.Backend
		if opts.Backend != "" {
			backend = opts.Backend
		}
		label := curve.Label
		if backend != "" && backend != "epoll" {
			label += " [" + backend + "]"
		}
		base := opts.pointSpec(Curve{Inactive: fig.Inactive}, 0, opts.Workload)
		base.RequestRate = fig.Rate
		base.PreforkMode = curve.Mode
		netCfg := netsim.DefaultConfig()
		netCfg.Shard = curve.Shard
		base.Network = &netCfg
		ss := MetricReplyRate.series(label, "workers")
		util := metrics.Series{Label: label + " (cpu%)", XLabel: "workers", YLabel: "mean per-CPU utilisation (percent)"}
		for _, n := range workers {
			spec := base
			spec.Server = retarget(PreforkKind(n), backend)
			res := Run(spec)
			out.Runs = append(out.Runs, res)
			x := float64(n)
			MetricReplyRate.observe(ss, x, res)
			util.Append(x, 100*res.CPUUtilization)
			if opts.Progress != nil {
				opts.Progress("%s workers=%d %s", fig.ID, n, Describe(res))
			}
		}
		out.Series = append(out.Series, ss...)
		if fig.PlotUtilization {
			out.Series = append(out.Series, util)
		}
	}
	return out
}

// FormatWorkers renders a worker-scaling figure result as an aligned text
// table, the shape Format gives the rate figures.
func FormatWorkers(res WorkerFigureResult) string {
	fig := res.Figure
	var b strings.Builder
	fmt.Fprintf(&b, "FIGURE %d (%s): %s\npaper: %s\n", fig.Number, fig.ID, fig.Title, fig.Paper)
	fmt.Fprintf(&b, "metric: %s vs workers at %.0f req/s, %d inactive\n", MetricReplyRate, fig.Rate, fig.Inactive)
	writeTable(&b, "workers", 28, res.Series)
	return b.String()
}
