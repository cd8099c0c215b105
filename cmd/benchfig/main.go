// Command benchfig regenerates the evaluation: any of the paper's figures
// (4 through 14), the extension figures (15+: epoll, prefork scaling,
// overload workloads, keep-alive, scale, mostly-idle and chaos families) or
// the ablation studies described in DESIGN.md. Each figure sweeps its request
// rate (or worker count, churn rate or fault knob) and prints the resulting
// data series as a text table, suitable for pasting into EXPERIMENTS.md.
//
// Usage:
//
//	benchfig -fig 8                 # quick, scaled-down run of Figure 8
//	benchfig -fig 8,9,10            # several figures, one table each
//	benchfig -fig all               # every figure that does not pin its own connection count
//	benchfig -fig 16                # extension: all four mechanisms incl. epoll
//	benchfig -fig 17 -workers 1,2,4 # extension: prefork worker scaling
//	benchfig -fig 20                # overload: flash-crowd bursts, four mechanisms
//	benchfig -fig 12 -workload slowloris  # re-run a paper figure under an adversarial workload
//	benchfig -fig 19 -percentiles   # append the per-point latency percentile table
//	benchfig -fig 32                # keep-alive vs HTTP/1.0 at the knee
//	benchfig -fig 16 -keepalive     # re-run a figure on the persistent hot path
//	benchfig -fig 10 -connections 35000   # the paper's full-size procedure
//	benchfig -fig 37                # server push at 100k mostly-idle members
//	benchfig -fig 39 -churn-rate 400      # datagram churn, custom join rate
//	benchfig -ablation              # every ablation study
//	benchfig -ablation-id hints     # one ablation study
//	benchfig -list                  # list available figures
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/eventlib"
	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/profiling"
	"repro/internal/servers/httpcore"
)

func main() {
	catalogue := experiments.Catalogue()
	var figs []experiments.Entry
	flag.Func("fig", figHelp(catalogue), func(s string) error {
		for _, id := range strings.Split(s, ",") {
			if strings.TrimSpace(id) == "all" {
				for _, e := range catalogue {
					if !e.PinsConnections() {
						figs = append(figs, e)
					}
				}
				continue
			}
			e, err := experiments.Lookup(id)
			if err != nil {
				return err
			}
			figs = append(figs, e)
		}
		return nil
	})
	ablation := flag.Bool("ablation", false, "run every ablation study instead of figures")
	ablationID := flag.String("ablation-id", "", "run a single ablation study by id")
	list := flag.Bool("list", false, "list available figures and exit")
	listBackends := flag.Bool("list-backends", false, "list registered event backends and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list registered workload scenarios and exit")
	percentiles := flag.Bool("percentiles", false, "append the per-point latency percentile table (p50/p90/p99/p999, client and service side)")
	quiet := flag.Bool("quiet", false, "suppress all progress output on stderr")
	var prof profiling.Config
	flag.StringVar(&prof.CPU, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	flag.StringVar(&prof.Mem, "memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	flag.StringVar(&prof.Mutex, "mutexprofile", "", "write a pprof mutex-contention profile (taken at exit) to this file")
	flag.StringVar(&prof.Block, "blockprofile", "", "write a pprof blocking profile (taken at exit) to this file")

	var opts experiments.SweepOptions
	flag.IntVar(&opts.Connections, "connections", 0, "benchmark connections per point (0 = the figure's own default: 4000 for most figures, 10000-30000 for the scale family, 100000-1000000 for the massive-scale family, 4000 for the ablations; paper: 35000)")
	flag.IntVar(&opts.Threads, "threads", 1, "OS threads per simulated point (>=2 shards the event kernel; figures are byte-identical across thread counts)")
	flag.Int64Var(&opts.Seed, "seed", 1, "load generator seed")
	flag.Func("rates", "comma-separated request rates overriding the figure's sweep", func(s string) error {
		for _, part := range strings.Split(s, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return err
			}
			opts.Rates = append(opts.Rates, v)
		}
		return nil
	})
	flag.Func("workers", "comma-separated worker counts overriding the scaling figures' 1,2,4,8 sweep", func(s string) (err error) {
		opts.Workers, err = experiments.ParseWorkerCounts(s)
		return err
	})
	flag.Func("backend", "re-run the figure's thttpd/hybrid/prefork/push/dht curves on this eventlib backend (see -list-backends)", func(s string) error {
		if _, ok := eventlib.Lookup(s); !ok {
			return eventlib.UnknownBackendError(s)
		}
		opts.Backend = s
		return nil
	})
	flag.Func("workload", "run every point under this loadgen workload (see -list-workloads)", func(s string) error {
		if _, ok := loadgen.LookupWorkload(s); !ok {
			return loadgen.UnknownWorkloadError(s)
		}
		opts.Workload = s
		return nil
	})
	flag.BoolVar(&opts.HTTP.KeepAlive, "keepalive", false, "serve every curve over HTTP/1.1 keep-alive connections (default 8 requests per connection; curves with their own persistent-connection config keep it)")
	flag.IntVar(&opts.Client.RequestsPerConn, "requests-per-conn", 0, "requests each client connection issues (>1 implies -keepalive)")
	flag.IntVar(&opts.Client.PipelineDepth, "pipeline-depth", 0, "requests the keep-alive client keeps outstanding (>1 implies -keepalive)")
	flag.IntVar(&opts.HTTP.CacheKB, "cache-kb", 0, "server response-cache capacity in KB (0 = the legacy no-file-charge model)")
	flag.Func("write-mode", "server write path: copy, writev or sendfile (default writev)", func(s string) (err error) {
		opts.HTTP.WriteMode, err = httpcore.ParseWriteMode(s)
		return err
	})
	flag.IntVar(&opts.Fanout, "fanout", 0, "members the push server fans out to per tick (push figures; 0 = the workload's default)")
	flag.Float64Var(&opts.ChurnRate, "churn-rate", 0, "peer join rate in peers/s (dhtchurn figures; 0 = the workload's default; fig39's churn axis wins)")
	flag.BoolVar(&opts.Client.Retry, "retry", false, "clients retry failed connections with deterministic capped exponential backoff (3 attempts, 100ms base)")
	flag.Uint64Var(&opts.Faults.Seed, "fault-seed", 1, "fault-injection seed (consulted only when some -fault-* knob is set)")
	flag.Float64Var(&opts.Faults.EINTRRate, "fault-eintr", 0, "probability one blocking wait is interrupted (EINTR) and restarted")
	flag.Float64Var(&opts.Faults.AcceptEAGAINRate, "fault-accept-eagain", 0, "probability one accept fails spuriously with EAGAIN")
	flag.Float64Var(&opts.Faults.ReadEAGAINRate, "fault-read-eagain", 0, "probability one read fails spuriously with EAGAIN")
	flag.Float64Var(&opts.Faults.WriteEAGAINRate, "fault-write-eagain", 0, "probability one write accepts nothing (EAGAIN)")
	flag.IntVar(&opts.Faults.FDLimit, "fault-fdlimit", 0, "per-process RLIMIT_NOFILE: accept fails with EMFILE at the limit (0 = unlimited)")
	flag.Float64Var(&opts.Faults.ResetRate, "fault-reset", 0, "fraction of benchmark connections reset (RST) mid-exchange")
	flag.Float64Var(&opts.Faults.VanishRate, "fault-vanish", 0, "fraction of benchmark connections whose peer silently vanishes")
	flag.Float64Var(&opts.Faults.OverflowStormRate, "fault-overflow-storm", 0, "probability one RT-signal/completion-ring post is swallowed by an injected queue overflow")
	flag.Parse()

	switch {
	case *list:
		for _, e := range catalogue {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	case *listBackends:
		fmt.Println(eventlib.DescribeBackends(""))
		return
	case *listWorkloads:
		for _, w := range loadgen.Workloads() {
			fmt.Printf("%-11s %s\n", w.Name, w.Description)
		}
		return
	}

	// The ablations' own zero-fallback is 3000; their historical default here
	// is 4000, so default ablation outputs stay unchanged.
	ablConns := opts.Connections
	if ablConns <= 0 {
		ablConns = 4000
	}
	var ablations []experiments.Ablation
	switch {
	case *ablationID != "":
		a, err := experiments.AblationByID(*ablationID, ablConns)
		if err != nil {
			fail(err)
		}
		ablations = []experiments.Ablation{a}
	case *ablation:
		ablations = experiments.Ablations(ablConns)
	case len(figs) == 0:
		fail(fmt.Errorf("-fig or -ablation is required (use -list to see figures)"))
	}

	// With -quiet the progress callback stays nil everywhere, so nothing can
	// reach stderr; without it every point prints one line.
	if !*quiet {
		opts.Progress = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// Inputs are validated above, so an input error cannot leave a truncated
	// profile behind.
	defer profiling.StartAll(prof)()

	if len(ablations) > 0 {
		for _, a := range ablations {
			fmt.Println(experiments.FormatAblation(experiments.RunAblation(a, opts.Progress)))
		}
		return
	}
	for i, e := range figs {
		if i > 0 {
			fmt.Println()
		}
		table, runs := e.Run(opts)
		fmt.Print(table)
		if *percentiles {
			fmt.Print(experiments.FormatPercentiles(runs))
		}
	}
}

// figHelp derives the -fig usage text from the catalogue's figure range.
func figHelp(catalogue []experiments.Entry) string {
	lo, hi := catalogue[0].Number, catalogue[0].Number
	for _, e := range catalogue {
		lo, hi = min(lo, e.Number), max(hi, e.Number)
	}
	return fmt.Sprintf("comma-separated figures to regenerate (%d..%d or fig%02d..fig%02d), or all: every figure that does not pin its own connection count", lo, hi, lo, hi)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "benchfig: %v\n", err)
	os.Exit(2)
}
