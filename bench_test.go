// Package repro's top-level benchmarks run points of the paper's figures
// (Figures 4 through 14), of the extension families (epoll, compio, hybrid,
// keep-alive, prefork scaling, overload workloads, scale) and of the
// ablation studies listed in DESIGN.md. Each benchmark iteration runs one
// complete benchmark point (server + load generator inside the
// discrete-event simulation) and reports, alongside ns/op, the
// reproduction's own metrics as custom units:
//
//	replies/s      average reply rate (what Figures 4-9 and 11-13 plot)
//	err%           failed connection percentage (Figure 10)
//	median-ms      median connection time (Figure 14)
//	p99-ms         p99 connection time (the overload figures, 19+)
//	cpu%           mean per-CPU utilisation
//
// Reduced-size runs are used so `go test -bench=. -benchmem` finishes in
// minutes; pass -figconns to scale up (the paper used 35000 connections per
// point). `go run ./cmd/benchfig` regenerates whole figures and ablation
// tables.
package repro

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/servers/httpcore"
	"repro/internal/servers/thttpd"
)

var figConns = flag.Int("figconns", 2500, "benchmark connections per figure point in bench runs")

// benchPoint runs one benchmark point per iteration and reports its metrics.
func benchPoint(b *testing.B, server experiments.ServerKind, rate float64, inactive int) {
	b.Helper()
	var last experiments.RunResult
	for i := 0; i < b.N; i++ {
		spec := experiments.RunSpec{
			Server:      server,
			RequestRate: rate,
			Inactive:    inactive,
			Connections: *figConns,
			Seed:        int64(i + 1),
		}
		last = experiments.Run(spec)
	}
	b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
	b.ReportMetric(last.Load.ErrorPercent, "err%")
	b.ReportMetric(last.Load.MedianLatencyMs, "median-ms")
	b.ReportMetric(last.Latency.P99, "p99-ms")
	b.ReportMetric(100*last.CPUUtilization, "cpu%")
}

// benchFigure sweeps the three representative rates of a figure's x axis (low,
// middle, high) as sub-benchmarks.
func benchFigure(b *testing.B, server experiments.ServerKind, inactive int) {
	b.Helper()
	for _, rate := range []float64{500, 800, 1100} {
		rate := rate
		b.Run(fmt.Sprintf("rate=%.0f", rate), func(b *testing.B) {
			benchPoint(b, server, rate, inactive)
		})
	}
}

// Figures 4, 6, 8: stock thttpd on poll() at inactive loads 1, 251, 501.
func BenchmarkFig04ThttpdPollLoad1(b *testing.B)   { benchFigure(b, experiments.ServerThttpdPoll, 1) }
func BenchmarkFig06ThttpdPollLoad251(b *testing.B) { benchFigure(b, experiments.ServerThttpdPoll, 251) }
func BenchmarkFig08ThttpdPollLoad501(b *testing.B) { benchFigure(b, experiments.ServerThttpdPoll, 501) }

// Figures 5, 7, 9: thttpd on /dev/poll at inactive loads 1, 251, 501.
func BenchmarkFig05ThttpdDevpollLoad1(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdDevPoll, 1)
}
func BenchmarkFig07ThttpdDevpollLoad251(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdDevPoll, 251)
}
func BenchmarkFig09ThttpdDevpollLoad501(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdDevPoll, 501)
}

// Figure 10: error percentage, poll vs /dev/poll at loads 251 and 501. The
// err% metric of each sub-benchmark is the figure's y value.
func BenchmarkFig10ErrorRate(b *testing.B) {
	curves := []struct {
		name     string
		server   experiments.ServerKind
		inactive int
	}{
		{"poll-load251", experiments.ServerThttpdPoll, 251},
		{"devpoll-load251", experiments.ServerThttpdDevPoll, 251},
		{"poll-load501", experiments.ServerThttpdPoll, 501},
		{"devpoll-load501", experiments.ServerThttpdDevPoll, 501},
	}
	for _, c := range curves {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchPoint(b, c.server, 1000, c.inactive)
		})
	}
}

// Figures 11, 12, 13: phhttpd (RT signals) at inactive loads 1, 251, 501.
func BenchmarkFig11PhhttpdLoad1(b *testing.B)   { benchFigure(b, experiments.ServerPhhttpd, 1) }
func BenchmarkFig12PhhttpdLoad251(b *testing.B) { benchFigure(b, experiments.ServerPhhttpd, 251) }
func BenchmarkFig13PhhttpdLoad501(b *testing.B) { benchFigure(b, experiments.ServerPhhttpd, 501) }

// Figure 14: median connection time at load 251 for the three servers; the
// median-ms metric of each sub-benchmark is the figure's y value.
func BenchmarkFig14MedianLatency(b *testing.B) {
	curves := []struct {
		name   string
		server experiments.ServerKind
	}{
		{"devpoll", experiments.ServerThttpdDevPoll},
		{"normal-poll", experiments.ServerThttpdPoll},
		{"phhttpd", experiments.ServerPhhttpd},
	}
	for _, c := range curves {
		c := c
		for _, rate := range []float64{700, 1000} {
			rate := rate
			b.Run(fmt.Sprintf("%s/rate=%.0f", c.name, rate), func(b *testing.B) {
				benchPoint(b, c.server, rate, 251)
			})
		}
	}
}

// Extension: the hybrid server of §4, which the paper could not evaluate.
func BenchmarkExtHybridLoad501(b *testing.B) { benchFigure(b, experiments.ServerHybrid, 501) }

// Extensions: thttpd on epoll, the mechanism Linux ultimately adopted, in both
// trigger modes, plus the hybrid server running epoll as its bulk poller
// (Figures 15 and 16 of the extension set).
func BenchmarkExtThttpdEpollLoad501(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdEpoll, 501)
}
func BenchmarkExtThttpdEpollETLoad501(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdEpollET, 501)
}
func BenchmarkExtHybridEpollLoad501(b *testing.B) {
	benchFigure(b, experiments.ServerHybridEpoll, 501)
}

// Extension: thttpd on the completion-ring mechanism (compio), the
// io_uring-shaped fifth backend — batched submission, per-batch completion
// posting, registered buffers.
func BenchmarkExtThttpdCompioLoad501(b *testing.B) {
	benchFigure(b, experiments.ServerThttpdCompio, 501)
}

// Extension: the persistent-connection hot path (figure-32 family). Each
// sub-benchmark runs thttpd/epoll at the overload knee under 501 inactive
// connections; the variants walk the axes one at a time — HTTP/1.0 baseline,
// serial keep-alive, pipelined keep-alive, and pipelined keep-alive with the
// mmap response cache and sendfile write path. Connections counts offered
// requests, so every variant serves the same request budget.
func BenchmarkExtKeepAlive(b *testing.B) {
	serial := loadgen.ClientProfile{RequestsPerConn: experiments.KeepAliveRequests}
	pipelined := loadgen.ClientProfile{RequestsPerConn: experiments.KeepAliveRequests, PipelineDepth: experiments.KeepAliveRequests}
	variants := []struct {
		name string
		spec experiments.RunSpec
	}{
		{"http10", experiments.RunSpec{}},
		{"keepalive", experiments.RunSpec{
			HTTP:   httpcore.Options{KeepAlive: true},
			Client: serial,
		}},
		{"pipelined", experiments.RunSpec{
			HTTP:   httpcore.Options{KeepAlive: true},
			Client: pipelined,
		}},
		{"cached-sendfile", experiments.RunSpec{
			HTTP: httpcore.Options{
				KeepAlive: true,
				CacheKB:   64,
				WriteMode: httpcore.WriteSendfile,
			},
			Client: pipelined,
		}},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var last experiments.RunResult
			for i := 0; i < b.N; i++ {
				spec := v.spec
				spec.Server = experiments.ServerThttpdEpoll
				spec.RequestRate = 1300
				spec.Inactive = 501
				spec.Connections = *figConns
				spec.Seed = int64(i + 1)
				last = experiments.Run(spec)
			}
			b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
			b.ReportMetric(last.Load.ErrorPercent, "err%")
			b.ReportMetric(last.Load.MedianLatencyMs, "median-ms")
			b.ReportMetric(last.Latency.P99, "p99-ms")
			b.ReportMetric(100*last.CPUUtilization, "cpu%")
		})
	}
}

// Extension: thttpd with N workers, the prefork kinds (figure-17 family). Each
// sub-benchmark runs N epoll workers on N simulated CPUs under an offered
// load well above single-worker capacity, in both accept-distribution modes;
// replies/s is the scaling curve's y value.
func BenchmarkExtPreforkScaling(b *testing.B) {
	for _, mode := range []thttpd.Mode{thttpd.ModeReuseport, thttpd.ModeHandoff} {
		mode := mode
		for _, workers := range []int{1, 2, 4} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(b *testing.B) {
				var last experiments.RunResult
				for i := 0; i < b.N; i++ {
					spec := experiments.RunSpec{
						Server:      experiments.PreforkKind(workers),
						RequestRate: 3000,
						Inactive:    1500,
						Connections: *figConns,
						Seed:        int64(i + 1),
						PreforkMode: mode,
					}
					last = experiments.Run(spec)
				}
				b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
				b.ReportMetric(last.Load.ErrorPercent, "err%")
				b.ReportMetric(100*last.CPUUtilization, "cpu%")
			})
		}
	}
}

// Extension: the overload figure family (19+). One sub-benchmark per
// mechanism at a rate below and one past the uniprocessor knee, under the
// paper's constant workload; replies/s and p99-ms are the overload figures'
// two y values.
func BenchmarkExtOverloadKnee(b *testing.B) {
	servers := []experiments.ServerKind{
		experiments.ServerThttpdPoll,
		experiments.ServerThttpdDevPoll,
		experiments.ServerPhhttpd,
		experiments.ServerHybrid,
	}
	for _, server := range servers {
		server := server
		for _, rate := range []float64{700, 1300} {
			rate := rate
			b.Run(fmt.Sprintf("%s/rate=%.0f", server, rate), func(b *testing.B) {
				benchPoint(b, server, rate, 251)
			})
		}
	}
}

// Extension: the adversarial workload scenarios (figures 20-24). Each
// sub-benchmark runs one mechanism at a fixed mid-sweep rate under a named
// loadgen workload; the spread between a mechanism's constant-workload
// replies/s and its slowloris/stalled numbers is the adversarial tax.
func BenchmarkExtWorkloads(b *testing.B) {
	for _, workload := range []string{"flashcrowd", "pareto", "slowloris", "stalled", "wan"} {
		workload := workload
		for _, server := range []experiments.ServerKind{
			experiments.ServerThttpdPoll,
			experiments.ServerThttpdDevPoll,
		} {
			server := server
			b.Run(fmt.Sprintf("%s/%s", workload, server), func(b *testing.B) {
				var last experiments.RunResult
				for i := 0; i < b.N; i++ {
					spec := experiments.RunSpec{
						Server:      server,
						RequestRate: 1000,
						Inactive:    251,
						Connections: *figConns,
						Seed:        int64(i + 1),
						Workload:    workload,
					}
					last = experiments.Run(spec)
				}
				b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
				b.ReportMetric(last.Load.ErrorPercent, "err%")
				b.ReportMetric(last.Latency.P99, "p99-ms")
				b.ReportMetric(last.ServiceLatency.P99, "svc-p99-ms")
			})
		}
	}
}

// Extension: the scale family (figures 26-28). One sub-benchmark per
// connection count at a mid-sweep rate for a representative mechanism pair:
// the figures the optimized hot paths exist to make routine. Unlike the other
// benchmarks these ignore -figconns — the connection count IS the x axis.
func BenchmarkExtScale(b *testing.B) {
	for _, conns := range []int{10000, 20000, 30000} {
		conns := conns
		for _, server := range []experiments.ServerKind{
			experiments.ServerThttpdPoll,
			experiments.ServerThttpdEpoll,
		} {
			server := server
			b.Run(fmt.Sprintf("conns=%d/%s", conns, server), func(b *testing.B) {
				var last experiments.RunResult
				for i := 0; i < b.N; i++ {
					spec := experiments.RunSpec{
						Server:      server,
						RequestRate: 1000,
						Inactive:    251,
						Connections: conns,
						Seed:        int64(i + 1),
					}
					last = experiments.Run(spec)
				}
				b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
				b.ReportMetric(last.Load.ErrorPercent, "err%")
				b.ReportMetric(last.Latency.P99, "p99-ms")
				b.ReportMetric(100*last.CPUUtilization, "cpu%")
			})
		}
	}
}

// Extension: the massive-scale family's anchor (figures 29-31) — the
// 100k-connection point on the cheapest sustaining mechanism, run on the
// sharded parallel kernel with one thread per host core. This is the
// smoke-level proof that the parallel engine survives a full-size point; the
// simulated metrics it reports are bit-identical to a -threads 1 run. Like
// ExtScale it ignores -figconns — the connection count is the point. The
// port space widens the way the massive-scale figures' own does: TIME-WAIT
// holds rate x 61s of ports at this size.
func BenchmarkExtMassiveScale(b *testing.B) {
	netCfg := netsim.DefaultConfig()
	netCfg.PortSpace = 2*100000 + 100000
	b.Run("conns=100000/thttpd-epoll", func(b *testing.B) {
		var last experiments.RunResult
		for i := 0; i < b.N; i++ {
			last = experiments.Run(experiments.RunSpec{
				Server:      experiments.ServerThttpdEpoll,
				RequestRate: 1000,
				Inactive:    251,
				Connections: 100000,
				Threads:     runtime.NumCPU(),
				Network:     &netCfg,
				Seed:        int64(i + 1),
			})
		}
		b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
		b.ReportMetric(last.Load.ErrorPercent, "err%")
		b.ReportMetric(last.Latency.P99, "p99-ms")
		b.ReportMetric(float64(last.Threads), "threads")
	})
}

// Ablation benchmarks: one sub-benchmark per variant, so `-bench Ablation`
// prints the design-choice comparisons from DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	for _, a := range experiments.Ablations(*figConns) {
		a := a
		for _, v := range a.Variants {
			v := v
			b.Run(a.ID+"/"+v.Label, func(b *testing.B) {
				var last experiments.RunResult
				for i := 0; i < b.N; i++ {
					spec := v.Spec
					spec.Seed = int64(i + 1)
					last = experiments.Run(spec)
				}
				b.ReportMetric(last.Load.ReplyRate.Mean, "replies/s")
				b.ReportMetric(last.Load.ErrorPercent, "err%")
				b.ReportMetric(last.Load.MedianLatencyMs, "median-ms")
			})
		}
	}
}

// Micro-benchmarks of the mechanisms themselves (cost per wait as the idle
// interest set grows), complementing the end-to-end figure benchmarks.
func BenchmarkMechanismWaitCost(b *testing.B) {
	for _, inactive := range []int{64, 512} {
		inactive := inactive
		for _, server := range []experiments.ServerKind{
			experiments.ServerThttpdPoll,
			experiments.ServerThttpdDevPoll,
			experiments.ServerThttpdEpoll,
			experiments.ServerThttpdEpollET,
		} {
			server := server
			b.Run(fmt.Sprintf("%s/idle=%d", server, inactive), func(b *testing.B) {
				var last experiments.RunResult
				for i := 0; i < b.N; i++ {
					spec := experiments.RunSpec{
						Server:      server,
						RequestRate: 300, // light load: the wait path dominates
						Inactive:    inactive,
						Connections: 600,
						Seed:        int64(i + 1),
					}
					last = experiments.Run(spec)
				}
				perWait := float64(0)
				if last.Primary.Waits > 0 {
					perWait = float64(last.Primary.DriverPolls) / float64(last.Primary.Waits)
				}
				b.ReportMetric(perWait, "driver-polls/wait")
				b.ReportMetric(100*last.CPUUtilization, "cpu%")
			})
		}
	}
}
