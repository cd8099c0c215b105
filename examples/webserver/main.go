// Webserver: thttpd on /dev/poll versus stock poll() under inactive load.
//
// This example reproduces, in miniature, the experiment behind Figures 6-9 of
// the paper: the same web server, with one worker process as in the paper, is
// run twice — once on stock poll(), once on /dev/poll — against an
// httperf-like load of 1000 requests per second while 251 idle connections
// sit in its interest set. It prints the reply rate, error percentage and
// median latency for both, showing the /dev/poll advantage the paper
// measured.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
	"repro/internal/simkernel"
)

func run(label, backend string) loadgen.Result {
	k := simkernel.NewKernel(nil)
	net := netsim.New(k, netsim.DefaultConfig())

	cfg := thttpd.DefaultConfig()
	cfg.Backend = backend
	server := thttpd.New(k, net, cfg)
	server.Start()

	lcfg := loadgen.DefaultConfig(1000, 251)
	lcfg.Connections = 3000
	lcfg.SampleInterval = 500 * core.Millisecond
	lcfg.Profile.Timeout = core.Second
	gen := loadgen.New(k, net, lcfg)
	gen.OnDone(func(loadgen.Result) {
		server.Stop()
		k.Sim.Stop()
	})
	gen.Start(k.Now())
	k.Sim.RunUntil(core.Time(120 * core.Second))

	res := gen.Result()
	fmt.Printf("%-22s reply avg=%7.1f/s  errors=%5.1f%%  median=%7.2fms  served=%d\n",
		label, res.ReplyRate.Mean, res.ErrorPercent, res.MedianLatencyMs, server.Stats().Served)
	return res
}

func main() {
	fmt.Println("thttpd at 1000 req/s with 251 inactive connections (3000 benchmark connections)")
	stock := run("stock poll()", "poll")
	dev := run("/dev/poll", "devpoll")

	fmt.Printf("\n/dev/poll delivered %.2fx the reply rate at %.0fx lower median latency than stock poll()\n",
		dev.ReplyRate.Mean/stock.ReplyRate.Mean, stock.MedianLatencyMs/dev.MedianLatencyMs)
}
