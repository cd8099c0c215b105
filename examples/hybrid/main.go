// Hybrid: a load ramp across the RT-signal/devpoll crossover.
//
// The paper's §4 imagines a server that uses RT signals while lightly loaded
// (for their latency advantage) and polling once load grows (for its
// throughput advantage), using the RT signal queue as the load indicator. This
// example runs that server — internal/servers/dual's Mirror policy, built
// following §6's prescriptions — against a request-rate ramp and reports, per
// step, the reply rate, the mode it ran in, and the switching it performed.
package main

import (
	"fmt"

	"repro/internal/experiments"
)

func main() {
	fmt.Println("hybrid server under a request-rate ramp, 251 inactive connections")
	fmt.Printf("%8s %12s %8s %12s %18s %18s\n",
		"rate", "reply avg", "err%", "median ms", "switches→devpoll", "final mode")

	// A small queue makes the crossover visible at ramp scale, the way §4
	// proposes using the queue limit itself as the trigger.
	cfg := experiments.DualConfig(experiments.ServerHybrid)
	cfg.QueueLimit = 64
	for _, rate := range []float64{400, 700, 1000, 1300} {
		spec := experiments.RunSpec{
			Server:      experiments.ServerHybrid,
			RequestRate: rate,
			Inactive:    251,
			Connections: 2500,
			Seed:        7,
			Dual:        &cfg,
		}
		res := experiments.Run(spec)
		fmt.Printf("%8.0f %12.1f %8.1f %12.2f %18d %18s\n",
			rate, res.Load.ReplyRate.Mean, res.Load.ErrorPercent,
			res.Load.MedianLatencyMs, res.SwitchesToPoll, res.FinalMode)
	}

	fmt.Println("\nacross the ramp the hybrid keeps /dev/poll-class throughput; it stays in its")
	fmt.Println("low-latency RT-signal mode while it can and crosses over to /dev/poll when the")
	fmt.Println("signal queue backs up or overflows (see examples/overload for a burst that")
	fmt.Println("forces the crossover, and internal/servers/dual for the §4/§6 policy)")
}
