// Overload: the RT signal queue, its overflow, and phhttpd's recovery.
//
// This example shrinks phhttpd's RT signal queue and hits the server with a
// synchronized burst of connections, demonstrating the overflow path the paper
// dissects in §6: SIGIO is raised, pending signals are flushed, every open
// connection is handed to the poll sibling one at a time, and the server ends
// its life in polling mode. It then repeats the burst against the hybrid
// server — the same RT-signal server under its Mirror policy — which keeps its
// /dev/poll interest set current and absorbs the same overload without the
// expensive handoff.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/servers/dual"
	"repro/internal/simkernel"
	"repro/internal/simtest"
)

// burst launches n simultaneous requests against the network's listener.
func burst(k *simkernel.Kernel, net *netsim.Network, n int) *int {
	served := new(int)
	for i := 0; i < n; i++ {
		cc := net.ConnectWith(k.Now(), netsim.ConnectOptions{}, &simtest.ConnHooks{
			OnPeerClosed: func(core.Time) { *served++ },
		})
		k.Sim.After(core.Millisecond, func(now core.Time) {
			cc.Send(now, httpsim.FormatRequest("/index.html"))
		})
	}
	return served
}

func main() {
	const burstSize = 80

	// --- phhttpd with a tiny RT signal queue -------------------------------
	k1 := simkernel.NewKernel(nil)
	net1 := netsim.New(k1, netsim.DefaultConfig())
	phCfg := dual.DefaultConfig(dual.Handoff)
	phCfg.QueueLimit = 8
	ph := dual.New(k1, net1, phCfg)
	ph.Start()
	k1.Sim.RunUntil(core.Time(10 * core.Millisecond))

	served1 := burst(k1, net1, burstSize)
	k1.Sim.RunUntil(core.Time(10 * core.Second))
	ph.Stop()

	q := ph.SignalQueue().MechanismStats()
	fmt.Println("phhttpd with an 8-entry RT signal queue, 80-connection burst:")
	fmt.Printf("  signals enqueued=%d dropped=%d overflows=%d\n", q.Enqueued, q.Dropped, q.Overflows)
	fmt.Printf("  recovery: handed %d descriptors to the poll sibling, final mode %q\n",
		ph.Handoffs, ph.ModeName())
	fmt.Printf("  served %d of %d (clients observed %d completions)\n\n",
		ph.Stats().Served, burstSize, *served1)

	// --- the hybrid server under the same burst ----------------------------
	k2 := simkernel.NewKernel(nil)
	net2 := netsim.New(k2, netsim.DefaultConfig())
	hyCfg := dual.DefaultConfig(dual.Mirror)
	hyCfg.QueueLimit = 8
	hyCfg.HighWater = 4
	hy := dual.New(k2, net2, hyCfg)
	hy.Start()
	k2.Sim.RunUntil(core.Time(10 * core.Millisecond))

	served2 := burst(k2, net2, burstSize)
	k2.Sim.RunUntil(core.Time(10 * core.Second))
	hy.Stop()

	fmt.Println("hybrid server with the same 8-entry queue and burst:")
	fmt.Printf("  switches to /dev/poll=%d, back to signals=%d, final mode %q\n",
		hy.SwitchesToPoll, hy.SwitchesToSignal, hy.ModeName())
	fmt.Printf("  served %d of %d (clients observed %d completions)\n",
		hy.Stats().Served, burstSize, *served2)
	fmt.Println("\nthe hybrid needs no per-connection handoff: its kernel interest set was maintained all along (§6)")
}
