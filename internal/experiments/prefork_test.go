package experiments

// Tests for the prefork server kinds and the worker-scaling (figure-17)
// machinery: kind resolution (prefork-N is thttpd with N workers),
// determinism of multi-worker runs, and the scaling acceptance the figure
// claims.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/servers/thttpd"
)

func TestResolvePreforkKinds(t *testing.T) {
	cases := []struct {
		kind    ServerKind
		workers int
		backend string
	}{
		{"prefork-1", 1, "epoll"},
		{"prefork-4", 4, "epoll"},
		{"prefork-2-epoll-et", 2, "epoll-et"},
		{"prefork-2-rtsig", 2, "rtsig"},
		{"prefork-8-devpoll", 8, "devpoll"},
	}
	for _, c := range cases {
		rk, err := resolveKind(c.kind)
		if err != nil {
			t.Fatalf("resolveKind(%q): %v", c.kind, err)
		}
		if rk.family != "thttpd" || rk.workers != c.workers || rk.backend != c.backend {
			t.Fatalf("resolveKind(%q) = %+v", c.kind, rk)
		}
	}
	for _, bad := range []ServerKind{"prefork-0", "prefork-65", "prefork-x", "prefork-2-kqueue", "prefork-"} {
		if err := ValidateServerKind(bad); err == nil || !strings.Contains(err.Error(), "choices") {
			t.Fatalf("ValidateServerKind(%q) = %v, want listed-choices error", bad, err)
		}
	}
	// One worker is the paper's single-process server: both spellings name
	// the same kind, so they build the same server.
	for _, pair := range [][2]ServerKind{
		{ServerThttpdEpoll, PreforkKind(1)},
		{ServerThttpdPoll, "prefork-1-poll"},
	} {
		a, errA := resolveKind(pair[0])
		b, errB := resolveKind(pair[1])
		if errA != nil || errB != nil || a != b {
			t.Fatalf("%s resolves to %+v (%v), %s to %+v (%v); want the same kind",
				pair[0], a, errA, pair[1], b, errB)
		}
	}
	if kind, err := RetargetKind("prefork-4", "epoll-et"); err != nil || kind != "prefork-4-epoll-et" {
		t.Fatalf("RetargetKind = %v, %v", kind, err)
	}
	if kind, err := RetargetKind("prefork-4-epoll-et", "epoll"); err != nil || kind != "prefork-4" {
		t.Fatalf("RetargetKind back = %v, %v", kind, err)
	}
	if kind, err := RetargetKind("prefork-1", "devpoll"); err != nil || kind != "prefork-1-devpoll" {
		t.Fatalf("RetargetKind(prefork-1) = %v, %v; want the prefork spelling kept", kind, err)
	}
	if kind, err := RetargetKind(ServerThttpdEpoll, "devpoll"); err != nil || kind != ServerThttpdDevPoll {
		t.Fatalf("RetargetKind(thttpd-epoll) = %v, %v", kind, err)
	}
}

// Two identical multi-worker benchmark points must produce identical results
// in every observable: the determinism the discrete-event scheduler promises.
func TestMultiWorkerRunsAreDeterministic(t *testing.T) {
	spec := RunSpec{Server: "prefork-4", RequestRate: 2500, Inactive: 251, Connections: 1500, Seed: 7}
	a, b := Run(spec), Run(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical prefork-4 runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Workers != 4 || len(a.PerCPUUtilization) != 4 || len(a.PerWorkerServed) != 4 {
		t.Fatalf("per-worker reporting incomplete: %+v", a)
	}
}

// The figure-17 acceptance claim: under heavy offered load, two workers serve
// at least 1.7x one worker's replies, and throughput is monotone through four
// workers. Run scaled down (the shape is load-ratio driven, not size driven).
func TestWorkerScalingMeetsAcceptance(t *testing.T) {
	reply := func(workers int) float64 {
		res := Run(RunSpec{
			Server:      PreforkKind(workers),
			RequestRate: 3000,
			Inactive:    1500,
			Connections: 2000,
			Seed:        1,
		})
		for _, u := range res.PerCPUUtilization {
			if u > 1 {
				t.Fatalf("workers=%d: per-CPU utilisation %v > 1", workers, u)
			}
		}
		return res.Load.ReplyRate.Mean
	}
	r1, r2, r4 := reply(1), reply(2), reply(4)
	if r2 < 1.7*r1 {
		t.Fatalf("2 workers reply %.1f < 1.7x single worker's %.1f", r2, r1)
	}
	if r4 < r2 {
		t.Fatalf("throughput not monotone: 4 workers %.1f < 2 workers %.1f", r4, r2)
	}
}

// The sharding-policy ablation must exercise all three variants and show the
// single-acceptor handoff costing throughput against in-stack sharding at the
// contended point.
func TestShardingPolicyAblation(t *testing.T) {
	point := func(mode thttpd.Mode, shard netsim.ShardPolicy) RunResult {
		netCfg := netsim.DefaultConfig()
		netCfg.Shard = shard
		return Run(RunSpec{
			Server:      "prefork-2",
			RequestRate: 3000,
			Inactive:    501,
			Connections: 1500,
			Seed:        1,
			Network:     &netCfg,
			PreforkMode: mode,
		})
	}
	hash := point(thttpd.ModeReuseport, netsim.ShardHash)
	rr := point(thttpd.ModeReuseport, netsim.ShardRoundRobin)
	handoff := point(thttpd.ModeHandoff, netsim.ShardHash)
	if handoff.Handoffs == 0 {
		t.Fatal("handoff mode performed no handoffs")
	}
	if hash.Handoffs != 0 {
		t.Fatal("reuseport mode should not hand connections off")
	}
	for _, res := range []RunResult{hash, rr} {
		if res.Load.ReplyRate.Mean < handoff.Load.ReplyRate.Mean*0.95 {
			t.Fatalf("in-stack sharding (%.1f) fell behind single-acceptor handoff (%.1f)",
				res.Load.ReplyRate.Mean, handoff.Load.ReplyRate.Mean)
		}
	}
}

func TestWorkerFigureDefinitions(t *testing.T) {
	figs := workerFigures()
	if len(figs) != 2 {
		t.Fatalf("worker figures = %d, want 2", len(figs))
	}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.Paper == "" || len(f.Curves) == 0 || len(f.Workers) == 0 {
			t.Fatalf("incomplete worker figure: %+v", f)
		}
	}
	if e, err := Lookup("fig04"); err != nil || e.Workers != nil {
		t.Fatalf("Lookup(fig04) = %+v, %v; want a rate figure", e, err)
	}
	res := RunWorkerFigure(WorkerFigure{
		ID: "figtest", Number: 99, Title: "t", Paper: "p",
		Rate: 1500, Inactive: 1, Workers: []int{1, 2},
		Curves:          []WorkerCurve{{Label: "c", Mode: thttpd.ModeReuseport, Shard: netsim.ShardHash}},
		PlotUtilization: true,
	}, SweepOptions{Connections: 400})
	if len(res.Series) != 4 || len(res.Runs) != 2 {
		t.Fatalf("series=%d runs=%d, want 4 and 2", len(res.Series), len(res.Runs))
	}
	text := FormatWorkers(res)
	if !strings.Contains(text, "workers") || !strings.Contains(text, "c (avg)") {
		t.Fatalf("FormatWorkers output malformed:\n%s", text)
	}
}
