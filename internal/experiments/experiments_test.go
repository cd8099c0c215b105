package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/servers/dual"
	"repro/internal/servers/httpcore"
)

// testConns keeps the integration runs quick while staying long enough to
// reach steady state.
const testConns = 1500

func spec(server ServerKind, rate float64, inactive int) RunSpec {
	s := DefaultSpec(server, rate, inactive)
	s.Connections = testConns
	return s
}

func TestRunProducesConsistentAccounting(t *testing.T) {
	res := Run(spec(ServerThttpdDevPoll, 600, 1))
	if res.Load.Issued != testConns {
		t.Fatalf("issued = %d", res.Load.Issued)
	}
	if res.Load.Completed+res.Load.Errors != res.Load.Issued {
		t.Fatalf("accounting: %+v", res.Load)
	}
	if res.Server.Served == 0 || res.EventLoops == 0 {
		t.Fatalf("server stats empty: %+v loops=%d", res.Server, res.EventLoops)
	}
	if res.CPUUtilization <= 0 || res.CPUUtilization > 1 {
		t.Fatalf("cpu utilization = %v", res.CPUUtilization)
	}
	if res.Primary.Waits == 0 {
		t.Fatalf("mechanism stats empty: %+v", res.Primary)
	}
	if Describe(res) == "" {
		t.Fatal("empty Describe")
	}
	if res.FinalMode != "devpoll" {
		t.Fatalf("final mode = %s", res.FinalMode)
	}
}

func TestRunDefaultsForZeroSpec(t *testing.T) {
	res := Run(RunSpec{Server: ServerThttpdPoll, RequestRate: 0, Connections: 0, Inactive: 0,
		MaxVirtualTime: 0})
	if res.Load.Issued == 0 {
		t.Fatal("defaults did not produce a run")
	}
}

// The paper's headline result (Figures 8 vs 9, Figure 10): with 501 inactive
// connections, thttpd using /dev/poll sustains the offered load with few or no
// errors while stock poll() collapses, losing throughput and failing a large
// fraction of connections.
func TestDevPollBeatsStockPollUnderInactiveLoad(t *testing.T) {
	rate := 900.0
	poll := Run(spec(ServerThttpdPoll, rate, 501))
	dev := Run(spec(ServerThttpdDevPoll, rate, 501))

	if dev.Load.ReplyRate.Mean < 0.95*rate {
		t.Fatalf("devpoll should sustain ~%v replies/s, got %v", rate, dev.Load.ReplyRate.Mean)
	}
	if dev.Load.ErrorPercent > 1 {
		t.Fatalf("devpoll error rate = %v%%", dev.Load.ErrorPercent)
	}
	if poll.Load.ReplyRate.Mean > 0.85*rate {
		t.Fatalf("stock poll should fall well short of %v replies/s at load 501, got %v",
			rate, poll.Load.ReplyRate.Mean)
	}
	if poll.Load.ErrorPercent < 5 {
		t.Fatalf("stock poll should fail a significant fraction of connections, got %v%%",
			poll.Load.ErrorPercent)
	}
	if poll.Load.MedianLatencyMs < 5*dev.Load.MedianLatencyMs {
		t.Fatalf("stock poll median latency (%vms) should dwarf devpoll's (%vms)",
			poll.Load.MedianLatencyMs, dev.Load.MedianLatencyMs)
	}
	// The mechanism statistics explain why: every stock poll() call scans the
	// whole interest set (≈500+ driver callbacks per wait), while /dev/poll
	// with hints touches only the descriptors that changed.
	devPerWait := float64(dev.Primary.DriverPolls) / float64(dev.Primary.Waits)
	if devPerWait > 60 {
		t.Fatalf("devpoll driver polls per wait = %.0f, want only hinted descriptors", devPerWait)
	}
	if dev.Primary.HintHits == 0 {
		t.Fatal("devpoll hint machinery unused")
	}
	if poll.Primary.DriverPolls <= dev.Primary.DriverPolls {
		t.Fatalf("stock poll performed fewer driver polls (%d) than devpoll (%d)",
			poll.Primary.DriverPolls, dev.Primary.DriverPolls)
	}
}

// At a low inactive load every thttpd variant keeps up with a moderate
// request rate (Figures 4 and 5 below the breakdown point, plus the epoll
// extensions).
func TestThttpdVariantsKeepUpAtLowLoad(t *testing.T) {
	for _, server := range []ServerKind{
		ServerThttpdPoll, ServerThttpdDevPoll, ServerThttpdEpoll, ServerThttpdEpollET,
	} {
		res := Run(spec(server, 600, 1))
		if res.Load.ErrorPercent > 0.5 {
			t.Fatalf("%s errors = %v%%", server, res.Load.ErrorPercent)
		}
		if res.Load.ReplyRate.Mean < 570 {
			t.Fatalf("%s reply rate = %v", server, res.Load.ReplyRate.Mean)
		}
	}
}

// The epoll extension: under heavy inactive load, epoll (in either trigger
// mode) sustains the offered rate like /dev/poll does, while performing only
// O(ready) work per wait — far fewer driver polls than stock poll.
func TestEpollSustainsHeavyInactiveLoad(t *testing.T) {
	rate := 900.0
	poll := Run(spec(ServerThttpdPoll, rate, 501))
	for _, server := range []ServerKind{ServerThttpdEpoll, ServerThttpdEpollET} {
		res := Run(spec(server, rate, 501))
		if res.Load.ReplyRate.Mean < 0.95*rate {
			t.Fatalf("%s should sustain ~%v replies/s, got %v", server, rate, res.Load.ReplyRate.Mean)
		}
		if res.Load.ErrorPercent > 1 {
			t.Fatalf("%s error rate = %v%%", server, res.Load.ErrorPercent)
		}
		if res.Primary.Waits == 0 {
			t.Fatalf("%s mechanism stats empty", server)
		}
		perWait := float64(res.Primary.DriverPolls) / float64(res.Primary.Waits)
		if perWait > 60 {
			t.Fatalf("%s driver polls per wait = %.0f, want O(ready)", server, perWait)
		}
		if poll.Primary.DriverPolls <= res.Primary.DriverPolls {
			t.Fatalf("stock poll performed fewer driver polls (%d) than %s (%d)",
				poll.Primary.DriverPolls, server, res.Primary.DriverPolls)
		}
		wantMode := "epoll"
		if server == ServerThttpdEpollET {
			wantMode = "epoll-et"
		}
		if res.FinalMode != wantMode {
			t.Fatalf("%s final mode = %q", server, res.FinalMode)
		}
	}
}

// phhttpd and every hybrid kind are one RT-signal server: the kind picks the
// policy and fallback, an override cannot change either, and both report the
// RT queue as the primary mechanism and the fallback as the secondary.
func TestDualKindsShareOneMechanismRule(t *testing.T) {
	for _, c := range []struct {
		kind     ServerKind
		policy   dual.Policy
		fallback string
	}{
		{ServerPhhttpd, dual.Handoff, "poll"},
		{ServerHybrid, dual.Mirror, "devpoll"},
		{ServerHybridEpollET, dual.Mirror, "epoll-et"},
	} {
		cfg := DualConfig(c.kind)
		if cfg.Policy != c.policy || cfg.Backend != c.fallback {
			t.Fatalf("%s: policy %v on %q, want %v on %q", c.kind, cfg.Policy, cfg.Backend, c.policy, c.fallback)
		}
		s := spec(c.kind, 1000, 251)
		// A hybrid's configuration, with the switch pinned on, handed to any
		// kind: the kind's own policy and fallback must still run.
		pinned := DualConfig(ServerHybrid)
		pinned.HighWater = 2
		pinned.ConsecutiveLow = 1 << 30
		s.Dual = &pinned
		res := Run(s)
		if res.Primary.Enqueued == 0 || res.Primary.EventsReturned == 0 {
			t.Fatalf("%s: primary = %+v, want the RT signal queue's stats", c.kind, res.Primary)
		}
		if res.Secondary.Enqueued != 0 {
			t.Fatalf("%s: secondary = %+v, want the fallback poller's stats", c.kind, res.Secondary)
		}
		switched := res.SwitchesToPoll > 0
		if switched != (c.policy == dual.Mirror) {
			t.Fatalf("%s: %d switches to polling under policy %v", c.kind, res.SwitchesToPoll, c.policy)
		}
		if switched && res.FinalMode != c.fallback {
			t.Fatalf("%s: final mode %q, want the %s fallback by name", c.kind, res.FinalMode, c.fallback)
		}
	}
}

// The hybrid server accepts epoll as its bulk mechanism and still survives
// overload with a tiny signal queue; with an aggressive crossover it actually
// engages the epoll bulk poller and reports it by name.
func TestHybridEpollSurvivesOverload(t *testing.T) {
	s := spec(ServerHybridEpoll, 1300, 251)
	small := DualConfig(ServerHybridEpoll)
	small.QueueLimit = 16
	s.Dual = &small
	res := Run(s)
	if res.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid-epoll throughput = %v, want epoll-class", res.Load.ReplyRate.Mean)
	}
	if res.Load.ErrorPercent > 10 {
		t.Fatalf("hybrid-epoll errors = %v%%", res.Load.ErrorPercent)
	}

	early := spec(ServerHybridEpoll, 1300, 251)
	cfg := DualConfig(ServerHybridEpoll)
	cfg.HighWater = 2
	cfg.ConsecutiveLow = 1 << 30 // never switch back: pin polling mode
	early.Dual = &cfg
	eres := Run(early)
	if eres.SwitchesToPoll == 0 {
		t.Fatal("hybrid-epoll never engaged its bulk poller despite HighWater=2")
	}
	if eres.FinalMode != "epoll" {
		t.Fatalf("final mode = %q, want the epoll bulk poller by name", eres.FinalMode)
	}
	if eres.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid-epoll in polling mode throughput = %v", eres.Load.ReplyRate.Mean)
	}
}

// Figures 12/13: phhttpd degrades with inactive connections — worse than
// thttpd+/dev/poll under the same load — while remaining better than stock
// poll (its events still arrive one at a time rather than via full scans).
func TestPhhttpdSitsBetweenPollAndDevPollAt501(t *testing.T) {
	rate := 1000.0
	ph := Run(spec(ServerPhhttpd, rate, 501))
	dev := Run(spec(ServerThttpdDevPoll, rate, 501))
	poll := Run(spec(ServerThttpdPoll, rate, 501))

	if !(ph.Load.ReplyRate.Mean < dev.Load.ReplyRate.Mean) {
		t.Fatalf("phhttpd (%v) should trail devpoll (%v) at load 501",
			ph.Load.ReplyRate.Mean, dev.Load.ReplyRate.Mean)
	}
	if !(ph.Load.ReplyRate.Mean > poll.Load.ReplyRate.Mean) {
		t.Fatalf("phhttpd (%v) should beat stock poll (%v) at load 501",
			ph.Load.ReplyRate.Mean, poll.Load.ReplyRate.Mean)
	}
	if ph.Load.MedianLatencyMs <= dev.Load.MedianLatencyMs {
		t.Fatalf("phhttpd median latency (%v) should exceed devpoll's (%v) under overload",
			ph.Load.MedianLatencyMs, dev.Load.MedianLatencyMs)
	}
}

// The hybrid server (the paper's §4 design) should match or beat phhttpd
// under overload because its interest state is maintained concurrently and
// switching costs almost nothing.
func TestHybridHandlesOverloadGracefully(t *testing.T) {
	rate := 1000.0
	hy := Run(spec(ServerHybrid, rate, 501))
	ph := Run(spec(ServerPhhttpd, rate, 501))
	if hy.Load.ReplyRate.Mean < ph.Load.ReplyRate.Mean {
		t.Fatalf("hybrid (%v) should not trail phhttpd (%v) under overload",
			hy.Load.ReplyRate.Mean, ph.Load.ReplyRate.Mean)
	}
	if hy.Load.ErrorPercent > ph.Load.ErrorPercent+1 {
		t.Fatalf("hybrid errors (%v%%) should not exceed phhttpd's (%v%%)",
			hy.Load.ErrorPercent, ph.Load.ErrorPercent)
	}
}

// Sustained extreme overload must not break the hybrid even when the RT
// signal queue is tiny: overflow either switches it to /dev/poll (cheaply,
// because the interest set was maintained all along) or is absorbed without
// losing connections beyond what the offered load itself forces.
func TestHybridSurvivesTinySignalQueueUnderOverload(t *testing.T) {
	s := spec(ServerHybrid, 1300, 251)
	small := DualConfig(ServerHybrid)
	small.QueueLimit = 16
	s.Dual = &small
	res := Run(s)
	if res.Load.ReplyRate.Mean < 1000 {
		t.Fatalf("hybrid throughput = %v, want /dev/poll-class", res.Load.ReplyRate.Mean)
	}
	if res.Load.ErrorPercent > 10 {
		t.Fatalf("hybrid errors = %v%%", res.Load.ErrorPercent)
	}
	if res.Server.Served == 0 || res.Load.Completed == 0 {
		t.Fatalf("hybrid served nothing: %+v", res.Server)
	}
}

func TestFigureDefinitionsCoverPaper(t *testing.T) {
	figs := paperFigures()
	if len(figs) != 11 {
		t.Fatalf("figures = %d, want 11 (FIG 4 through FIG 14)", len(figs))
	}
	seen := map[int]bool{}
	for _, f := range figs {
		if f.ID == "" || f.Title == "" || f.Paper == "" || len(f.Curves) == 0 || len(f.Rates) == 0 {
			t.Fatalf("incomplete figure: %+v", f)
		}
		seen[f.Number] = true
	}
	for n := 4; n <= 14; n++ {
		if !seen[n] {
			t.Fatalf("figure %d missing", n)
		}
	}
	if len(ServerKinds()) != 27 {
		t.Fatalf("ServerKinds = %d, want the paper's four plus the registry-derived extensions, the prefork sizes and the push/dht families", len(ServerKinds()))
	}
	kinds := map[ServerKind]bool{}
	for _, k := range ServerKinds() {
		kinds[k] = true
		if err := ValidateServerKind(k); err != nil {
			t.Fatalf("listed kind %q does not validate: %v", k, err)
		}
	}
	for _, want := range []ServerKind{
		ServerThttpdEpoll, ServerThttpdEpollET, ServerThttpdRtsig,
		ServerHybridEpoll, ServerHybridEpollET,
		ServerThttpdCompio, ServerKind("hybrid-compio"),
		ServerKind("push-poll"), ServerKind("push-compio"),
		ServerKind("dht-poll"), ServerKind("dht-epoll-et"),
	} {
		if !kinds[want] {
			t.Fatalf("ServerKinds missing %q", want)
		}
	}
	if err := ValidateServerKind("thttpd-kqueue"); err == nil ||
		!strings.Contains(err.Error(), "choices") {
		t.Fatalf("unknown kind error = %v, want listed choices", err)
	}
	if _, err := RunE(RunSpec{Server: "nope"}); err == nil {
		t.Fatal("RunE with an unknown kind should fail")
	}
	if kind, err := RetargetKind(ServerThttpdPoll, "epoll-et"); err != nil || kind != ServerThttpdEpollET {
		t.Fatalf("RetargetKind = %v, %v", kind, err)
	}
	if kind, err := RetargetKind(ServerHybridEpoll, "devpoll"); err != nil || kind != ServerHybrid {
		t.Fatalf("RetargetKind(hybrid-epoll, devpoll) = %v, %v", kind, err)
	}
	if kind, err := RetargetKind(ServerPhhttpd, "epoll"); err != nil || kind != ServerPhhttpd {
		t.Fatalf("RetargetKind(phhttpd, epoll) = %v, %v", kind, err)
	}
	if _, err := RetargetKind(ServerThttpdPoll, "kqueue"); err == nil {
		t.Fatal("RetargetKind with an unknown backend should fail")
	}
	for _, m := range []MetricKind{MetricReplyRate, MetricErrorPercent, MetricMedianLatency, MetricReplyP99, MetricKind(99)} {
		if m.String() == "" {
			t.Fatal("metric string empty")
		}
	}
}

// mustFigure looks a rate-axis figure up in the catalogue.
func mustFigure(t *testing.T, id string) Figure {
	t.Helper()
	e, err := Lookup(id)
	if err != nil || e.Figure == nil {
		t.Fatalf("Lookup(%q) = %+v, %v; want a rate-axis figure", id, e, err)
	}
	return *e.Figure
}

// TestCatalogue pins the one figure catalogue the tool lists and runs:
// figures 4-43 each appear exactly once, in the historical listing order,
// and every entry of all three kinds resolves by "figNN" and by bare number.
func TestCatalogue(t *testing.T) {
	cat := Catalogue()
	if len(cat) != 40 {
		t.Fatalf("catalogue has %d figures, want 40 (4 through 43)", len(cat))
	}
	ids, kinds := map[string]bool{}, map[string]bool{}
	for _, e := range cat {
		if ids[e.ID] {
			t.Fatalf("duplicate catalogue id %s", e.ID)
		}
		ids[e.ID] = true
		if (e.Figure == nil) == (e.Workers == nil) {
			t.Fatalf("%s must set exactly one of Figure and Workers", e.ID)
		}
		if e.ID != fmt.Sprintf("fig%02d", e.Number) || e.Title == "" {
			t.Fatalf("malformed entry %+v", e)
		}
		kind := "workers"
		if e.Figure != nil {
			kind = e.Figure.Metric.String()
			if e.Figure.ID != e.ID || e.Figure.Number != e.Number || e.Figure.Title != e.Title {
				t.Fatalf("%s entry header disagrees with its figure", e.ID)
			}
		}
		kinds[kind] = true
		for _, key := range []string{e.ID, strconv.Itoa(e.Number), " " + strings.ToUpper(e.ID) + " "} {
			got, err := Lookup(key)
			if err != nil || got.ID != e.ID {
				t.Fatalf("Lookup(%q) = %s, %v; want %s", key, got.ID, err, e.ID)
			}
		}
	}
	// Listing and sweep order is the historical one: 4-25, the keep-alive
	// family 32-35, then 26-31 and 36-43.
	var want []int
	for _, r := range [][2]int{{4, 25}, {32, 35}, {26, 31}, {36, 43}} {
		for n := r[0]; n <= r[1]; n++ {
			want = append(want, n)
		}
	}
	for i, e := range cat {
		if e.Number != want[i] {
			t.Fatalf("catalogue entry %d is figure %d, want %d", i, e.Number, want[i])
		}
	}
	// Rate, reply-and-p99 and worker-count figures all live in it.
	for _, want := range []string{MetricReplyRate.String(), MetricReplyP99.String(), "workers"} {
		if !kinds[want] {
			t.Fatalf("catalogue has no %q figure", want)
		}
	}
}

// TestUnknownIDsListChoices: an unknown figure or ablation id fails with an
// error naming the valid choices, so the tool can reject it instead of
// silently running nothing.
func TestUnknownIDsListChoices(t *testing.T) {
	for _, id := range []string{"nope", "44", "fig3", ""} {
		_, err := Lookup(id)
		if err == nil || !strings.Contains(err.Error(), "choices: fig04, ") || !strings.Contains(err.Error(), "fig43") {
			t.Fatalf("Lookup(%q) error = %v, want listed choices", id, err)
		}
	}
	if _, err := AblationByID("hints", 0); err != nil {
		t.Fatalf("AblationByID(hints) = %v", err)
	}
	_, err := AblationByID("nosuch", 0)
	if err == nil || !strings.Contains(err.Error(), "choices: hints, mmap, ") {
		t.Fatalf("AblationByID(nosuch) error = %v, want listed choices", err)
	}
}

func TestRunFigureAndFormat(t *testing.T) {
	fig := mustFigure(t, "fig05")
	res := RunFigure(fig, SweepOptions{Connections: 800, Rates: []float64{600, 900}, Progress: t.Logf})
	// One curve × (avg, min, max) series.
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	if len(res.Runs) != 2 {
		t.Fatalf("runs = %d", len(res.Runs))
	}
	for _, s := range res.Series {
		if s.Len() != 2 {
			t.Fatalf("series %q has %d points", s.Label, s.Len())
		}
	}
	out := Format(res)
	if !strings.Contains(out, "FIGURE 5") || !strings.Contains(out, "600") {
		t.Fatalf("format output:\n%s", out)
	}

	// An error-percent figure produces one series per curve.
	fig10 := mustFigure(t, "fig10")
	res10 := RunFigure(fig10, SweepOptions{Connections: 600, Rates: []float64{900}})
	if len(res10.Series) != len(fig10.Curves) {
		t.Fatalf("fig10 series = %d", len(res10.Series))
	}
	if !strings.Contains(Format(res10), "errors") {
		t.Fatal("fig10 format missing metric")
	}
}

func TestAblationDefinitionsAndRun(t *testing.T) {
	abls := Ablations(0)
	if len(abls) < 5 {
		t.Fatalf("ablations = %d", len(abls))
	}
	ids := map[string]bool{}
	for _, a := range abls {
		if a.ID == "" || a.Title == "" || len(a.Variants) < 2 {
			t.Fatalf("incomplete ablation %+v", a)
		}
		ids[a.ID] = true
	}
	for _, want := range []string{"hints", "mmap", "sigtimedwait4", "hybrid-vs-phhttpd", "compio-batch", "compio-regbuf"} {
		if !ids[want] {
			t.Fatalf("ablation %q missing", want)
		}
	}
	// Run the cheapest meaningful ablation end to end with a small size.
	a, _ := AblationByID("hints", 800)
	res := RunAblation(a, nil)
	if len(res.Results) != 2 {
		t.Fatalf("results = %d", len(res.Results))
	}
	// Hints must reduce driver poll callbacks dramatically.
	on, off := res.Results[0], res.Results[1]
	if on.Primary.DriverPolls*5 > off.Primary.DriverPolls {
		t.Fatalf("hints-on driver polls (%d) should be far below hints-off (%d)",
			on.Primary.DriverPolls, off.Primary.DriverPolls)
	}
	if !strings.Contains(FormatAblation(res), "hints") {
		t.Fatal("FormatAblation output missing id")
	}
}

// TestCompioAblationEffects checks the directional claims behind the two
// compio ablations at a reduced run size: deeper Enter batching and
// registered buffers must each lower the virtual-time CPU cost of serving
// the same workload. (The exact per-operation charges are pinned by the
// compio and netsim unit tests; at the full-size 1300 req/s knee the effect
// surfaces as a monotone median-latency improvement.)
func TestCompioAblationEffects(t *testing.T) {
	batch, err := AblationByID("compio-batch", 800)
	if err != nil {
		t.Fatal(err)
	}
	shallow := Run(batch.Variants[0].Spec)                  // sq-1
	deep := Run(batch.Variants[len(batch.Variants)-1].Spec) // sq-64
	if shallow.CPUUtilization <= deep.CPUUtilization {
		t.Fatalf("sq-1 cpu %.4f should exceed sq-64 cpu %.4f: batching amortises the Enter syscall",
			shallow.CPUUtilization, deep.CPUUtilization)
	}

	regbuf, err := AblationByID("compio-regbuf", 800)
	if err != nil {
		t.Fatal(err)
	}
	registered := Run(regbuf.Variants[0].Spec)
	unregistered := Run(regbuf.Variants[1].Spec)
	if registered.CPUUtilization >= unregistered.CPUUtilization {
		t.Fatalf("registered cpu %.4f should be below unregistered cpu %.4f: registered buffers skip the read copy",
			registered.CPUUtilization, unregistered.CPUUtilization)
	}
}

// TestClientProfilePrecedence: a partial RunSpec.Client is laid over
// loadgen.DefaultConfig's profile and the scaled-run timeout rather than
// replacing them, and a caller's Client.Timeout beats the scaled timeout.
func TestClientProfilePrecedence(t *testing.T) {
	wl, _ := loadgen.LookupWorkload("")
	partial := RunSpec{RequestRate: 1000, Inactive: 251, Connections: 14000,
		Client: loadgen.ClientProfile{RequestsPerConn: 8}}
	// 14000 offered requests scale the paper's 5 s client timeout to 2 s.
	got := loadConfig(partial, wl, 14000, 14*core.Second).Profile
	want := loadgen.ClientProfile{RequestsPerConn: 8, Timeout: 2 * core.Second,
		InactiveRTT: 100 * core.Millisecond, Jitter: 0.2}
	if got != want {
		t.Fatalf("partial client profile = %+v, want %+v", got, want)
	}
	partial.Client.Timeout = 3 * core.Second
	if got := loadConfig(partial, wl, 14000, 14*core.Second).Profile.Timeout; got != 3*core.Second {
		t.Fatalf("Client.Timeout = %v, want the caller's 3s over the scaled 2s", got)
	}

	// End to end, the generator runs with the overlaid profile.
	res := Run(RunSpec{Server: ServerThttpdEpoll, RequestRate: 1000, Connections: 800, Seed: 1,
		HTTP: httpcore.Options{KeepAlive: true}, Client: loadgen.ClientProfile{RequestsPerConn: 8}})
	p := res.Load.Config.Profile
	if p.RequestsPerConn != 8 || p.PipelineDepth != 1 || p.Jitter != 0.2 ||
		p.InactiveRTT != 100*core.Millisecond || p.Timeout != core.Second {
		t.Fatalf("run's client profile = %+v", p)
	}
}
