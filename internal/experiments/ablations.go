package experiments

import (
	"fmt"
	"strings"

	"repro/internal/compio"
	"repro/internal/core"
	"repro/internal/devpoll"
	"repro/internal/loadgen"
	"repro/internal/servers/dual"
	"repro/internal/servers/httpcore"
	"repro/internal/simkernel"
)

// Ablation is one design-choice study beyond the paper's figures: it compares
// a small set of variant configurations at a fixed, stressful operating point
// (high request rate, 501 inactive connections unless noted).
type Ablation struct {
	ID          string
	Title       string
	Description string
	// Variants maps a variant label to the spec that realises it.
	Variants []AblationVariant
}

// AblationVariant is one configuration within an ablation.
type AblationVariant struct {
	Label string
	Spec  RunSpec
}

// AblationResult pairs each variant with its run result.
type AblationResult struct {
	Ablation Ablation
	Results  []RunResult
	Labels   []string
}

// Ablations returns the ablation studies listed in DESIGN.md. connections
// scales the per-variant run size (0 selects 3000).
func Ablations(connections int) []Ablation {
	if connections <= 0 {
		connections = 3000
	}
	base := func(server ServerKind, rate float64, inactive int) RunSpec {
		s := DefaultSpec(server, rate, inactive)
		s.Connections = connections
		return s
	}

	// The /dev/poll and compio variants swap in a poller built with one
	// option changed from the registry's defaults.
	devpollWith := func(rate float64, edit func(*devpoll.Options)) RunSpec {
		s := base(ServerThttpdDevPoll, rate, 501)
		opts := devpoll.DefaultOptions()
		edit(&opts)
		s.OpenPoller = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return devpoll.Open(k, p, opts)
		}
		return s
	}
	compioWith := func(edit func(*compio.Options)) RunSpec {
		s := base(ServerThttpdCompio, 1300, 501)
		opts := compio.DefaultOptions()
		edit(&opts)
		s.OpenPoller = func(k *simkernel.Kernel, p *simkernel.Proc) core.Poller {
			return compio.Open(k, p, opts)
		}
		return s
	}

	hintsOn := base(ServerThttpdDevPoll, 900, 501)
	hintsOff := devpollWith(900, func(o *devpoll.Options) { o.UseHints = false })

	mmapOn := base(ServerThttpdDevPoll, 1000, 501)
	mmapOff := devpollWith(1000, func(o *devpoll.Options) { o.UseMmap = false })

	// dualWith runs an RT-signal kind with its default configuration edited.
	dualWith := func(kind ServerKind, rate float64, inactive int, edit func(*dual.Config)) RunSpec {
		s := base(kind, rate, inactive)
		cfg := DualConfig(kind)
		edit(&cfg)
		s.Dual = &cfg
		return s
	}

	single := base(ServerPhhttpd, 900, 251)
	batch := dualWith(ServerPhhttpd, 900, 251, func(c *dual.Config) { c.BatchDequeue = true })

	smallQueue := dualWith(ServerPhhttpd, 1000, 501, func(c *dual.Config) { c.QueueLimit = 128 })
	bigQueue := dualWith(ServerPhhttpd, 1000, 501, func(c *dual.Config) { c.QueueLimit = 4096 })

	hybridEarly := dualWith(ServerHybrid, 1000, 501, func(c *dual.Config) { c.HighWater = 32 })
	hybridLate := dualWith(ServerHybrid, 1000, 501, func(c *dual.Config) { c.HighWater = c.QueueLimit })

	hybridVsPh := base(ServerHybrid, 1000, 501)
	phVsHybrid := base(ServerPhhttpd, 1000, 501)

	epollLT := base(ServerThttpdEpoll, 1000, 501)
	epollET := base(ServerThttpdEpollET, 1000, 501)
	devpollVsEpoll := base(ServerThttpdDevPoll, 1000, 501)
	hybridEpollBulk := base(ServerHybridEpoll, 1000, 501)

	// compio batch-size sweep: the copy configuration is held fixed
	// (registered buffers on, the default) while the SQ size — the number of
	// submissions one Enter amortises over — sweeps from no batching to deep
	// batching.
	compioBatch := func(sqSize int) RunSpec {
		return compioWith(func(o *compio.Options) { o.SQSize = sqSize })
	}

	// compio copy-avoidance: the batch configuration is held fixed (default
	// SQ) while registered buffers toggle, isolating the per-read copy skip.
	compioCopy := func(registered bool) RunSpec {
		return compioWith(func(o *compio.Options) { o.RegisteredBuffers = registered })
	}

	// Persistent-connection hot path, one axis at a time on keep-alive epoll.
	keepalive := func(http httpcore.Options, reqs, depth int) RunSpec {
		s := base(ServerThttpdEpoll, 1300, 501)
		s.HTTP = http
		s.Client = loadgen.ClientProfile{RequestsPerConn: reqs, PipelineDepth: depth}
		return s
	}
	kaOn := httpcore.Options{KeepAlive: true}
	pipelined := func(depth int) RunSpec { return keepalive(kaOn, 16, depth) }
	cached := func(kb int) RunSpec {
		return keepalive(httpcore.Options{KeepAlive: true, CacheKB: kb}, KeepAliveRequests, 0)
	}
	writePath := func(m httpcore.WriteMode) RunSpec {
		return keepalive(httpcore.Options{KeepAlive: true, WriteMode: m}, KeepAliveRequests, 0)
	}

	return []Ablation{
		{
			ID:          "hints",
			Title:       "Device-driver hints on vs off (/dev/poll, 900 req/s, 501 inactive)",
			Description: "Quantifies §3.2: hints let DP_POLL skip the per-descriptor driver callback for idle connections.",
			Variants: []AblationVariant{
				{Label: "hints-on", Spec: hintsOn},
				{Label: "hints-off", Spec: hintsOff},
			},
		},
		{
			ID:          "mmap",
			Title:       "mmap'd result area on vs off (/dev/poll, 1000 req/s, 501 inactive)",
			Description: "Quantifies §3.3: the shared result area removes the per-ready-descriptor copy-out.",
			Variants: []AblationVariant{
				{Label: "mmap-on", Spec: mmapOn},
				{Label: "mmap-off", Spec: mmapOff},
			},
		},
		{
			ID:          "sigtimedwait4",
			Title:       "sigwaitinfo vs sigtimedwait4 batch dequeue (phhttpd, 900 req/s, 251 inactive)",
			Description: "Quantifies the paper's §6 proposal to dequeue RT signals in groups rather than one per system call.",
			Variants: []AblationVariant{
				{Label: "sigwaitinfo", Spec: single},
				{Label: "sigtimedwait4", Spec: batch},
			},
		},
		{
			ID:          "queue-limit",
			Title:       "RT signal queue limit 128 vs 4096 (phhttpd, 1000 req/s, 501 inactive)",
			Description: "Explores §4's load-threshold idea: a small queue forces early overflow recovery, a large one defers it.",
			Variants: []AblationVariant{
				{Label: "limit-128", Spec: smallQueue},
				{Label: "limit-4096", Spec: bigQueue},
			},
		},
		{
			ID:          "hybrid-threshold",
			Title:       "Hybrid crossover threshold: early vs at-queue-limit (1000 req/s, 501 inactive)",
			Description: "Evaluates the crossover-point question of §4 using the hybrid server the paper could not build.",
			Variants: []AblationVariant{
				{Label: "switch-early", Spec: hybridEarly},
				{Label: "switch-at-limit", Spec: hybridLate},
			},
		},
		{
			ID:          "hybrid-vs-phhttpd",
			Title:       "Hybrid server vs phhttpd under overload (1000 req/s, 501 inactive)",
			Description: "Tests §6's claim that maintaining kernel interest state concurrently with RT signal activity makes mode switching cheap.",
			Variants: []AblationVariant{
				{Label: "hybrid", Spec: hybridVsPh},
				{Label: "phhttpd", Spec: phVsHybrid},
			},
		},
		{
			ID:          "epoll-trigger-mode",
			Title:       "epoll level-triggered vs edge-triggered (1000 req/s, 501 inactive)",
			Description: "Compares the two epoll delivery modes on the shared interest engine: LT re-validates ready descriptors with the driver, ET delivers each transition once without re-polling.",
			Variants: []AblationVariant{
				{Label: "level-triggered", Spec: epollLT},
				{Label: "edge-triggered", Spec: epollET},
			},
		},
		{
			ID:          "epoll-vs-devpoll",
			Title:       "epoll vs /dev/poll under heavy inactive load (1000 req/s, 501 inactive)",
			Description: "The successor mechanism against the paper's: epoll's O(ready) wait versus /dev/poll's O(registered) hint-check scan.",
			Variants: []AblationVariant{
				{Label: "epoll", Spec: epollLT},
				{Label: "devpoll", Spec: devpollVsEpoll},
			},
		},
		{
			ID:          "compio-batch",
			Title:       "compio Enter batch size: SQ 1/4/16/64 (1300 req/s, 501 inactive)",
			Description: "Isolates submission-batch amortisation: one syscall entry per Enter is spread over SQSize submissions, the completion-side decomposition the paper's §3-4 performs for /dev/poll's interest updates. The copy configuration is held fixed.",
			Variants: []AblationVariant{
				{Label: "sq-1", Spec: compioBatch(1)},
				{Label: "sq-4", Spec: compioBatch(4)},
				{Label: "sq-16", Spec: compioBatch(16)},
				{Label: "sq-64", Spec: compioBatch(64)},
			},
		},
		{
			ID:          "compio-regbuf",
			Title:       "compio registered buffers on vs off (1300 req/s, 501 inactive)",
			Description: "Isolates copy avoidance: fixed pre-pinned buffers skip exactly the per-read user-space copy charge (Cost.SockReadCopy), the mmap-result-area argument of §3.3 applied to data instead of events. The batch configuration is held fixed.",
			Variants: []AblationVariant{
				{Label: "registered", Spec: compioCopy(true)},
				{Label: "unregistered", Spec: compioCopy(false)},
			},
		},
		{
			ID:          "hybrid-bulk-mechanism",
			Title:       "Hybrid bulk poller: /dev/poll vs epoll (1000 req/s, 501 inactive)",
			Description: "Swaps the hybrid server's load-time mechanism, possible only because both maintain the shared kernel-resident interest set concurrently with RT signal activity.",
			Variants: []AblationVariant{
				{Label: "bulk-devpoll", Spec: hybridVsPh},
				{Label: "bulk-epoll", Spec: hybridEpollBulk},
			},
		},
		{
			ID:          "keepalive",
			Title:       "HTTP/1.0 close-per-request vs HTTP/1.1 keep-alive (epoll, 1300 req/s, 501 inactive)",
			Description: "The tentpole axis: eight requests per connection amortise the accept, the interest-set registration and the close. Serial keep-alive trades a sliver of reply rate for a much better median (each request waits a client round trip); pipelining the same eight requests recovers the rate and keeps the latency win.",
			Variants: []AblationVariant{
				{Label: "http10", Spec: base(ServerThttpdEpoll, 1300, 501)},
				{Label: "keepalive-8", Spec: keepalive(kaOn, KeepAliveRequests, 0)},
				{Label: "pipelined-8", Spec: keepalive(kaOn, KeepAliveRequests, KeepAliveRequests)},
			},
		},
		{
			ID:          "pipeline-depth",
			Title:       "Pipeline depth 1 vs 4 vs 16 (keep-alive epoll, 16 req/conn, 1300 req/s, 501 inactive)",
			Description: "Pipelining removes the client round trip between a connection's requests; the server's bounded per-dispatch batch caps how much a deeper pipeline can add.",
			Variants: []AblationVariant{
				{Label: "depth-1", Spec: pipelined(1)},
				{Label: "depth-4", Spec: pipelined(4)},
				{Label: "depth-16", Spec: pipelined(16)},
			},
		},
		{
			ID:          "cache-size",
			Title:       "Response cache off / 4KB / 64KB / 1MB (keep-alive epoll, 1300 req/s, 501 inactive)",
			Description: "cache-off is the legacy no-file-charge model; a cache smaller than the 6KB document pays open-plus-page-reads on every request (uncacheable), any sufficient size serves hits from the mmap'd cache.",
			Variants: []AblationVariant{
				{Label: "cache-off", Spec: cached(0)},
				{Label: "cache-4kb", Spec: cached(4)},
				{Label: "cache-64kb", Spec: cached(64)},
				{Label: "cache-1mb", Spec: cached(1024)},
			},
		},
		{
			ID:          "write-path",
			Title:       "Write path copy vs writev vs sendfile (keep-alive epoll, 1300 req/s, 501 inactive)",
			Description: "Two-write copy pays the user-space copy and an extra syscall per response, writev folds header and body into one charge, sendfile skips the user-space copy and charges per page.",
			Variants: []AblationVariant{
				{Label: "copy", Spec: writePath(httpcore.WriteCopy)},
				{Label: "writev", Spec: writePath(httpcore.WriteWritev)},
				{Label: "sendfile", Spec: writePath(httpcore.WriteSendfile)},
			},
		},
	}
}

// AblationByID finds an ablation by identifier, returning a listed-choices
// error for an unknown one.
func AblationByID(id string, connections int) (Ablation, error) {
	all := Ablations(connections)
	ids := make([]string, 0, len(all))
	for _, a := range all {
		if a.ID == id {
			return a, nil
		}
		ids = append(ids, a.ID)
	}
	return Ablation{}, fmt.Errorf("experiments: unknown ablation %q (choices: %s)", id, strings.Join(ids, ", "))
}

// RunAblation executes every variant of an ablation.
func RunAblation(a Ablation, progress func(format string, args ...interface{})) AblationResult {
	out := AblationResult{Ablation: a}
	for _, v := range a.Variants {
		res := Run(v.Spec)
		out.Results = append(out.Results, res)
		out.Labels = append(out.Labels, v.Label)
		if progress != nil {
			progress("%s/%s %s", a.ID, v.Label, Describe(res))
		}
	}
	return out
}

// FormatAblation renders an ablation result as a text table.
func FormatAblation(res AblationResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION %s: %s\n%s\n", res.Ablation.ID, res.Ablation.Title, res.Ablation.Description)
	fmt.Fprintf(&b, "%-18s %10s %8s %10s %8s %10s %12s\n",
		"variant", "reply/s", "err%", "median ms", "cpu%", "loops", "mode")
	for i, r := range res.Results {
		fmt.Fprintf(&b, "%-18s %10.1f %8.1f %10.2f %8.0f %10d %12s\n",
			res.Labels[i], r.Load.ReplyRate.Mean, r.Load.ErrorPercent, r.Load.MedianLatencyMs,
			100*r.CPUUtilization, r.EventLoops, r.FinalMode)
	}
	return b.String()
}
