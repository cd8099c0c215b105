package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/interest"
	"repro/internal/metrics"
	"repro/internal/simkernel"
)

// microSamples is how many timed batches each microbenchmark runs; its value
// is the median batch's ns/op and its spread the batches' interquartile
// range over that median.
const microSamples = 7

// microResult is one layer microbenchmark's outcome.
type microResult struct {
	name   string
	nsOp   float64
	spread float64
}

// timeBatches runs batch microSamples times after one untimed warm-up and
// returns the median ns per op, batch doing ops operations each time.
func timeBatches(name string, ops int, batch func()) microResult {
	batch()
	ns := make([]float64, microSamples)
	for i := range ns {
		t := time.Now()
		batch()
		ns[i] = float64(time.Since(t).Nanoseconds()) / float64(ops)
	}
	med, spread := medianSpread(ns)
	return microResult{name: name, nsOp: med, spread: spread}
}

// runMicros runs every layer microbenchmark. completed sizes the accounting
// benchmark to the workload's completed-connection count. It fails when the
// byte-split parse disagrees with the one-shot parse.
func runMicros(completed int) ([]microResult, error) {
	var out []microResult
	for _, q := range []struct {
		name    string
		pending int
	}{{"simkernel.queue_ns_10k", 10000}, {"simkernel.queue_ns_100k", 100000}, {"simkernel.queue_ns_1m", 1000000}} {
		out = append(out, queueMicro(q.name, q.pending))
	}
	out = append(out, interestMicros()...)
	parse, err := parseMicros()
	if err != nil {
		return nil, err
	}
	out = append(out, parse...)
	out = append(out, metricsMicros(completed)...)
	return out, nil
}

// queueMicro is the classic hold model: n events stay pending, and each
// executed event schedules one successor a random delay ahead, so one op is a
// Simulator.At plus the RunUntil dispatch of one event at n pending.
func queueMicro(name string, n int) microResult {
	const ops = 200000
	sim := simkernel.NewSimulator()
	rng := rand.New(rand.NewSource(1))
	// Delays up to 2n µs keep the mean spacing of pending events at 2 µs.
	span := int64(2 * n * int(core.Microsecond))
	count := 0
	var hold func(now core.Time)
	hold = func(now core.Time) {
		sim.At(now.Add(core.Duration(rng.Int63n(span)+1)), hold)
		count++
		if count == ops {
			sim.Stop()
		}
	}
	for i := 0; i < n; i++ {
		sim.At(core.Time(rng.Int63n(span)), hold)
	}
	return timeBatches(name, ops, func() {
		count = 0
		sim.Run()
	})
}

// interestMicros time the interest set stock poll walks every wait (Table.Each
// over poll-scan's 501 inactive plus a few active descriptors), registration
// churn (Upsert then Delete), and the ready ledger (Mark then a draining Scan).
func interestMicros() []microResult {
	const size = 512
	table := interest.NewTable()
	for fd := 3; fd < 3+size; fd++ {
		e, _ := table.Upsert(fd)
		e.Events = core.POLLIN
	}
	var visited int
	each := timeBatches("interest.table_each_ns", 1000*size, func() {
		for i := 0; i < 1000; i++ {
			table.Each(func(e *interest.Entry) { visited += int(e.Events) })
		}
	})
	const churnOps = 100000
	churn := timeBatches("interest.table_churn_ns", churnOps, func() {
		for i := 0; i < churnOps; i++ {
			fd := 3 + size + i%256
			table.Upsert(fd)
			table.Delete(fd)
		}
	})
	ledger := interest.NewLedger()
	const marks = 64
	const rounds = 2000
	var seen int
	mark := timeBatches("interest.ledger_mark_scan_ns", marks*rounds, func() {
		for r := 0; r < rounds; r++ {
			for i := 0; i < marks; i++ {
				ledger.Mark(3+(i*7)%size, core.POLLIN, uint64(r))
			}
			ledger.Scan(func(fd int, _ core.EventMask, _ uint64) bool {
				seen += fd
				return false
			})
		}
	})
	sinkInt = visited + seen
	return []microResult{each, churn, mark}
}

// parseMicros time httpsim's parser over a keep-alive client's request bytes,
// fed at once and one byte per Feed, and check that both parses agree.
func parseMicros() ([]microResult, error) {
	req := httpsim.FormatRequest11("/index.html", false)
	oneShot, err := parseChunks(req, len(req))
	if err != nil {
		return nil, err
	}
	split, err := parseChunks(req, 1)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(oneShot, split) {
		return nil, fmt.Errorf("httpsim: byte-split parse %+v differs from one-shot parse %+v", split, oneShot)
	}
	const ops = 20000
	p := httpsim.NewParser()
	feed := func(chunk int) func() {
		return func() {
			for i := 0; i < ops; i++ {
				p.Reset()
				for off := 0; off < len(req); off += chunk {
					_, _ = p.Feed(req[off:min(off+chunk, len(req))])
				}
				if !p.Complete() {
					panic("httpsim: benchmark request did not complete")
				}
			}
		}
	}
	return []microResult{
		timeBatches("httpsim.parse_ns", ops, feed(len(req))),
		timeBatches("httpsim.parse_split_ns", ops, feed(1)),
	}, nil
}

// parseChunks parses req fed in chunks of the given size and returns a copy
// of the parsed request.
func parseChunks(req []byte, chunk int) (httpsim.Request, error) {
	p := httpsim.NewParser()
	for off := 0; off < len(req); off += chunk {
		if _, err := p.Feed(req[off:min(off+chunk, len(req))]); err != nil {
			return httpsim.Request{}, fmt.Errorf("httpsim: parse in %d-byte chunks: %w", chunk, err)
		}
	}
	if !p.Complete() {
		return httpsim.Request{}, fmt.Errorf("httpsim: request incomplete in %d-byte chunks", chunk)
	}
	r := *p.Request()
	r.Headers = make(map[string]string, len(p.Request().Headers))
	for k, v := range p.Request().Headers {
		r.Headers[k] = v
	}
	return r, nil
}

// metricsMicros time the client accounting: the summary loadgen.Result
// computes over every completed connection's latency (Median, Summarize,
// Percentile and a sort for the maximum) at the workload's completed count,
// and one LatencyHist.Observe.
func metricsMicros(completed int) []microResult {
	rng := rand.New(rand.NewSource(1))
	lat := make([]float64, completed)
	for i := range lat {
		lat[i] = 1 + rng.ExpFloat64()
	}
	summary := timeBatches("metrics.summary_ns", 1, func() {
		sinkFloat = metrics.Median(lat)
		sinkFloat += metrics.Summarize(lat).Mean
		sinkFloat += metrics.Percentile(lat, 90)
		sorted := append([]float64(nil), lat...)
		sort.Float64s(sorted)
		sinkFloat += sorted[len(sorted)-1]
	})
	const ops = 1 << 20
	ds := make([]core.Duration, 4096)
	for i := range ds {
		ds[i] = core.Duration(rng.Int63n(int64(50 * core.Millisecond)))
	}
	var h metrics.LatencyHist
	observe := timeBatches("metrics.hist_observe_ns", ops, func() {
		for i := 0; i < ops; i++ {
			h.Observe(ds[i&4095])
		}
	})
	return []microResult{summary, observe}
}

// Package-level sinks keep the compiler from discarding measured work.
var (
	sinkInt   int
	sinkFloat float64
)
