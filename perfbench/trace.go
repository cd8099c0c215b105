package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/simkernel"
)

// spanKind is the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanWait     spanKind = iota // Poller.Wait: the mechanism's blocking call
	spanCtl                      // Poller.Add/Modify/Remove: interest control
	spanDispatch                 // the Wait completion handler: eventlib dispatch
)

var spanNames = [...]string{"wait", "ctl", "dispatch"}

// span is one recorded call, in host nanoseconds since the tracer started.
// fd is the descriptor a control call named (-1 otherwise); parent indexes the
// enclosing span (-1 at top level).
type span struct {
	start, end int64
	parent     int32
	fd         int32
	kind       spanKind
}

// tracer keeps every span in memory, in begin order. Calls into the program
// happen on one goroutine and nest properly, so a stack gives each span its
// parent.
type tracer struct {
	t0         time.Time
	sim        *simkernel.Simulator
	spans      []span
	stack      []int32
	pendingMax int
}

func newTracer(sim *simkernel.Simulator) *tracer {
	return &tracer{t0: time.Now(), sim: sim, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(kind spanKind, fd int) int32 {
	if n := t.sim.Pending(); n > t.pendingMax {
		t.pendingMax = n
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: parent, fd: int32(fd), kind: kind})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTimes returns, per span kind, the call count and the summed self time
// in seconds: each span's duration minus the time its child spans cover.
func (t *tracer) selfTimes() (calls [len(spanNames)]int64, self [len(spanNames)]float64) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		calls[s.kind]++
		self[s.kind] += float64(s.end-s.start-child[i]) / 1e9
	}
	return calls, self
}

// writeSpans writes the spans as tab-separated text, one per line: kind,
// start and end in host nanoseconds, parent index and descriptor.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tstart_ns\tend_ns\tparent\tfd")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.start, s.end, s.parent, s.fd)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPoller times every call a server makes into its mechanism and the
// completion handlers the mechanism calls back. It forwards
// core.StatsSource, so the run's mechanism statistics are unchanged.
type tracedPoller struct {
	core.Poller
	tr *tracer
}

func (p *tracedPoller) Add(fd int, events core.EventMask) error {
	id := p.tr.begin(spanCtl, fd)
	err := p.Poller.Add(fd, events)
	p.tr.end(id)
	return err
}

func (p *tracedPoller) Modify(fd int, events core.EventMask) error {
	id := p.tr.begin(spanCtl, fd)
	err := p.Poller.Modify(fd, events)
	p.tr.end(id)
	return err
}

func (p *tracedPoller) Remove(fd int) error {
	id := p.tr.begin(spanCtl, fd)
	err := p.Poller.Remove(fd)
	p.tr.end(id)
	return err
}

func (p *tracedPoller) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	id := p.tr.begin(spanWait, -1)
	p.Poller.Wait(max, timeout, func(events []core.Event, now core.Time) {
		d := p.tr.begin(spanDispatch, -1)
		handler(events, now)
		p.tr.end(d)
	})
	p.tr.end(id)
}

func (p *tracedPoller) MechanismStats() core.Stats {
	if src, ok := p.Poller.(core.StatsSource); ok {
		return src.MechanismStats()
	}
	return core.Stats{}
}
