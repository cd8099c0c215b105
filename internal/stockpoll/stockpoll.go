// Package stockpoll implements the baseline event-notification mechanism of
// the paper: the stock Linux 2.2 poll() system call. The application keeps its
// interest set in user space as a pollfd array and passes the entire array to
// the kernel on every call; the kernel copies it in, invokes the device
// driver's poll callback for every descriptor, manipulates a wait queue per
// descriptor when it has to block, and copies results back out.
//
// All of those per-interest costs are charged on every Wait, which is exactly
// the O(interest set) behaviour whose breakdown under many inactive
// connections the paper's Figures 4, 6 and 8 document.
//
// The interest set and the blocking-wait state machine come from the shared
// engine in internal/interest — the same kernel-resident structures the other
// mechanisms use — but stock poll still charges the full per-call copy-in,
// full-scan and copy-out costs, so the paper's figures are unchanged: the
// refactor moves code, not costs.
package stockpoll

import (
	"repro/internal/core"
	"repro/internal/interest"
	"repro/internal/simkernel"
)

// Poller is a stock poll()-based implementation of core.Poller.
type Poller struct {
	k *simkernel.Kernel
	p *simkernel.Proc

	// table holds the interest set. Insertion-order iteration stands in for
	// the application's pollfd array order; Entry.File caches the descriptor
	// entries on whose wait queues a blocked poll() is sleeping.
	table *interest.Table
	armed bool // watchers currently registered (poll() is blocked or about to)

	eng interest.Engine

	stats  core.Stats
	closed bool
}

// New creates a poll()-based poller for process p.
func New(k *simkernel.Kernel, p *simkernel.Proc) *Poller {
	pl := &Poller{k: k, p: p, table: interest.NewTable()}
	pl.eng = interest.Engine{
		Name:    "stockpoll",
		K:       k,
		P:       p,
		Collect: pl.collect,
		// Nothing ready: join each file's wait queue before sleeping. The
		// rescan path already paid its wait-queue teardown inside collect.
		OnBlock: func(firstPass bool) {
			if firstPass {
				pl.p.Charge(pl.k.Cost.WaitQueueOp.Scale(float64(pl.table.Len())))
			}
			pl.arm()
		},
		OnFinish: pl.disarm,
		TimeoutTeardown: func() core.Duration {
			return pl.k.Cost.WaitQueueOp.Scale(float64(pl.table.Len()))
		},
		Stats: &pl.stats,
	}
	return pl
}

// Name implements core.Poller.
func (pl *Poller) Name() string { return "poll" }

// Add implements core.Poller. Maintaining the pollfd array is a user-space
// operation for stock poll, so it costs nothing in the kernel; the price is
// paid on every Wait instead.
func (pl *Poller) Add(fd int, events core.EventMask) error {
	if pl.closed {
		return core.ErrClosed
	}
	if pl.table.Contains(fd) {
		return core.ErrExists
	}
	pl.table.Set(fd, events)
	return nil
}

// Modify implements core.Poller.
func (pl *Poller) Modify(fd int, events core.EventMask) error {
	if pl.closed {
		return core.ErrClosed
	}
	if !pl.table.Contains(fd) {
		return core.ErrNotFound
	}
	pl.table.Set(fd, events)
	return nil
}

// Remove implements core.Poller.
func (pl *Poller) Remove(fd int) error {
	if pl.closed {
		return core.ErrClosed
	}
	e := pl.table.Lookup(fd)
	if e == nil {
		return core.ErrNotFound
	}
	if pl.armed && e.File != nil {
		e.File.RemoveWatcher(pl)
	}
	pl.table.Delete(fd)
	return nil
}

// Interested implements core.Poller.
func (pl *Poller) Interested(fd int) bool { return pl.table.Contains(fd) }

// Len implements core.Poller.
func (pl *Poller) Len() int { return pl.table.Len() }

// FDs returns the interest set in pollfd-array order (for tests).
func (pl *Poller) FDs() []int { return pl.table.FDs() }

// MechanismStats implements core.StatsSource.
func (pl *Poller) MechanismStats() core.Stats { return pl.stats }

// Close implements core.Poller. A wait blocked in poll() completes
// immediately with no events.
func (pl *Poller) Close() error {
	if pl.closed {
		return core.ErrClosed
	}
	pl.disarm()
	pl.closed = true
	pl.eng.Abort(pl.k.Now())
	return nil
}

// Wait implements core.Poller: one poll() invocation over the whole interest
// set. The handler runs at the virtual instant the call would have returned.
func (pl *Poller) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if pl.closed {
		handler(nil, pl.k.Now())
		return
	}
	if max <= 0 {
		max = pl.table.Len() + 1
	}
	pl.eng.Wait(max, timeout, handler)
}

// collect performs one full pass over the pollfd array, charging the per-call
// copy-in (first pass) or the wakeup and wait-queue teardown (rescan), then a
// driver poll callback per descriptor, ready or not.
func (pl *Poller) collect(firstPass bool, max int, buf []core.Event) []core.Event {
	pl.stats.Waits++
	cost := pl.k.Cost
	n := pl.table.Len()
	if firstPass {
		pl.p.Charge(cost.SyscallEntry)
		// The entire pollfd array is copied into the kernel and parsed.
		pl.p.Charge(cost.PollCopyIn.Scale(float64(n)))
		pl.stats.CopiedIn += int64(n)
	} else {
		// Wakeup path: the process is rescheduled and the wait queues it
		// joined are torn down.
		pl.p.Charge(cost.SchedWakeup)
		pl.p.Charge(cost.WaitQueueOp.Scale(float64(n)))
	}
	ready := buf
	pl.table.Each(func(e *interest.Entry) {
		entry, ok := pl.p.Get(e.FD)
		if !ok {
			ready = interest.AppendEvent(ready, max, core.Event{FD: e.FD, Ready: core.POLLNVAL})
			return
		}
		revents := entry.DriverPoll()
		pl.stats.DriverPolls++
		revents &= e.Events | core.POLLERR | core.POLLHUP | core.POLLNVAL
		if revents != 0 {
			ready = interest.AppendEvent(ready, max, core.Event{FD: e.FD, Ready: revents, Gen: entry.Gen})
		}
	})
	if len(ready) > 0 {
		// Results are copied back to user space.
		pl.p.Charge(cost.PollCopyOut.Scale(float64(len(ready))))
		// The non-amortising part of the 2.2 poll path: for each readiness
		// transition that woke us, the wait queues and interest set were
		// re-walked (see CostModel.PollReadyRescan). This is the cost the
		// /dev/poll hints eliminate.
		pl.p.Charge(cost.PollReadyRescan.Scale(float64(n) * float64(len(ready))))
		pl.stats.CopiedOut += int64(len(ready))
		pl.stats.EventsReturned += int64(len(ready))
	}
	return ready
}

// arm registers the poller as a watcher on every descriptor in the interest
// set, modelling the per-descriptor wait-queue entries poll() creates when it
// blocks.
func (pl *Poller) arm() {
	pl.armed = true
	pl.table.Each(func(e *interest.Entry) {
		if entry, ok := pl.p.Get(e.FD); ok {
			entry.AddWatcher(pl)
			e.File = entry
		}
	})
}

// disarm removes all wait-queue entries.
func (pl *Poller) disarm() {
	if !pl.armed {
		return
	}
	pl.armed = false
	pl.table.Each(func(e *interest.Entry) {
		if e.File != nil {
			e.File.RemoveWatcher(pl)
			e.File = nil
		}
	})
}

// ReadinessChanged implements simkernel.Watcher: a driver woke one of the wait
// queues poll() is sleeping on. The rescan batch begins immediately;
// SchedWakeup is charged inside it.
func (pl *Poller) ReadinessChanged(now core.Time, fd *simkernel.FD, mask core.EventMask) {
	pl.eng.Wake()
}

var _ core.Poller = (*Poller)(nil)
var _ core.StatsSource = (*Poller)(nil)
var _ simkernel.Watcher = (*Poller)(nil)
