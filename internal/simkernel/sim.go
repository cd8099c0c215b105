// Package simkernel provides the discrete-event simulation substrate on which
// the reproduction runs: a virtual clock and event queue, a simulated
// uniprocessor CPU with a calibrated cost model, and a lightweight process
// model (file-descriptor table, readiness watchers, wait queues) that the
// network simulator and the event-notification mechanisms plug into.
//
// The real paper measured a Linux 2.2.14 kernel on a 400 MHz AMD K6-2. A Go
// library cannot reproduce that kernel interface directly, so this package
// reproduces the thing the evaluation actually depends on: where CPU time goes
// on a saturated uniprocessor as the interest set grows. See DESIGN.md §2.
package simkernel

import (
	"fmt"

	"repro/internal/core"
)

// Simulator is a deterministic discrete-event scheduler over virtual time.
// The zero value is not usable; call NewSimulator.
//
// Pending events live in one eventQueue (queue.go), a monotone radix heap
// that pops in (at, seq) order and allocates nothing in steady state. The
// sharded engine's lanes (shard.go) each hold the same queue type.
type Simulator struct {
	now     core.Time
	stopped bool
	q       eventQueue

	// Executed counts events dispatched since construction.
	Executed int64

	// shard is the sharded (parallel) execution engine, nil unless
	// EnableSharding was called. When set, all scheduling goes through lane
	// handles (LaneQ) and RunUntil drives the epoch loop in shard.go; q
	// stays empty.
	shard *shardEngine
}

// NewSimulator returns an empty simulator positioned at virtual time zero.
func NewSimulator() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() core.Time { return s.now }

// Pending returns the number of scheduled, not yet executed events.
func (s *Simulator) Pending() int {
	if s.shard != nil {
		n := 0
		for _, ln := range s.shard.lanes {
			n += ln.q.len()
		}
		for i := range s.shard.rings {
			n += len(s.shard.rings[i].recs)
		}
		return n
	}
	return s.q.len()
}

// At schedules fn to run at the absolute virtual instant t. Scheduling in the
// past is a programming error and panics, because it would break causality.
func (s *Simulator) At(t core.Time, fn func(now core.Time)) {
	if fn == nil {
		panic("simkernel: At with nil callback")
	}
	if s.shard != nil {
		panic("simkernel: direct At on a sharded simulator (schedule through a LaneQ handle)")
	}
	if t < s.now {
		panic(fmt.Sprintf("simkernel: scheduling into the past (%v < %v)", t, s.now))
	}
	s.q.push(t, fn)
}

// After schedules fn to run d after the current virtual time. A negative d is
// treated as zero.
func (s *Simulator) After(d core.Duration, fn func(now core.Time)) {
	if d < 0 {
		d = 0
	}
	s.At(s.now.Add(d), fn)
}

// Stop makes Run and RunUntil return after the currently executing event.
func (s *Simulator) Stop() { s.stopped = true }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (s *Simulator) Run() core.Time { return s.RunUntil(farFuture) }

// RunUntil executes events with timestamps not after deadline, or until the
// queue drains or Stop is called. The clock is left at the time of the last
// executed event (or at deadline if it was reached with events remaining).
func (s *Simulator) RunUntil(deadline core.Time) core.Time {
	if s.shard != nil {
		return s.shard.run(deadline)
	}
	s.stopped = false
	for !s.stopped {
		e, ok := s.pop(deadline)
		if !ok {
			break
		}
		s.now = e.at
		s.Executed++
		e.fn(s.now)
	}
	return s.now
}

// Step executes exactly one pending event, if any, and reports whether one was
// executed. It is primarily useful in tests.
func (s *Simulator) Step() bool {
	if s.shard != nil {
		panic("simkernel: Step on a sharded simulator")
	}
	e, ok := s.pop(farFuture)
	if !ok {
		return false
	}
	s.now = e.at
	s.Executed++
	e.fn(s.now)
	return true
}

// pop removes and returns the earliest pending event. If that event lies
// beyond deadline it is left queued, the clock advances to deadline, and ok is
// false; ok is also false on an empty queue.
func (s *Simulator) pop(deadline core.Time) (e event, ok bool) {
	if s.q.len() == 0 {
		return event{}, false
	}
	if s.q.peek() > deadline {
		s.now = deadline
		return event{}, false
	}
	return s.q.pop(), true
}
