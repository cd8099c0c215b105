// Package eventlib is the callback-driven event API the servers program
// against — the programming model Provos extracted from this line of work into
// libevent, recast over the simulated kernel. A Base owns one event-notification
// mechanism (any core.Poller), a timer heap in virtual time, and the dispatch
// loop every server used to hand-roll: it computes poll timeouts from the
// armed timers, iterates readiness results, and invokes per-event callbacks
// inside a process batch so every dispatch still charges the calibrated cost
// model.
//
// Event handles carry read/write/timeout interest, persistent versus one-shot
// semantics, and a priority; active events are queued into priority buckets and
// the highest-priority bucket is drained first (priority 0 is the highest, as
// in libevent). Teardown is deterministic: deleting an event from inside a
// callback — including a callback for a different event activated in the same
// batch — guarantees the deleted event's callback never runs again, and
// closing the base while a wait is pending completes the wait instead of
// stranding it.
//
// The package deliberately mirrors libevent's shape (event_base / event /
// event_add / event_del / dispatch) so that one server runs unchanged over
// poll, /dev/poll, RT signals, or epoll; the backend registry in registry.go
// replaces the per-server mechanism constructors.
package eventlib

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/rtsig"
	"repro/internal/simkernel"
)

// What is a bitmask of the conditions an event is registered for, and of the
// conditions reported to its callback. The values mirror libevent's EV_* bits.
type What uint8

// Event condition bits.
const (
	// EvTimeout reports that the event's timeout expired.
	EvTimeout What = 0x01
	// EvRead requests/reports readability (POLLIN and error conditions).
	EvRead What = 0x02
	// EvWrite requests/reports writability.
	EvWrite What = 0x04
	// EvSignal marks an event dispatched by descriptor match only: the base
	// never registers poller interest for it. The RT-signal queue's overflow
	// sentinel (a negative descriptor) is delivered through a signal event.
	EvSignal What = 0x08
	// EvPersist keeps the event registered after it fires; without it the
	// event is deleted immediately before its callback runs (re-adding it from
	// inside the callback re-arms it, as in libevent).
	EvPersist What = 0x10
)

// Has reports whether every bit of want is set in w.
func (w What) Has(want What) bool { return w&want == want }

// String renders the mask for diagnostics.
func (w What) String() string {
	if w == 0 {
		return "0"
	}
	names := []struct {
		bit  What
		name string
	}{
		{EvTimeout, "TIMEOUT"}, {EvRead, "READ"}, {EvWrite, "WRITE"},
		{EvSignal, "SIGNAL"}, {EvPersist, "PERSIST"},
	}
	out := ""
	for _, n := range names {
		if w&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	return out
}

// Callback is invoked when an event becomes active. what holds the conditions
// that fired (EvRead/EvWrite/EvTimeout/EvSignal); now is the virtual instant of
// the dispatch batch. Callbacks run inside a process batch: socket calls and
// event Add/Del are legal, a nested Dispatch is not.
type Callback func(fd int, what What, now core.Time)

// Config parameterises a Base.
type Config struct {
	// Backend names the registry backend New constructs ("" selects the
	// highest-preference backend; see Backends). Ignored by NewWithPoller.
	Backend string
	// MaxEventsPerWait caps how many readiness events one poller wait may
	// deliver; zero selects 1024. Mechanisms with stricter semantics (the RT
	// signal queue dequeues one siginfo per sigwaitinfo call) clamp further.
	MaxEventsPerWait int
	// Priorities is the number of priority buckets (zero selects 1). Priority
	// 0 is the highest; each dispatch iteration drains only the
	// highest-priority non-empty bucket, so a steady stream of high-priority
	// activations starves lower buckets, exactly as in libevent.
	Priorities int
	// LoopCost is charged to the process once per dispatch iteration — the
	// per-loop bookkeeping a real server performs (thttpd charges its timer
	// list scan and fdwatch setup here). Zero charges nothing.
	LoopCost core.Duration
	// MirrorInterest, when true, applies every interest registration and
	// removal to all attached pollers rather than only the active one. The
	// hybrid server uses it to keep /dev/poll's interest set current while RT
	// signals deliver events, which is what makes its mode switch nearly free.
	MirrorInterest bool
	// AfterDispatch, when non-nil, runs inside the dispatch batch after the
	// bucket drain with the number of readiness events the poller delivered in
	// this iteration. The hybrid server evaluates its mode-switch policy here.
	AfterDispatch func(delivered int, now core.Time)
}

// Base is the event loop: one active poller (plus optional attached pollers),
// the timer heap, the active-event priority buckets, and the dispatch state.
type Base struct {
	K *simkernel.Kernel
	P *simkernel.Proc

	cfg     Config
	backend Backend // metadata when constructed through the registry

	pollers []core.Poller // attachment order; pollers[active] is the wait target
	active  int
	owned   bool // Close closes pollers the registry constructed

	// evs is the fd -> event table for non-negative descriptors, dense
	// because the simulated kernel allocates descriptors lowest-unused; the
	// rare negative descriptors (signal sentinels like the RT-signal overflow
	// event) live in evNeg. evCount counts entries across both.
	evs     []*Event
	evNeg   map[int]*Event
	evCount int
	timers  timerWheel
	nextSeq uint64

	buckets [][]*Event
	spare   []*Event // recycled bucket backing storage

	// The dispatch loop's per-iteration state and pre-bound callbacks: the
	// wait completion, the dispatch batch body and its completion are the
	// three hottest closures in the system, so they are created once here
	// and the per-iteration values travel through fields.
	onWaitFn       func(events []core.Event, now core.Time)
	dispatchFn     func()
	dispatchDoneFn func(now core.Time)
	pendingEvents  []core.Event
	pendingNow     core.Time

	running    bool
	stopped    bool
	closed     bool
	iterations int64
}

// New constructs a Base whose poller comes from the backend registry:
// cfg.Backend by name, or the highest-preference backend when empty. The
// returned Base owns the poller and closes it in Close. Unknown backend names
// produce an error listing the registered choices.
func New(k *simkernel.Kernel, p *simkernel.Proc, cfg Config) (*Base, error) {
	b, ok := Lookup(cfg.Backend)
	if !ok {
		return nil, UnknownBackendError(cfg.Backend)
	}
	base := NewWithPoller(k, p, b.Open(k, p), cfg)
	base.backend = b
	base.owned = true
	return base, nil
}

// NewWithPoller constructs a Base over a caller-supplied poller. The caller
// retains ownership: Close tears down the base's events but leaves the poller
// open.
func NewWithPoller(k *simkernel.Kernel, p *simkernel.Proc, poller core.Poller, cfg Config) *Base {
	if cfg.MaxEventsPerWait <= 0 {
		cfg.MaxEventsPerWait = 1024
	}
	if cfg.Priorities <= 0 {
		cfg.Priorities = 1
	}
	b := &Base{
		K:       k,
		P:       p,
		cfg:     cfg,
		pollers: []core.Poller{poller},
		buckets: make([][]*Event, cfg.Priorities),
	}
	b.onWaitFn = b.onWait
	b.dispatchFn = b.dispatchBatch
	b.dispatchDoneFn = b.dispatchDone
	return b
}

// eventFor returns the I/O or signal event registered on fd.
func (b *Base) eventFor(fd int) (*Event, bool) {
	if fd >= 0 {
		if fd < len(b.evs) && b.evs[fd] != nil {
			return b.evs[fd], true
		}
		return nil, false
	}
	ev, ok := b.evNeg[fd]
	return ev, ok
}

// setEvent registers ev as fd's event.
func (b *Base) setEvent(fd int, ev *Event) {
	if fd >= 0 {
		for fd >= len(b.evs) {
			b.evs = append(b.evs, nil)
		}
		b.evs[fd] = ev
	} else {
		if b.evNeg == nil {
			b.evNeg = make(map[int]*Event)
		}
		b.evNeg[fd] = ev
	}
	b.evCount++
}

// clearEvent removes fd's event registration.
func (b *Base) clearEvent(fd int) {
	if fd >= 0 {
		if fd < len(b.evs) && b.evs[fd] != nil {
			b.evs[fd] = nil
			b.evCount--
		}
	} else if _, ok := b.evNeg[fd]; ok {
		delete(b.evNeg, fd)
		b.evCount--
	}
}

// eachEvent visits every registered fd event (in no particular order).
func (b *Base) eachEvent(fn func(ev *Event)) {
	for _, ev := range b.evs {
		if ev != nil {
			fn(ev)
		}
	}
	for _, ev := range b.evNeg {
		fn(ev)
	}
}

// Backend returns the registry metadata for a Base built by New; for
// NewWithPoller bases it returns a zero Backend with only Name filled from the
// poller.
func (b *Base) Backend() Backend {
	if b.backend.Open != nil {
		return b.backend
	}
	return Backend{Name: b.Poller().Name()}
}

// Poller returns the active wait target.
func (b *Base) Poller() core.Poller { return b.pollers[b.active] }

// AttachPoller registers an additional mechanism with the base. With
// Config.MirrorInterest set, subsequent Adds and Dels apply to it too; either
// way it becomes a valid argument to Activate. Attach pollers before adding
// events: existing interests are not copied retroactively.
func (b *Base) AttachPoller(p core.Poller) {
	b.pollers = append(b.pollers, p)
}

// Activate makes p — the current poller or one previously attached — the wait
// target for subsequent dispatch iterations. With reregister set, every
// pending I/O event's interest is added to p first (skipping descriptors p
// already tracks), in event-creation order: phhttpd's rebuild-the-pollfd-array
// handoff. Without it the caller warrants that p's interest set is already
// current (the hybrid server's mirrored sets).
func (b *Base) Activate(p core.Poller, reregister bool) error {
	idx := -1
	for i, attached := range b.pollers {
		if attached == p {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("eventlib: Activate of a poller that was never attached")
	}
	if reregister {
		for _, ev := range b.eventsInOrder() {
			if ev.what&EvSignal != 0 || !ev.added {
				continue
			}
			if !p.Interested(ev.fd) {
				_ = p.Add(ev.fd, ev.interestMask())
			}
		}
	}
	b.active = idx
	return nil
}

// Iterations reports completed dispatch iterations (the servers' former
// per-loop counters).
func (b *Base) Iterations() int64 { return b.iterations }

// NumEvents reports how many events are currently added (pending I/O, signal
// and timer events alike).
func (b *Base) NumEvents() int {
	n := b.evCount + b.timers.Len()
	// Timers that are also in the fd table (I/O events with timeouts) must not
	// be double-counted.
	b.eachEvent(func(ev *Event) {
		if ev.timerArmed() {
			n--
		}
	})
	return n
}

// eventsInOrder returns the fd-mapped events sorted by creation sequence, the
// deterministic order used for re-registration.
func (b *Base) eventsInOrder() []*Event {
	out := make([]*Event, 0, b.evCount)
	b.eachEvent(func(ev *Event) { out = append(out, ev) })
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// NewEvent creates an event handle for fd with the given conditions and
// callback. The event is not armed until Add. At most one I/O event may exist
// per descriptor (the Poller interface registers one interest per fd); adding
// a second event for the same descriptor is an error reported by Add, not
// here, so handles can be prepared freely.
//
// Events created with EvSignal (or a negative fd, which implies it) are
// dispatched by descriptor match alone and never touch the poller's interest
// set.
func (b *Base) NewEvent(fd int, what What, cb Callback) *Event {
	if fd < 0 {
		what |= EvSignal
	}
	b.nextSeq++
	return &Event{base: b, fd: fd, what: what, cb: cb, wheelLevel: wheelUnarmed, seq: b.nextSeq}
}

// NewTimer creates a pure timer event: no descriptor, fired only by its
// timeout. what may include EvPersist for a periodic timer.
func (b *Base) NewTimer(what What, cb Callback) *Event {
	b.nextSeq++
	return &Event{base: b, fd: -1, what: (what & EvPersist) | EvTimeout | EvSignal, timerOnly: true, cb: cb, wheelLevel: wheelUnarmed, seq: b.nextSeq}
}

// OnOverflow arms RT-signal overflow recovery when the active poller is an
// *rtsig.Queue, and does nothing otherwise. The queue reports an overflow as
// the SIGIO sentinel on rtsig.OverflowFD; a persistent signal event routes it
// to q.Recover (flush the queue) and then fn, which must re-discover whatever
// the dropped signals announced. Call it once, from inside the server's start
// batch; arming on a closed base (or twice on one base) panics.
func (b *Base) OnOverflow(fn func(now core.Time)) {
	q, ok := b.Poller().(*rtsig.Queue)
	if !ok {
		return
	}
	ovf := b.NewEvent(rtsig.OverflowFD, EvSignal|EvPersist, func(_ int, _ What, now core.Time) {
		q.Recover()
		fn(now)
	})
	if err := ovf.Add(0); err != nil {
		panic("eventlib: arming the overflow event: " + err.Error())
	}
}

// Dispatch starts the event loop. It returns immediately — the loop advances
// through the simulator as waits complete — and runs until Stop or Close, or
// until no events remain added. It may be restarted after it exits.
func (b *Base) Dispatch() {
	if b.running {
		panic("eventlib: Dispatch while the loop is already running")
	}
	if b.closed {
		return
	}
	b.running = true
	b.stopped = false
	b.loop()
}

// Stop halts the loop after the current iteration, leaving all events
// registered; Dispatch may be called again.
func (b *Base) Stop() { b.stopped = true }

// Running reports whether the dispatch loop is active.
func (b *Base) Running() bool { return b.running }

// Close deletes every event, closes registry-owned pollers, and completes any
// in-flight wait (the poller's close aborts it, delivering an empty result, so
// a close-while-pending never strands the loop).
func (b *Base) Close() error {
	if b.closed {
		return core.ErrClosed
	}
	b.closed = true
	b.stopped = true
	for _, ev := range b.eventsInOrder() {
		_ = ev.Del()
	}
	for b.timers.Len() > 0 {
		// Pop unconditionally rather than trusting Del to remove the wheel
		// minimum: Del is a no-op for events it considers not pending, and
		// relying on it for loop progress would turn Close into an infinite
		// loop the moment any such event reached the wheel.
		ev := b.timers.PopMin()
		_ = ev.Del()
	}
	if b.owned {
		for _, p := range b.pollers {
			_ = p.Close()
		}
	}
	return nil
}

// loop performs one wait-and-dispatch iteration.
func (b *Base) loop() {
	if b.stopped || b.closed {
		b.running = false
		return
	}
	if b.evCount == 0 && b.timers.Len() == 0 && !b.anyActive() {
		// Nothing can ever fire: the natural exit of event_base_dispatch.
		b.running = false
		return
	}
	b.Poller().Wait(b.cfg.MaxEventsPerWait, b.nextTimeout(), b.onWaitFn)
}

// anyActive reports whether any bucket still holds activations from a
// previous iteration (lower-priority events waiting their turn).
func (b *Base) anyActive() bool {
	for _, q := range b.buckets {
		if len(q) > 0 {
			return true
		}
	}
	return false
}

// nextTimeout derives the poll timeout from the timer heap: zero (never
// block) when activations are still queued or a deadline has passed, the time
// to the earliest deadline otherwise, Forever with no timers armed.
func (b *Base) nextTimeout() core.Duration {
	if b.anyActive() {
		return 0
	}
	min, ok := b.timers.MinDeadline()
	if !ok {
		return core.Forever
	}
	remaining := min.Sub(b.P.Now())
	if remaining < 0 {
		return 0
	}
	return remaining
}

// onWait is the poller wait completion: one dispatch batch. The events slice
// and instant travel through fields so the pre-bound batch closures carry no
// per-iteration state of their own.
func (b *Base) onWait(events []core.Event, now core.Time) {
	if b.stopped || b.closed {
		b.running = false
		return
	}
	b.iterations++
	b.pendingEvents = events
	b.pendingNow = now
	b.P.Batch(now, b.dispatchFn, b.dispatchDoneFn)
}

// dispatchBatch is the body of one dispatch iteration's batch.
func (b *Base) dispatchBatch() {
	events := b.pendingEvents
	now := b.pendingNow
	b.pendingEvents = nil
	if b.cfg.LoopCost > 0 {
		b.P.Charge(b.cfg.LoopCost)
	}
	// Readiness first, then expired timers, so a timer callback (an idle
	// sweep) observes the batch's I/O effects — the order the hand-rolled
	// server loops used.
	for _, pe := range events {
		ev, ok := b.eventFor(pe.FD)
		if !ok {
			// Stale: the event was deleted while the readiness report was
			// in flight (an RT signal for a closed connection, for
			// example). Real servers must ignore these, says the paper.
			continue
		}
		if pe.Gen != 0 && ev.gen != 0 && pe.Gen != ev.gen {
			// Stale, and worse: the descriptor number was recycled, so the
			// raw fd now names a different connection than the one this
			// report is about. Without the generation check the report
			// would fire the new event's callback — the fd-reuse aliasing
			// the paper's stale-signal warning is really about.
			continue
		}
		b.activate(ev, ev.firedWhat(pe.Ready))
	}
	for {
		ev := b.timers.PopExpired(now)
		if ev == nil {
			break
		}
		b.activate(ev, EvTimeout)
	}
	b.processActive(now)
	if b.cfg.AfterDispatch != nil {
		b.cfg.AfterDispatch(len(events), now)
	}
}

// dispatchDone runs at the dispatch batch's completion: the next iteration.
func (b *Base) dispatchDone(core.Time) {
	b.loop()
}

// activate queues ev into its priority bucket, or folds the new conditions
// into an activation already queued.
func (b *Base) activate(ev *Event, what What) {
	if what == 0 {
		return
	}
	if ev.activeWhat != 0 {
		ev.activeWhat |= what
		return
	}
	ev.activeWhat = what
	b.buckets[ev.priority] = append(b.buckets[ev.priority], ev)
}

// processActive drains the highest-priority non-empty bucket, invoking
// callbacks in activation order. Lower buckets wait for later iterations —
// the starvation semantics libevent documents. Events deleted between
// activation and their turn (by an earlier callback in the same bucket) are
// skipped.
func (b *Base) processActive(now core.Time) {
	for pri := range b.buckets {
		if len(b.buckets[pri]) == 0 {
			continue
		}
		queue := b.buckets[pri]
		// Swap in the spare backing array instead of nil so activations from
		// inside the callbacks append without reallocating; the drained queue
		// becomes the next spare.
		b.buckets[pri] = b.spare[:0]
		b.spare = nil
		for i := 0; i < len(queue); i++ {
			ev := queue[i]
			if ev.activeWhat == 0 || !ev.added {
				continue // deleted (or already dispatched) since activation
			}
			what := ev.activeWhat
			ev.activeWhat = 0
			if ev.what&EvPersist == 0 {
				// One-shot: deleted before the callback runs, so the callback
				// may re-Add it.
				_ = ev.Del()
			} else if ev.timeout > 0 {
				// A persistent event's timeout re-arms on every firing,
				// whether by I/O or by expiry.
				ev.schedule(now.Add(ev.timeout))
			}
			ev.cb(ev.fd, what, now)
		}
		for i := range queue {
			queue[i] = nil // release the handles for the collector
		}
		b.spare = queue[:0]
		return
	}
}

// Event is one registration: a descriptor (or pure timer), the conditions of
// interest, a callback, and a priority. Handles are created by Base.NewEvent /
// Base.NewTimer and armed with Add.
type Event struct {
	base      *Base
	fd        int
	what      What
	cb        Callback
	priority  int
	timerOnly bool
	seq       uint64

	added    bool
	timeout  core.Duration
	deadline core.Time

	// Timer-wheel linkage (intrusive doubly-linked slot lists; see wheel.go).
	// wheelLevel is wheelUnarmed when the event holds no timer.
	wheelPrev  *Event
	wheelNext  *Event
	wheelLevel int8
	wheelSlot  uint8

	// gen is the generation of the descriptor instance the event was armed
	// for (simkernel.FD.Gen, captured at Add). Readiness reports carrying a
	// different generation are about a previous open of the same descriptor
	// number and are dropped instead of dispatched. Zero for signal events and
	// for descriptors the process does not hold.
	gen uint64

	activeWhat What
}

// FD returns the descriptor the event watches (negative for timers and signal
// events).
func (ev *Event) FD() int { return ev.fd }

// Pending reports whether the event is added.
func (ev *Event) Pending() bool { return ev.added }

// SetPriority assigns the event to a bucket (0 is highest). It must be called
// while the event is not active; priorities outside the base's configured
// range are an error.
func (ev *Event) SetPriority(pri int) error {
	if pri < 0 || pri >= len(ev.base.buckets) {
		return fmt.Errorf("eventlib: priority %d outside [0,%d)", pri, len(ev.base.buckets))
	}
	if ev.activeWhat != 0 {
		return fmt.Errorf("eventlib: SetPriority on an active event")
	}
	ev.priority = pri
	return nil
}

// interestMask translates the event's conditions into a poller interest mask.
func (ev *Event) interestMask() core.EventMask {
	var m core.EventMask
	if ev.what&EvRead != 0 {
		m |= core.POLLIN
	}
	if ev.what&EvWrite != 0 {
		m |= core.POLLOUT
	}
	return m
}

// firedWhat maps a poller readiness mask onto the conditions this event
// registered for. Error conditions activate whichever of read/write interest
// the event holds, as poll(2) reports POLLERR/POLLHUP regardless of the
// requested mask.
func (ev *Event) firedWhat(ready core.EventMask) What {
	if ev.what&EvSignal != 0 {
		return EvSignal
	}
	var w What
	if ev.what&EvRead != 0 && ready.Any(core.POLLIN|core.POLLPRI|core.POLLERR|core.POLLHUP|core.POLLNVAL) {
		w |= EvRead
	}
	if ev.what&EvWrite != 0 && ready.Any(core.POLLOUT|core.POLLERR|core.POLLHUP|core.POLLNVAL) {
		w |= EvWrite
	}
	return w
}

// Add arms the event: I/O interest is registered with the base's poller (all
// attached pollers under MirrorInterest), and a positive timeout arms the
// timer heap — EvTimeout fires if the conditions stay quiet that long. Zero
// (or Forever) means no timeout; pure timers require one. Re-adding a pending
// event just re-arms its timeout.
//
// Add takes effect at the next dispatch iteration: call it before Dispatch or
// from inside a callback (the loop recomputes its poll timeout after every
// batch). Arming a timer from outside the loop while a wait is already
// blocked does not shorten that wait — the new deadline is only considered
// once the wait returns.
func (ev *Event) Add(timeout core.Duration) error {
	b := ev.base
	if b.closed {
		return core.ErrClosed
	}
	if timeout == core.Forever {
		timeout = 0
	}
	if ev.timerOnly && timeout <= 0 {
		return fmt.Errorf("eventlib: a pure timer needs a positive timeout")
	}
	if !ev.added {
		if ev.what&EvSignal == 0 {
			if existing, dup := b.eventFor(ev.fd); dup && existing != ev {
				return fmt.Errorf("eventlib: descriptor %d already has an event", ev.fd)
			}
			for _, p := range b.registrationTargets() {
				if err := p.Add(ev.fd, ev.interestMask()); err != nil {
					return err
				}
			}
			// Bind the registration to this particular open of the descriptor
			// number, so a report still in flight for a previous open (which
			// carries the same raw fd) cannot fire this event's callback.
			ev.gen = 0
			if entry, ok := b.P.Get(ev.fd); ok {
				ev.gen = entry.Gen
			}
			b.setEvent(ev.fd, ev)
		} else if !ev.timerOnly {
			if existing, dup := b.eventFor(ev.fd); dup && existing != ev {
				return fmt.Errorf("eventlib: descriptor %d already has an event", ev.fd)
			}
			b.setEvent(ev.fd, ev)
		}
		ev.added = true
	}
	ev.timeout = timeout
	if timeout > 0 {
		ev.schedule(b.P.Now().Add(timeout))
	} else {
		b.timers.Cancel(ev)
	}
	return nil
}

// registrationTargets returns the pollers an interest registration applies
// to: all attached pollers under MirrorInterest, the active one otherwise.
func (b *Base) registrationTargets() []core.Poller {
	if b.cfg.MirrorInterest {
		return b.pollers
	}
	return []core.Poller{b.Poller()}
}

// schedule (re)arms the event's timer-wheel entry for the given deadline.
func (ev *Event) schedule(deadline core.Time) {
	ev.base.timers.Schedule(ev, deadline)
}

// Del disarms the event: poller interest is removed from every attached
// poller that tracks the descriptor (covering interests left behind on a
// previously active mechanism), the timer entry is cancelled, and any queued
// activation is discarded — deleting from inside a callback guarantees the
// event will not fire afterwards. Deleting a non-pending event is a no-op.
func (ev *Event) Del() error {
	b := ev.base
	if !ev.added {
		return nil
	}
	ev.added = false
	ev.activeWhat = 0
	b.timers.Cancel(ev)
	if !ev.timerOnly {
		b.clearEvent(ev.fd)
	}
	if ev.what&EvSignal == 0 {
		for _, p := range b.pollers {
			if p.Interested(ev.fd) {
				_ = p.Remove(ev.fd)
			}
		}
	}
	return nil
}

// The timer structure itself — a hierarchical timing wheel with exact
// (deadline, seq) pop order — lives in wheel.go.
