package interest

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simkernel"
)

// engineState tracks where a wait currently is.
type engineState int

const (
	// stateIdle: no Wait in flight.
	stateIdle engineState = iota
	// stateScanning: a scan/dequeue batch is on the simulated CPU.
	stateScanning
	// stateBlocked: the scan found nothing; the process sleeps until a driver
	// notification (Wake) or the timeout fires.
	stateBlocked
	// stateExpiring: the timeout fired and its teardown batch is on the CPU;
	// the wait is committed to returning empty. Wakes during this window are
	// ignored — the readiness they announce is already latched in the
	// mechanism's ledger or queue and the next Wait's first pass collects it.
	stateExpiring
)

// Engine is the blocking-wait state machine shared by every event mechanism.
// Each mechanism owns what happens inside a scan (which descriptors to
// examine, what CPU costs to charge) and plugs it in through the hook fields;
// the engine owns the part they all used to duplicate: the
// idle/scanning/blocked lifecycle, the first-pass fast path versus the
// rescan-after-wakeup path, wakeups racing with an in-flight scan, timeout
// scheduling and cancellation, and dispatching the handler at the virtual
// instant the underlying blocking call would have returned.
//
// The zero value is not usable; populate the exported fields before the first
// Wait and do not change them afterwards.
type Engine struct {
	// Name identifies the mechanism in panic messages.
	Name string
	K    *simkernel.Kernel
	P    *simkernel.Proc

	// Collect runs inside the scan batch and returns the ready events for this
	// pass, charging all scan CPU costs (syscall entry on the first pass,
	// scheduler wakeup on rescans, per-descriptor work, copy-out) as it goes.
	// It must respect max, and it must build its result by appending to buf
	// (length zero, engine-owned storage): the engine double-buffers the
	// result area, so one wait's events stay valid while the next wait
	// collects, and steady-state waits allocate nothing.
	Collect func(firstPass bool, max int, buf []core.Event) []core.Event

	// OnBlock, if non-nil, runs inside the scan batch when nothing was ready
	// and the wait is about to block (timeout != 0): the point where a
	// mechanism joins wait queues (arms watchers) and charges for doing so.
	OnBlock func(firstPass bool)

	// OnFinish, if non-nil, runs immediately before the handler is invoked:
	// the point where a mechanism leaves the wait queues it joined (disarms
	// watchers). It runs on every completion path (events, timeout, abort).
	OnFinish func()

	// TimeoutTeardown, if non-nil, returns the CPU cost of dismantling the
	// blocked wait when its timeout expires; the engine charges it in a batch
	// before delivering the empty result. Nil means the timeout completes
	// without CPU work (RT signals).
	TimeoutTeardown func() core.Duration

	// Stats, if non-nil, receives the engine-level counters the mechanism
	// exposes (currently the EINTR interrupt count). Mechanisms point it at
	// their core.Stats block.
	Stats *core.Stats

	state      engineState
	pendWake   bool
	pendExpire bool
	curMax     int
	curHand    func(events []core.Event, now core.Time)

	// timeoutID is the generation of the live timeout registration; completing
	// a wait bumps it, so stale registrations still queued in the simulator
	// become no-ops. Registration records (each carrying its generation and a
	// once-bound callback) are pooled: a blocking wait with a finite timeout
	// allocates nothing at steady state.
	timeoutID   int64
	timeoutPool []*timeoutReg

	// EINTR fault-injection state. intrSeq counts blocking episodes on this
	// engine (the deterministic decision sequence — lane-local, so it is
	// identical at every thread count); intrSalt separates this engine's
	// decision stream from every other engine's; intrCharge marks that the
	// next scan batch must charge the signal delivery that interrupted the
	// wait. Interrupt registrations share the timeout pool's generation check,
	// so completing a wait staleness-kills any interrupt still in flight.
	intrSalt   uint64
	intrSeq    uint64
	intrCharge bool
	intrPool   []*intrReg

	// Per-scan parameters and the pre-bound batch closures: one wait is in
	// flight at a time, so the parameters live in fields and the two closures
	// handed to Proc.Batch are created once and reused for every scan —
	// the wait path performs no allocation of its own.
	scanFirst   bool
	scanTimeout core.Duration
	scanReady   []core.Event
	scanFn      func()
	scanDoneFn  func(done core.Time)

	// bufs is the double-buffered result area Collect appends into; cur
	// selects the buffer the in-flight scan owns. Two buffers make the events
	// delivered to one handler survive a Wait started from inside that
	// handler, matching the fresh-slice behaviour the mechanisms had before
	// the result area was pooled.
	bufs [2][]core.Event
	cur  int
}

// Wait starts one blocking wait: at most max events, blocking for at most
// timeout (core.Forever blocks indefinitely, 0 never blocks). The handler is
// invoked exactly once, at the virtual time the underlying call would have
// returned. A second Wait while one is in flight is a programming error.
func (e *Engine) Wait(max int, timeout core.Duration, handler func(events []core.Event, now core.Time)) {
	if e.state != stateIdle {
		panic(fmt.Sprintf("%s: concurrent Wait while one is in flight", e.Name))
	}
	e.curMax = max
	e.curHand = handler
	e.pendWake = false
	e.pendExpire = false
	e.scan(true, timeout)
}

// Wake is called by the mechanism's readiness notification (driver hint,
// wait-queue wakeup, signal enqueue). A wake during a scan marks the scan for
// an immediate rescan; a wake while blocked starts the rescan right away. The
// rescan carries core.Forever: any original timeout stays scheduled and still
// bounds the overall wait through its generation check.
func (e *Engine) Wake() {
	switch e.state {
	case stateScanning:
		e.pendWake = true
	case stateBlocked:
		e.scan(false, core.Forever)
	}
}

// Abort cancels a blocked wait, delivering an empty result at now. Waits that
// are mid-scan are left to complete normally. Mechanisms call it from Close so
// a close-while-waiting never strands the caller.
func (e *Engine) Abort(now core.Time) {
	if e.state == stateBlocked {
		e.finish(nil, now)
	}
}

// scan performs one pass inside a process batch. firstPass distinguishes the
// initial system call (which pays entry and copy-in costs) from a rescan after
// a wait-queue wakeup (which pays the scheduler wakeup instead).
func (e *Engine) scan(firstPass bool, timeout core.Duration) {
	if e.scanFn == nil {
		e.scanFn = e.runScan
		e.scanDoneFn = e.scanDone
	}
	e.state = stateScanning
	e.scanFirst = firstPass
	e.scanTimeout = timeout
	e.P.Batch(e.P.Now(), e.scanFn, e.scanDoneFn)
}

// runScan is the batch body of one scan pass.
func (e *Engine) runScan() {
	if e.intrCharge {
		// The previous blocking call was interrupted: charge delivering the
		// signal and returning from its handler. Collect's first-pass entry
		// charge below is the restarted syscall's fresh kernel entry.
		e.intrCharge = false
		e.P.Charge(e.K.Cost.SignalDeliver)
	}
	e.cur ^= 1
	e.scanReady = e.Collect(e.scanFirst, e.curMax, e.bufs[e.cur][:0])
	e.bufs[e.cur] = e.scanReady[:0]
	if len(e.scanReady) > 0 || e.scanTimeout == 0 {
		return
	}
	if e.OnBlock != nil {
		e.OnBlock(e.scanFirst)
	}
}

// scanDone runs at the scan batch's completion instant.
func (e *Engine) scanDone(done core.Time) {
	ready := e.scanReady
	timeout := e.scanTimeout
	e.scanReady = nil
	if len(ready) > 0 || timeout == 0 {
		e.finish(ready, done)
		return
	}
	if e.pendWake {
		// A readiness notification raced with the scan; rescan immediately.
		// A deadline that passed meanwhile (pendExpire) stays pending: if
		// the rescan also finds nothing, the wait times out below instead
		// of re-blocking forever.
		e.pendWake = false
		e.scan(false, timeout)
		return
	}
	if e.pendExpire {
		// The deadline passed while a rescan was on the CPU and the rescan
		// found nothing: the wait times out now.
		e.pendExpire = false
		e.expire(done)
		return
	}
	e.state = stateBlocked
	if timeout > 0 {
		e.timeoutID++
		var reg *timeoutReg
		if n := len(e.timeoutPool); n > 0 {
			reg = e.timeoutPool[n-1]
			e.timeoutPool[n-1] = nil
			e.timeoutPool = e.timeoutPool[:n-1]
		} else {
			reg = &timeoutReg{e: e}
			reg.fn = reg.fire
		}
		reg.id = e.timeoutID
		e.P.Q().At(done.Add(timeout), reg.fn)
	}
	if e.K.Faults.EINTRRate > 0 {
		e.armInterrupt(done)
	}
}

// armInterrupt rolls the EINTR decision for the blocking episode that just
// began and, when doomed, schedules the interrupt. Every blocking episode
// rolls independently — including the re-block after an interrupted wait's
// restart found nothing — so a high rate produces the geometric interrupt
// storms fig 42 sweeps.
func (e *Engine) armInterrupt(done core.Time) {
	if e.intrSalt == 0 {
		e.intrSalt = faults.SaltString(e.Name + "/" + e.P.Name)
	}
	e.intrSeq++
	fire, delay := e.K.Faults.EINTR(e.intrSalt, e.intrSeq)
	if !fire {
		return
	}
	var reg *intrReg
	if n := len(e.intrPool); n > 0 {
		reg = e.intrPool[n-1]
		e.intrPool[n-1] = nil
		e.intrPool = e.intrPool[:n-1]
	} else {
		reg = &intrReg{e: e}
		reg.fn = reg.fire
	}
	reg.id = e.timeoutID
	e.P.Q().At(done.Add(delay), reg.fn)
}

// intrReg is one scheduled EINTR delivery. Like timeoutReg it carries the
// engine generation it was armed under and recycles itself after firing.
type intrReg struct {
	e  *Engine
	id int64
	fn func(t core.Time)
}

// fire interrupts the blocked wait: the sleeping process is made runnable by a
// signal, observes EINTR, and restarts the call. The restart is a first-pass
// scan — a fresh kernel entry that collects anything that became ready during
// the interrupt window, so no wakeup is lost — carried with core.Forever so an
// original finite timeout stays armed at its absolute deadline (the recomputed
// timeout of a real restart loop). Interrupts that land after the wait
// completed (stale generation) or while a scan is already on the CPU are
// dropped: a signal delivered outside a blocking call interrupts nothing.
func (r *intrReg) fire(t core.Time) {
	e := r.e
	live := e.timeoutID == r.id
	e.intrPool = append(e.intrPool, r)
	if !live || e.state != stateBlocked {
		return
	}
	if e.Stats != nil {
		e.Stats.Interrupts++
	}
	e.intrCharge = true
	e.scan(true, core.Forever)
}

// timeoutReg is one scheduled wait deadline: the engine generation it was
// armed for and a callback bound once for the record's life. It recycles
// itself after firing (each registration fires exactly once).
type timeoutReg struct {
	e  *Engine
	id int64
	fn func(t core.Time)
}

func (r *timeoutReg) fire(t core.Time) {
	e := r.e
	live := e.timeoutID == r.id
	e.timeoutPool = append(e.timeoutPool, r)
	if !live {
		return
	}
	switch e.state {
	case stateBlocked:
		e.expire(t)
	case stateScanning:
		// A rescan is on the CPU as the deadline passes; let it finish, but
		// remember that the wait's time is up.
		e.pendExpire = true
	}
}

// finish tears down the wait and delivers results to the handler.
func (e *Engine) finish(events []core.Event, now core.Time) {
	if e.OnFinish != nil {
		e.OnFinish()
	}
	e.state = stateIdle
	e.timeoutID++
	h := e.curHand
	e.curHand = nil
	if h != nil {
		h(events, now)
	}
}

// AppendEvent appends e to events unless the result cap max has been reached,
// the bound every mechanism's Collect applies to its result area.
func AppendEvent(events []core.Event, max int, e core.Event) []core.Event {
	if len(events) >= max {
		return events
	}
	return append(events, e)
}

// expire completes a blocked wait whose timeout fired, charging the
// mechanism's teardown cost first if it has one. The state moves to
// stateExpiring before the teardown batch so a Wake racing with it cannot
// start a scan on behalf of a wait that is already returning.
func (e *Engine) expire(now core.Time) {
	if e.TimeoutTeardown == nil {
		e.finish(nil, now)
		return
	}
	e.state = stateExpiring
	cost := e.TimeoutTeardown()
	e.P.Batch(now, func() {
		e.P.Charge(cost)
	}, func(done core.Time) {
		e.finish(nil, done)
	})
}
