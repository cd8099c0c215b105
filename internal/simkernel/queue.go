package simkernel

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
)

// event is a scheduled callback in the simulation. Events are stored by value
// inside the queue's chunks — no per-schedule allocation, no interface
// boxing — because scheduling is the hottest operation in the whole system
// (every syscall batch, every network segment and every timer goes through
// it). Only the callback closure itself may allocate, at the caller's site.
type event struct {
	at  core.Time
	seq uint64
	fn  func(now core.Time)
}

// farFuture is the sentinel "no pending event" instant, and Run's effectively
// unbounded deadline.
const farFuture = core.Time(1<<62 - 1)

// chunkLen is the number of events in one bucket chunk (about 3 KiB).
const chunkLen = 128

// chunk is a fixed-size block of a bucket's events. Bucket k's events live in
// a singly linked list of chunks whose first chunk alone may be partly filled.
type chunk struct {
	ev   [chunkLen]event
	next *chunk
}

// bucket k holds the events whose highest bit differing from the queue's
// floor is bit k-1, together with their smallest key.
type bucket struct {
	top *chunk
	n   int // events in top; every later chunk is full
	min core.Time
}

// eventQueue is the simulation's pending-event set: a monotone radix heap
// keyed on the event instant, popping in (at, seq) order. Virtual time never
// runs backwards, so every pushed key is at least the floor — the key last
// popped — and an event's bucket is the bit length of key XOR floor. Popping
// from an empty run advances the floor to the smallest key of the lowest
// non-empty bucket and redistributes that bucket into strictly lower ones, so
// each event moves O(log key range) times over its life instead of paying
// O(log pending) per pop. Events whose key equals the floor form the run: a
// FIFO sorted by seq. Those redistributed out of a bucket arrive in no
// particular order and are sorted once; those pushed directly carry the
// newest seq and append in order — the same-instant path that batch
// completions, immediate wakeups and deferred effects take.
//
// Chunks come from one free list and return to it when a bucket is
// redistributed, so the queue holds at most its peak occupancy plus one
// partial chunk per bucket, and steady-state scheduling allocates nothing.
//
// peek reads a bucket's cached minimum and never moves the floor: a caller
// may decline the event peek reports (a RunUntil deadline, a lane horizon)
// and then schedule below it, which is only safe while the floor stays at
// the last popped key.
type eventQueue struct {
	last    core.Time // the floor: the key of the last refill
	seq     uint64
	n       int
	run     []event // events at key == last, in seq order from runHead
	runHead int
	mask    uint64 // bit k set when buckets[k] is non-empty (k ≥ 1)
	buckets [64]bucket
	free    *chunk
}

// len returns the number of queued events.
func (q *eventQueue) len() int { return q.n }

// push queues fn at instant at, which must not precede the floor.
func (q *eventQueue) push(at core.Time, fn func(now core.Time)) {
	if at < q.last {
		panic(fmt.Sprintf("simkernel: event at %v below the queue floor %v", at, q.last))
	}
	q.seq++
	q.n++
	e := event{at: at, seq: q.seq, fn: fn}
	if at == q.last {
		q.run = append(q.run, e)
		return
	}
	q.put(e)
}

// put files e into its bucket relative to the current floor.
func (q *eventQueue) put(e event) {
	k := bits.Len64(uint64(e.at ^ q.last))
	b := &q.buckets[k]
	if q.mask&(1<<k) == 0 || e.at < b.min {
		q.mask |= 1 << k
		b.min = e.at
	}
	if b.top == nil || b.n == chunkLen {
		c := q.free
		if c != nil {
			q.free = c.next
		} else {
			c = new(chunk)
		}
		c.next = b.top
		b.top, b.n = c, 0
	}
	b.top.ev[b.n] = e
	b.n++
}

// peek returns the earliest queued instant, or farFuture when the queue is
// empty. It does not change the queue.
func (q *eventQueue) peek() core.Time {
	if q.runHead < len(q.run) {
		return q.last
	}
	if q.mask == 0 {
		return farFuture
	}
	return q.buckets[bits.TrailingZeros64(q.mask)].min
}

// pop removes and returns the (at, seq) minimum. The queue must be non-empty.
func (q *eventQueue) pop() event {
	if q.runHead == len(q.run) {
		q.refill()
	}
	head := &q.run[q.runHead]
	e := *head
	*head = event{} // release the closure for the collector
	q.runHead++
	if q.runHead == len(q.run) {
		// Drained: rewind so the backing array is reused.
		q.run = q.run[:0]
		q.runHead = 0
	}
	q.n--
	return e
}

// refill advances the floor to the lowest non-empty bucket's minimum and
// redistributes that bucket: events at the new floor form the run, the rest
// land in lower buckets (they share the floor's bits above the old bucket's).
// Its chunks go back to the free list, cleared so they pin no closures.
func (q *eventQueue) refill() {
	k := bits.TrailingZeros64(q.mask)
	b := q.buckets[k]
	q.buckets[k] = bucket{}
	q.mask &^= 1 << k
	q.last = b.min
	for c, n := b.top, b.n; c != nil; n = chunkLen {
		for i := 0; i < n; i++ {
			if c.ev[i].at == q.last {
				q.run = append(q.run, c.ev[i])
			} else {
				q.put(c.ev[i])
			}
		}
		clear(c.ev[:n])
		next := c.next
		c.next = q.free
		q.free = c
		c = next
	}
	if len(q.run) > 1 {
		slices.SortFunc(q.run, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	}
}
