package simkernel

import (
	"container/heap"
	"fmt"
	"testing"

	"repro/internal/core"
)

// holdModel is the classic queue benchmark: n events stay pending, and each
// executed event schedules one successor a pseudo-random delay ahead (mean
// spacing 2 µs between pending events), so one Step is one schedule plus one
// pop at n pending.
func holdModel(n int) *Simulator {
	sim := NewSimulator()
	span := uint64(2 * n * int(core.Microsecond))
	x := uint64(1)
	next := func() core.Duration {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return core.Duration(x%span) + 1
	}
	var hold func(now core.Time)
	hold = func(now core.Time) { sim.At(now.Add(next()), hold) }
	for i := 0; i < n; i++ {
		sim.At(core.Time(next()), hold)
	}
	return sim
}

// BenchmarkEventQueue measures one schedule plus one pop of the hold model
// at 10k, 100k and 1M pending events.
func BenchmarkEventQueue(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			sim := holdModel(n)
			for i := 0; i < n; i++ {
				sim.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// TestEventQueueSteadyStateAllocs pins that, once the queue has reached its
// working size, scheduling and popping an event allocates nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	sim := holdModel(10000)
	for i := 0; i < 200000; i++ {
		sim.Step()
	}
	if allocs := testing.AllocsPerRun(10000, func() { sim.Step() }); allocs != 0 {
		t.Fatalf("%v allocs per schedule+pop in steady state, want 0", allocs)
	}
}

// FuzzEventQueue drives the Simulator's queue with pushes (same-instant,
// near, far, equal-instant bursts and keys near the top of the key range),
// pops, declined pops that park the clock below the peeked key, deadline runs
// and drains to empty, against the container/heap reference model in
// heap_test.go. Every executed event must be the reference minimum, fired at
// its own instant.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 3, 1, 200, 4, 0, 5, 0, 0, 1, 4, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return // longer inputs only repeat the same steps, slower
		}
		sim := NewSimulator()
		ref := refHeap{}
		var seq uint64
		push := func(at core.Time) {
			at = min(max(at, sim.Now()), farFuture)
			seq++
			want := &refEvent{at: at, seq: seq}
			heap.Push(&ref, want)
			sim.At(at, func(now core.Time) {
				got := heap.Pop(&ref).(*refEvent)
				if got != want || now != at {
					t.Fatalf("fired seq %d at %d, reference expects seq %d at %d", want.seq, now, got.seq, got.at)
				}
			})
		}
		for i := 0; i+1 < len(data); i += 2 {
			now, arg := sim.Now(), core.Time(data[i+1])
			switch data[i] % 8 {
			case 0: // same instant or a few ns ahead
				push(now + arg%16)
			case 1: // up to a quarter second ahead
				push(now + arg<<20)
			case 2: // a burst of equal instants far ahead, in one high bucket
				at := now + 1<<40 + arg>>5
				for j := core.Time(0); j <= arg%32; j++ {
					push(at)
				}
			case 3: // near the top of the key range
				push(farFuture - arg)
			case 4:
				sim.Step()
			case 5: // decline: park the clock between now and the next key
				if ref.Len() > 0 {
					sim.RunUntil(now + (ref[0].at-now)/2)
				}
			case 6: // run past the next key
				if ref.Len() > 0 && ref[0].at < farFuture-arg<<10 {
					sim.RunUntil(ref[0].at + arg<<10)
				}
			case 7: // drain to empty, so later pushes reuse free-listed chunks
				sim.Run()
			}
			if sim.Pending() != ref.Len() {
				t.Fatalf("op %d: %d pending, reference holds %d", i/2, sim.Pending(), ref.Len())
			}
		}
		sim.Run()
		if ref.Len() != 0 || sim.Pending() != 0 {
			t.Fatalf("after Run: %d pending, reference holds %d", sim.Pending(), ref.Len())
		}
	})
}
