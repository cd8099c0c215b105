package stockpoll

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/simtest"
)

func TestInterestSetManagement(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	if pl.Name() != "poll" {
		t.Fatalf("Name = %q", pl.Name())
	}
	if err := pl.Add(3, core.POLLIN); err != nil {
		t.Fatal(err)
	}
	if err := pl.Add(3, core.POLLIN); err != core.ErrExists {
		t.Fatalf("duplicate Add: %v", err)
	}
	if err := pl.Add(4, core.POLLOUT); err != nil {
		t.Fatal(err)
	}
	if !pl.Interested(3) || pl.Len() != 2 {
		t.Fatalf("Interested/Len wrong: %v %d", pl.Interested(3), pl.Len())
	}
	if err := pl.Modify(3, core.POLLIN|core.POLLOUT); err != nil {
		t.Fatal(err)
	}
	if err := pl.Modify(99, core.POLLIN); err != core.ErrNotFound {
		t.Fatalf("Modify missing: %v", err)
	}
	if err := pl.Remove(4); err != nil {
		t.Fatal(err)
	}
	if err := pl.Remove(4); err != core.ErrNotFound {
		t.Fatalf("Remove missing: %v", err)
	}
	if got := pl.FDs(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("FDs = %v", got)
	}
	// Interest management for stock poll is a user-space affair: no CPU cost.
	if env.P.TotalCharged != 0 {
		t.Fatalf("interest updates should be free in the kernel, charged %v", env.P.TotalCharged)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Add(5, core.POLLIN); err != core.ErrClosed {
		t.Fatalf("Add after Close: %v", err)
	}
	if err := pl.Close(); err != core.ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
}

func TestWaitReturnsReadyDescriptors(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fdA, _ := env.NewFD(core.POLLIN)
	fdB, _ := env.NewFD(0)
	fdC, _ := env.NewFD(core.POLLIN | core.POLLOUT)
	must(t, pl.Add(fdA.Num, core.POLLIN))
	must(t, pl.Add(fdB.Num, core.POLLIN))
	must(t, pl.Add(fdC.Num, core.POLLIN))

	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	env.Run()

	if col.Calls != 1 {
		t.Fatalf("handler calls = %d", col.Calls)
	}
	sort.Slice(col.Events, func(i, j int) bool { return col.Events[i].FD < col.Events[j].FD })
	if got := col.FDNums(); len(got) != 2 || got[0] != fdA.Num || got[1] != fdC.Num {
		t.Fatalf("ready fds = %v", got)
	}
	// fdC's POLLOUT is filtered out because only POLLIN was requested.
	if col.Events[1].Ready != core.POLLIN {
		t.Fatalf("fdC revents = %v", col.Events[1].Ready)
	}
	st := pl.MechanismStats()
	if st.Waits != 1 || st.DriverPolls != 3 || st.CopiedIn != 3 || st.CopiedOut != 2 || st.EventsReturned != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWaitChargesPerInterestCosts(t *testing.T) {
	env := simtest.NewEnv()
	cost := env.K.Cost
	pl := New(env.K, env.P)
	// One ready descriptor plus many idle ones.
	fdReady, _ := env.NewFD(core.POLLIN)
	must(t, pl.Add(fdReady.Num, core.POLLIN))
	const idle = 100
	for i := 0; i < idle; i++ {
		fd, _ := env.NewFD(0)
		must(t, pl.Add(fd.Num, core.POLLIN))
	}
	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	env.Run()

	n := idle + 1
	want := cost.SyscallEntry +
		cost.PollCopyIn.Scale(float64(n)) +
		cost.DriverPoll.Scale(float64(n)) +
		cost.PollCopyOut +
		cost.PollReadyRescan.Scale(float64(n)) // one ready event, rescan charged against the whole set
	if env.P.TotalCharged != want {
		t.Fatalf("charged %v, want %v", env.P.TotalCharged, want)
	}
	if col.At != core.Time(want) {
		t.Fatalf("completion at %v, want %v", col.At, core.Time(want))
	}
}

func TestWaitBlocksUntilReadinessThenRescans(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, file := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLIN))

	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	// Data arrives 5 ms into the run.
	env.K.Sim.At(core.Time(5*core.Millisecond), func(now core.Time) {
		file.SetReady(now, core.POLLIN)
	})
	env.Run()

	if col.Calls != 1 || len(col.Events) != 1 || col.Events[0].FD != fd.Num {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(5*core.Millisecond) {
		t.Fatalf("woke too early: %v", col.At)
	}
	// While blocked the poller must have been registered on the wait queue and
	// removed afterwards.
	if fd.Watchers() != 0 {
		t.Fatalf("wait-queue entries leaked: %d", fd.Watchers())
	}
	st := pl.MechanismStats()
	if st.Waits != 2 {
		t.Fatalf("expected an initial scan plus a rescan, got %d", st.Waits)
	}
}

func TestWaitZeroTimeoutDoesNotBlock(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, _ := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLIN))
	var col simtest.Collector
	pl.Wait(0, 0, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("collector = %+v", col)
	}
	if fd.Watchers() != 0 {
		t.Fatal("non-blocking poll should not join wait queues")
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, _ := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLIN))
	var col simtest.Collector
	pl.Wait(0, 10*core.Millisecond, col.Handler())
	env.Run()
	if col.Calls != 1 || len(col.Events) != 0 {
		t.Fatalf("collector = %+v", col)
	}
	if col.At < core.Time(10*core.Millisecond) {
		t.Fatalf("timeout fired early: %v", col.At)
	}
	if fd.Watchers() != 0 {
		t.Fatal("wait-queue entries leaked after timeout")
	}
	// The poller is reusable afterwards.
	var col2 simtest.Collector
	pl.Wait(0, 0, col2.Handler())
	env.Run()
	if col2.Calls != 1 {
		t.Fatal("second Wait never completed")
	}
}

func TestWaitMaxCapsResults(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	for i := 0; i < 10; i++ {
		fd, _ := env.NewFD(core.POLLIN)
		must(t, pl.Add(fd.Num, core.POLLIN))
	}
	var col simtest.Collector
	pl.Wait(4, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(col.Events))
	}
}

func TestClosedDescriptorReportsPOLLNVAL(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, _ := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLIN))
	if err := env.P.CloseFD(0, fd.Num); err != nil {
		t.Fatal(err)
	}
	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || !col.Events[0].Ready.Has(core.POLLNVAL) {
		t.Fatalf("events = %+v", col.Events)
	}
}

func TestHUPReportedEvenIfNotRequested(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, file := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLOUT))
	file.ReadyMask = core.POLLHUP
	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	env.Run()
	if len(col.Events) != 1 || !col.Events[0].Ready.Has(core.POLLHUP) {
		t.Fatalf("events = %+v", col.Events)
	}
}

func TestReadinessDuringScanTriggersImmediateRescan(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	// Many descriptors so the first scan takes measurable CPU time.
	var files []*simtest.FakeFile
	for i := 0; i < 200; i++ {
		fd, f := env.NewFD(0)
		must(t, pl.Add(fd.Num, core.POLLIN))
		files = append(files, f)
	}
	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	// Readiness arrives while the first scan is still on the CPU (its cost is
	// well over 50 µs for 200 descriptors).
	env.K.Sim.At(core.Time(10*core.Microsecond), func(now core.Time) {
		files[7].SetReady(now, core.POLLIN)
	})
	env.Run()
	if col.Calls != 1 || len(col.Events) != 1 {
		t.Fatalf("collector = %+v", col)
	}
}

func TestWaitOnClosedPollerReturnsNothing(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	_ = pl.Close()
	var col simtest.Collector
	pl.Wait(0, core.Forever, col.Handler())
	if col.Calls != 1 || col.Events != nil {
		t.Fatalf("collector = %+v", col)
	}
}

func TestConcurrentWaitPanics(t *testing.T) {
	env := simtest.NewEnv()
	pl := New(env.K, env.P)
	fd, _ := env.NewFD(0)
	must(t, pl.Add(fd.Num, core.POLLIN))
	pl.Wait(0, core.Forever, func([]core.Event, core.Time) {})
	defer func() {
		if recover() == nil {
			t.Error("second Wait should panic while the first is in flight")
		}
	}()
	pl.Wait(0, core.Forever, func([]core.Event, core.Time) {})
}

// The cost of stock poll must grow linearly with the interest-set size even
// when only one descriptor is active — the central inefficiency the paper's
// /dev/poll work removes.
func TestCostGrowsWithIdleInterestSet(t *testing.T) {
	charge := func(idle int) core.Duration {
		env := simtest.NewEnv()
		pl := New(env.K, env.P)
		fd, _ := env.NewFD(core.POLLIN)
		must(t, pl.Add(fd.Num, core.POLLIN))
		for i := 0; i < idle; i++ {
			idleFD, _ := env.NewFD(0)
			must(t, pl.Add(idleFD.Num, core.POLLIN))
		}
		var col simtest.Collector
		pl.Wait(0, core.Forever, col.Handler())
		env.Run()
		return env.P.TotalCharged
	}
	small := charge(10)
	large := charge(510)
	if large <= small*10 {
		t.Fatalf("expected ~50x cost growth from 10 to 510 idle descriptors, got %v -> %v", small, large)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
