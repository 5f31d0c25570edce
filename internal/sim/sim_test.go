package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{999, "999ns"},
		{1500, "1.50us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.0000s"},
		{-1500, "-1.50us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Errorf("Micros = %v, want 2.5", got)
	}
	if got := (1500 * Microsecond).Millis(); got != 1.5 {
		t.Errorf("Millis = %v, want 1.5", got)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds = %v, want 0.25", got)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		k.At(d, func() { got = append(got, k.Now()) })
	}
	end := k.Run()
	if end != 50 {
		t.Fatalf("Run returned %v, want 50", end)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestEventTiesFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(100, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: got %v", i, got)
		}
	}
}

func TestProcSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var wake Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	k.Run()
	if wake != 42*Microsecond {
		t.Fatalf("woke at %v, want 42us", wake)
	}
}

func TestInterleavedProcsDeterministic(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var log []string
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(10 * (i + 1)))
					log = append(log, fmt.Sprintf("p%d@%v", i, p.Now()))
				}
			})
		}
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 12 {
		t.Fatalf("log length %d, want 12", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestCondWaitSignal(t *testing.T) {
	k := NewKernel()
	var cond Cond
	ready := false
	var consumedAt Time
	k.Spawn("consumer", func(p *Proc) {
		for !ready {
			cond.Wait(p)
		}
		consumedAt = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(100)
		ready = true
		cond.Broadcast()
	})
	k.Run()
	if len(k.Deadlocked) != 0 {
		t.Fatalf("deadlocked procs: %d", len(k.Deadlocked))
	}
	if consumedAt != 100 {
		t.Fatalf("consumed at %v, want 100", consumedAt)
	}
}

func TestCondSignalWakesOne(t *testing.T) {
	k := NewKernel()
	var cond Cond
	turn := 0
	woken := 0
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for turn <= i {
				cond.Wait(p)
			}
			woken++
		})
	}
	k.Spawn("driver", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			turn = i
			cond.Broadcast()
		}
	})
	k.Run()
	if woken != 3 {
		t.Fatalf("woken = %d, want 3", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	var cond Cond
	k.Spawn("stuck", func(p *Proc) {
		for {
			cond.Wait(p)
		}
	})
	k.Run()
	if len(k.Deadlocked) != 1 || k.Deadlocked[0].Name() != "stuck" {
		t.Fatalf("Deadlocked = %v, want [stuck]", k.Deadlocked)
	}
}

// AdvanceBusy accounts modelled CPU work on the virtual clock, as Sleep does.
func TestAdvanceBusyAccounting(t *testing.T) {
	k := NewKernel()
	var done Time
	k.Spawn("worker", func(p *Proc) {
		p.AdvanceBusy(100)
		p.Sleep(50)
		p.AdvanceBusy(25)
		done = p.Now()
	})
	k.Run()
	if done != 175 {
		t.Fatalf("worker finished at %v, want 175", done)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	for _, d := range []Time{10, 20, 30, 40} {
		k.At(d, func() { fired++ })
	}
	n := k.RunUntil(25)
	if n != 2 || fired != 2 {
		t.Fatalf("RunUntil fired %d/%d, want 2", n, fired)
	}
	if k.Now() != 25 {
		t.Fatalf("clock at %v, want 25", k.Now())
	}
	k.Run()
	if fired != 4 {
		t.Fatalf("after Run fired = %d, want 4", fired)
	}
}

// An event behind the clock is refused where it is scheduled, after a
// RunUntil as after a Run, and the queue is left as it was: filed against
// the queue's last refill, it would fire after later events.
func TestRunUntilPanicsOnPastEvent(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {})
	k.At(150, func() {})
	k.RunUntil(120)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("schedule accepted an event in the past")
			}
		}()
		k.schedule(110, func() {}) // corrupt: behind the clock
	}()
	if k.Pending() != 1 {
		t.Fatalf("%d events pending after the refused one, want 1", k.Pending())
	}
	if n := k.RunUntil(200); n != 1 || k.Now() != 200 {
		t.Fatalf("RunUntil(200) fired %d events, clock %v; want 1 at 200", n, k.Now())
	}
}

// Regression: RunUntil never populated Deadlocked; when it drains the whole
// queue with blocked non-daemon processes left, it must report them like Run.
func TestRunUntilReportsDeadlock(t *testing.T) {
	k := NewKernel()
	var c Cond
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	if n := k.RunUntil(1000); n == 0 {
		t.Fatal("spawn event did not fire")
	}
	if len(k.Deadlocked) != 1 || k.Deadlocked[0].Name() != "stuck" {
		t.Fatalf("Deadlocked = %v, want the stuck process", k.Deadlocked)
	}
	// A deadline that leaves events queued must NOT report a deadlock: the
	// queued event may yet wake the process.
	k2 := NewKernel()
	var c2 Cond
	k2.Spawn("waiter", func(p *Proc) { c2.Wait(p) })
	k2.At(500, func() { c2.Broadcast() })
	k2.RunUntil(100)
	if len(k2.Deadlocked) != 0 {
		t.Fatalf("Deadlocked = %v before the wakeup event ran", k2.Deadlocked)
	}
	k2.Run()
	if len(k2.Deadlocked) != 0 {
		t.Fatalf("Deadlocked = %v after wakeup", k2.Deadlocked)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		k.At(-50, func() {
			if k.Now() != 100 {
				t.Errorf("negative-delay event at %v, want 100", k.Now())
			}
		})
	})
	k.Run()
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childAt = c.Now()
		})
		p.Sleep(100)
	})
	k.Run()
	if childAt != 15 {
		t.Fatalf("child finished at %v, want 15", childAt)
	}
}

// Property: for any set of event delays, events fire in nondecreasing time
// order and the final clock equals the maximum delay.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.At(Time(d), func() { fired = append(fired, k.Now()) })
		}
		end := k.Run()
		if len(fired) != len(delays) {
			return false
		}
		var max Time
		for _, d := range delays {
			if Time(d) > max {
				max = Time(d)
			}
		}
		if len(delays) > 0 && end != max {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: N procs each sleeping a random series of durations finish at the
// sum of their own durations, regardless of interleaving — and so does a
// child a proc spawns part-way through, counted from its spawn time.
func TestPropertyProcIsolation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		randDurs := func() (durs []Time, sum Time) {
			durs = make([]Time, 1+rng.Intn(8))
			for j := range durs {
				durs[j] = Time(rng.Intn(1000))
				sum += durs[j]
			}
			return durs, sum
		}
		n := 2 + rng.Intn(6)
		want := make([]Time, 2*n) // parents, then their children
		got := make([]Time, 2*n)
		for i := 0; i < n; i++ {
			i := i
			durs, sum := randDurs()
			want[i] = sum
			spawnAt := rng.Intn(len(durs) + 1) // n means: after the last sleep
			childDurs, childSum := randDurs()
			for _, d := range durs[:spawnAt] {
				want[n+i] += d
			}
			want[n+i] += childSum
			spawnChild := func() {
				k.Spawn(fmt.Sprintf("p%d.child", i), func(c *Proc) {
					for _, d := range childDurs {
						c.Sleep(d)
					}
					got[n+i] = c.Now()
				})
			}
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j, d := range durs {
					if j == spawnAt {
						spawnChild()
					}
					p.Sleep(d)
				}
				if spawnAt == len(durs) {
					spawnChild()
				}
				got[i] = p.Now()
			})
		}
		k.Run()
		if k.Live() != 0 || len(k.Deadlocked) != 0 {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonExcludedFromDeadlock(t *testing.T) {
	k := NewKernel()
	var cond Cond
	k.Spawn("daemon", func(p *Proc) {
		p.SetDaemon(true)
		for {
			cond.Wait(p)
		}
	})
	k.Spawn("worker", func(p *Proc) { p.Sleep(100) })
	k.Run()
	if len(k.Deadlocked) != 0 {
		t.Fatalf("daemon reported as deadlocked: %v", k.Deadlocked)
	}
	if k.Live() != 1 {
		t.Fatalf("Live = %d, want 1 (the daemon)", k.Live())
	}
}

func TestDaemonFlagReadable(t *testing.T) {
	k := NewKernel()
	k.Spawn("d", func(p *Proc) {
		if p.daemon {
			t.Error("daemon flag set before SetDaemon")
		}
		p.SetDaemon(true)
		if !p.daemon {
			t.Error("daemon flag not set")
		}
	})
	k.Run()
}

func TestPendingAndProcs(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {})
	k.At(20, func() {})
	if k.Pending() != 2 {
		t.Fatalf("Pending = %d", k.Pending())
	}
	k.Spawn("p", func(p *Proc) {})
	if len(k.procs) != 1 {
		t.Fatalf("Procs = %d", len(k.procs))
	}
	k.Run()
	if k.Pending() != 0 {
		t.Fatal("events left after Run")
	}
}

func TestCondNWaiters(t *testing.T) {
	k := NewKernel()
	var cond Cond
	release := false
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			for !release {
				cond.Wait(p)
			}
		})
	}
	k.Spawn("check", func(p *Proc) {
		p.Sleep(10)
		if len(cond.waiters) != 3 {
			t.Errorf("NWaiters = %d, want 3", len(cond.waiters))
		}
		release = true
		cond.Broadcast()
	})
	k.Run()
	if len(k.Deadlocked) != 0 {
		t.Fatal("deadlock")
	}
}
