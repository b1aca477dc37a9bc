package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired Cycle
	e.Schedule(10, func() { fired = e.Now() })
	e.Run()
	if fired != 10 {
		t.Fatalf("event fired at %d, want 10", fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %d, want 10", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Cycle
	e.Schedule(5, func() {
		trace = append(trace, e.Now())
		e.Schedule(3, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Cycle{5, 5, 8}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestScheduleInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(3, func() {})
	})
	e.Run()
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	for _, d := range []Cycle{2, 4, 6, 8} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(5)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 2 and 4 only", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4", fired)
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func() {})
	e.Run()
	e.RunFor(10)
	if e.Now() != 13 {
		t.Fatalf("Now() = %d, want 13", e.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step() on empty engine returned true")
	}
	e.Schedule(1, func() {})
	if !e.Step() {
		t.Fatal("Step() with pending event returned false")
	}
	if e.Steps() != 1 {
		t.Fatalf("Steps() = %d, want 1", e.Steps())
	}
}

func TestInterruptUnwindsRun(t *testing.T) {
	e := NewEngine()
	var spawn func()
	executed := 0
	spawn = func() {
		executed++
		e.Schedule(1, spawn)
	}
	e.Schedule(1, spawn)

	polls := 0
	e.SetInterrupt(10, func() bool {
		polls++
		return polls >= 3
	})
	func() {
		defer func() {
			if _, ok := recover().(Interrupted); !ok {
				t.Fatal("Run did not panic with Interrupted")
			}
		}()
		e.Run()
		t.Fatal("self-rescheduling event chain terminated without interrupt")
	}()
	if executed < 20 || executed > 30 {
		t.Fatalf("executed %d events before the third poll, want ~30", executed)
	}

	// Removing the interrupt lets the engine run again (the pending
	// event chain is still there; poll it away after a bounded prefix).
	e.SetInterrupt(1, func() bool { return executed >= 40 })
	func() {
		defer func() { recover() }()
		e.Run()
	}()
	e.SetInterrupt(0, nil)
}

func TestProbeFiresEveryN(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 100; i++ {
		e.Schedule(Cycle(i), fn)
	}
	probes := 0
	var atSteps []uint64
	e.SetProbe(10, func() {
		probes++
		atSteps = append(atSteps, e.Steps())
	})
	e.Run()
	if probes != 10 {
		t.Fatalf("probe fired %d times over 100 events with period 10, want 10", probes)
	}
	// The probe fires at the top of every 10th Step call, before that
	// call's event executes, so the k-th firing sees 10k-1 steps.
	for i, s := range atSteps {
		if want := uint64(i*10 + 9); s != want {
			t.Fatalf("probe %d saw Steps()=%d, want %d", i, s, want)
		}
	}
}

// A probe never advances the clock or perturbs event order: a run with
// a probe installed produces the identical trace as one without.
func TestProbeIsTimingNeutral(t *testing.T) {
	run := func(withProbe bool) []Cycle {
		e := NewEngine()
		if withProbe {
			e.SetProbe(3, func() {})
		}
		var trace []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 4 {
				e.Schedule(Cycle(depth+1), func() { spawn(depth + 1) })
				e.Schedule(70, func() { spawn(depth + 1) })
			}
		}
		e.Schedule(0, func() { spawn(0) })
		e.Run()
		return trace
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("probe changed event count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe changed trace at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// A probe may panic to unwind a wedged run (the watchdog does this);
// the engine must stay fully usable afterwards: no event was half
// executed, the pending queue is intact, and the run can be resumed to
// completion.
func TestEngineReusableAfterProbePanic(t *testing.T) {
	e := NewEngine()
	executed := 0
	var spawn func()
	n := 0
	spawn = func() {
		executed++
		if n++; n < 50 {
			e.Schedule(1, spawn)
		}
	}
	e.Schedule(1, spawn)

	type wedged struct{}
	fired := false
	e.SetProbe(10, func() {
		if !fired && e.Steps() >= 20 {
			fired = true
			panic(wedged{})
		}
	})
	func() {
		defer func() {
			if _, ok := recover().(wedged); !ok {
				t.Fatal("Run did not panic with the probe's value")
			}
		}()
		e.Run()
	}()
	if e.Pending() == 0 {
		t.Fatal("probe panic drained the queue")
	}
	// Resume: the remaining chain plus a fresh event drain normally.
	done := false
	e.Schedule(100, func() { done = true })
	e.Run()
	if executed != 50 || !done || e.Pending() != 0 {
		t.Fatalf("after resume: executed=%d done=%v pending=%d, want 50/true/0", executed, done, e.Pending())
	}
	e.SetProbe(0, nil)
	e.Schedule(1, func() {})
	e.Run()
}

// Property: regardless of insertion order, events execute in
// non-decreasing timestamp order, and same-timestamp events execute in
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		type rec struct {
			at  Cycle
			seq int
		}
		var got []rec
		for i := 0; i < count; i++ {
			at := Cycle(rng.Intn(16))
			i := i
			e.Schedule(at, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != count {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: randomized At/Schedule calls with delays spanning the
// near-future bucket ring AND the far heap (including delays straddling
// the window boundary, and nested scheduling from running events) drain
// in strict (cycle, seq) order. This is the scheduler's core contract:
// an event bound for the far heap at push time must still interleave
// correctly with ring events that arrive at the same cycle later.
func TestScheduleDrainOrderAcrossStructures(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n)%96 + 8
		seq := 0
		type rec struct {
			at  Cycle
			seq int
		}
		var got []rec
		note := func(s int) { got = append(got, rec{e.Now(), s}) }
		var delays = []Cycle{0, 1, 2, 3, 62, 63, 64, 65, 100, 1000}
		for i := 0; i < count; i++ {
			d := delays[rng.Intn(len(delays))]
			s := seq
			seq++
			nest := rng.Intn(4) == 0
			e.Schedule(d, func() {
				note(s)
				if nest {
					d2 := delays[rng.Intn(len(delays))]
					s2 := seq
					seq++
					e.Schedule(d2, func() { note(s2) })
				}
			})
		}
		e.Run()
		if e.Pending() != 0 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
		}
		// Same-cycle events must run in schedule order. Events scheduled
		// from inside a callback at the current cycle have larger seq and
		// must run later within the cycle, which the seq check covers.
		for i := 1; i < len(got); i++ {
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPeekNext(t *testing.T) {
	e := NewEngine()
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext on empty engine reported an event")
	}
	e.Schedule(100, func() {}) // far heap
	if at, ok := e.PeekNext(); !ok || at != 100 {
		t.Fatalf("PeekNext = %d,%v; want 100,true", at, ok)
	}
	e.Schedule(5, func() {}) // ring
	if at, ok := e.PeekNext(); !ok || at != 5 {
		t.Fatalf("PeekNext = %d,%v; want 5,true", at, ok)
	}
	e.Run()
	if _, ok := e.PeekNext(); ok {
		t.Fatal("PeekNext after Run reported an event")
	}
}

// RunUntil on an empty engine must not inspect an empty queue: the old
// implementation peeked unconditionally and relied on the caller's
// length guard; PeekNext makes the empty case an engine invariant.
func TestRunUntilEmptyEngine(t *testing.T) {
	e := NewEngine()
	e.RunUntil(50)
	if e.Now() != 50 {
		t.Fatalf("Now() = %d, want 50", e.Now())
	}
	e.RunFor(25)
	if e.Now() != 75 {
		t.Fatalf("Now() = %d, want 75", e.Now())
	}
}

func TestRunUntilExactBoundaryAndFarEvents(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	for _, d := range []Cycle{10, 200, 300} { // ring, far, far
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(200) // inclusive boundary: the far event at 200 runs
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 200 {
		t.Fatalf("fired %v, want [10 200]", fired)
	}
	if e.Now() != 200 {
		t.Fatalf("Now() = %d, want 200", e.Now())
	}
	e.RunUntil(299) // stops short of the event at 300
	if len(fired) != 2 {
		t.Fatalf("fired %v, want no event before 300", fired)
	}
	if e.Now() != 299 {
		t.Fatalf("Now() = %d, want 299", e.Now())
	}
	// Events scheduled after a clock bump land relative to the new now.
	e.Schedule(2, func() { fired = append(fired, e.Now()) })
	e.Run()
	if len(fired) != 4 || fired[2] != 300 || fired[3] != 301 {
		t.Fatalf("fired %v, want [... 300 301]", fired)
	}
}

func TestRunUntilDoesNotMoveClockBackwards(t *testing.T) {
	e := NewEngine()
	e.Schedule(40, func() {})
	e.Run()
	e.RunUntil(10) // in the past: no-op
	if e.Now() != 40 {
		t.Fatalf("Now() = %d, want 40", e.Now())
	}
}

// Steady-state scheduling and dispatch must not allocate: once the ring
// buckets and far heap have grown their backing storage, a
// schedule/execute cycle reuses it. The closure passed to Schedule is
// hoisted out of the measured function so the test pins the engine's
// own cost, not the caller's closure.
func TestZeroAllocSteadyState(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm up every ring bucket and the far-heap capacity.
	for i := 0; i < 2000; i++ {
		e.Schedule(Cycle(i%(ringWindow+16)), fn)
	}
	e.Run()
	if avg := testing.AllocsPerRun(100, func() {
		for d := Cycle(0); d < ringWindow+16; d += 3 { // spans ring and far heap
			e.Schedule(d, fn)
		}
		e.Run()
	}); avg != 0 {
		t.Fatalf("steady-state schedule+dispatch allocates %v allocs/run, want 0", avg)
	}
}

// Property: the engine is deterministic — two identical runs produce an
// identical execution trace.
func TestDeterminismProperty(t *testing.T) {
	run := func(seed int64) []Cycle {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var trace []Cycle
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, e.Now())
			if depth < 3 {
				k := rng.Intn(3)
				for i := 0; i < k; i++ {
					e.Schedule(Cycle(rng.Intn(5)), func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 8; i++ {
			e.Schedule(Cycle(rng.Intn(10)), func() { spawn(0) })
		}
		e.Run()
		return trace
	}
	f := func(seed int64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Tail names the last pending event of a ring cycle: true while nothing
// later was scheduled for that cycle, false for far-heap, past and
// empty cycles.
func TestTail(t *testing.T) {
	fn := func() {}
	for _, tc := range []struct {
		name   string
		setup  func(e *Engine) (t Cycle, seq uint64)
		wantOK bool
		// wantSame: ok and the reported seq is the one setup returned.
		wantSame bool
	}{
		{"just scheduled", func(e *Engine) (Cycle, uint64) {
			e.Schedule(4, fn)
			seq, _ := e.Tail(4)
			return 4, seq
		}, true, true},
		{"other cycles scheduled later", func(e *Engine) (Cycle, uint64) {
			e.Schedule(4, fn)
			seq, _ := e.Tail(4)
			e.Schedule(3, fn)
			e.Schedule(5, fn)
			return 4, seq
		}, true, true},
		{"same cycle scheduled later", func(e *Engine) (Cycle, uint64) {
			e.Schedule(4, fn)
			seq, _ := e.Tail(4)
			e.Schedule(4, fn)
			return 4, seq
		}, true, false},
		{"current cycle mid-drain", func(e *Engine) (Cycle, uint64) {
			var seq uint64
			e.Schedule(2, func() { seq, _ = e.Tail(2) })
			e.Schedule(2, fn)
			e.Step()
			last, _ := e.Tail(2)
			if last != seq {
				panic("Tail moved without scheduling")
			}
			return 2, seq
		}, true, true},
		{"cycle drained", func(e *Engine) (Cycle, uint64) {
			e.Schedule(2, fn)
			seq, _ := e.Tail(2)
			e.Run()
			return 2, seq
		}, false, false},
		{"past cycle", func(e *Engine) (Cycle, uint64) {
			e.Schedule(1, fn)
			seq, _ := e.Tail(1)
			e.Schedule(10, fn)
			e.Run()
			return 1, seq
		}, false, false},
		{"far heap", func(e *Engine) (Cycle, uint64) {
			e.Schedule(ringWindow, fn)
			return ringWindow, 0
		}, false, false},
		{"empty cycle", func(e *Engine) (Cycle, uint64) {
			e.Schedule(4, fn)
			return 4 + ringWindow/2, 0
		}, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			at, want := tc.setup(e)
			seq, ok := e.Tail(at)
			if ok != tc.wantOK {
				t.Fatalf("Tail(%d) ok = %v, want %v", at, ok, tc.wantOK)
			}
			if same := ok && seq == want; same != tc.wantSame {
				t.Fatalf("Tail(%d) = %d, setup's event %d: same = %v, want %v", at, seq, want, same, tc.wantSame)
			}
		})
	}
}
