package desim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestRunsInTimeOrder(t *testing.T) {
	var e Engine
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		e.At(at, func(now Time) { got = append(got, now) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order %v not FIFO", order)
		}
	}
}

func TestAfterAdvancesFromNow(t *testing.T) {
	var e Engine
	var at2 Time
	e.At(10, func(now Time) {
		e.After(5, func(now Time) { at2 = now })
	})
	e.Run()
	if at2 != 15 {
		t.Errorf("nested After fired at %d, want 15", at2)
	}
	if e.Now() != 15 {
		t.Errorf("final Now = %d, want 15", e.Now())
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	h := e.At(10, func(Time) { fired = true })
	h.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	h.Cancel() // double cancel is a no-op
}

func TestCancelFromEarlierEvent(t *testing.T) {
	var e Engine
	fired := false
	h := e.At(20, func(Time) { fired = true })
	e.At(10, func(Time) { h.Cancel() })
	e.Run()
	if fired {
		t.Error("event cancelled at t=10 still fired at t=20")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var e Engine
	e.At(10, func(Time) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(5) after now=10 did not panic")
		}
	}()
	e.At(5, func(Time) {})
}

func TestNilEventPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("nil event did not panic")
		}
	}()
	e.At(1, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func(Time) {})
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.RunUntil(15)
	if len(fired) != 3 || fired[2] != 15 {
		t.Fatalf("RunUntil(15) fired %v, want [5 10 15]", fired)
	}
	if len(e.events) != 1 {
		t.Errorf("%d events queued, want 1", len(e.events))
	}
	e.Run()
	if len(fired) != 4 {
		t.Errorf("resumed Run fired %d total, want 4", len(fired))
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty engine returned true")
	}
}

func TestSelfReschedulingTicker(t *testing.T) {
	var e Engine
	count := 0
	var tick func(Time)
	tick = func(now Time) {
		count++
		if count < 5 {
			e.After(100, tick)
		}
	}
	e.After(100, tick)
	end := e.Run()
	if count != 5 {
		t.Errorf("ticker fired %d times, want 5", count)
	}
	if end != 500 {
		t.Errorf("final time %d, want 500", end)
	}
}

func TestEveryFiresOnInterval(t *testing.T) {
	var e Engine
	var fired []Time
	e.Every(100, func(now Time) bool {
		fired = append(fired, now)
		return len(fired) < 4
	})
	e.Run()
	want := []Time{100, 200, 300, 400}
	if len(fired) != len(want) {
		t.Fatalf("fired %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestEveryCancel(t *testing.T) {
	var e Engine
	count := 0
	h := e.Every(50, func(Time) bool {
		count++
		return true
	})
	e.At(125, func(Time) { h.Cancel() })
	e.RunUntil(1000)
	if count != 2 {
		t.Errorf("ticker fired %d times after cancel at t=125, want 2", count)
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	e.Every(0, func(Time) bool { return false })
}

// TestStaleHandleCannotCancelRecycledSlot pins down the free-list
// semantics: once an event fires, its item may be reused by a later
// schedule, and Cancel on the old handle must not touch the new event.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	var e Engine
	h1 := e.At(10, func(Time) {})
	e.Run() // fires and recycles the item
	fired := false
	e.At(20, func(Time) { fired = true }) // reuses the recycled item
	h1.Cancel()                           // stale: must be a no-op
	e.Run()
	if !fired {
		t.Error("stale Cancel killed a recycled event")
	}
}

// TestRollingTickDoesNotGrowFreeList verifies that a self-rearming tick
// cycles through a single pooled item.
func TestRollingTickDoesNotGrowFreeList(t *testing.T) {
	var e Engine
	count := 0
	var tick func(Time)
	tick = func(Time) {
		count++
		if count < 1000 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.Run()
	if count != 1000 {
		t.Fatalf("ticked %d times, want 1000", count)
	}
	if len(e.free) != 1 {
		t.Errorf("free list holds %d items, want 1 (single recycled slot)", len(e.free))
	}
}

// TestRandomizedOrdering stresses the heap with random schedules and
// verifies global time ordering.
func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var e Engine
	var times []Time
	var fired []Time
	for i := 0; i < 2000; i++ {
		at := Time(rng.Intn(10000))
		times = append(times, at)
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.Run()
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	if len(fired) != len(times) {
		t.Fatalf("fired %d, want %d", len(fired), len(times))
	}
	for i := range times {
		if fired[i] != times[i] {
			t.Fatalf("event %d fired at %d, want %d", i, fired[i], times[i])
		}
	}
}
