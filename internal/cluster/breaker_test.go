package cluster

import (
	"testing"
	"time"
)

func newTestBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock, *[]string) {
	clk := newFakeClock()
	var transitions []string
	b := newBreaker(threshold, cooldown, clk, func(from, to breakerState) {
		transitions = append(transitions, from.String()+">"+to.String())
	})
	return b, clk, &transitions
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _, trans := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.failure()
	}
	if b.snapshot() != breakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.allow()
	b.failure() // third consecutive failure
	if b.snapshot() != breakerOpen {
		t.Fatal("breaker not open after threshold failures")
	}
	if b.allow() {
		t.Error("open breaker admitted a call before cooldown")
	}
	if len(*trans) != 1 || (*trans)[0] != "closed>open" {
		t.Errorf("transitions = %v", *trans)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _, _ := newTestBreaker(3, time.Second)
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.snapshot() != breakerClosed {
		t.Error("success did not reset the consecutive-failure count")
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk, _ := newTestBreaker(1, time.Second)
	b.failure()
	if b.snapshot() != breakerOpen {
		t.Fatal("threshold-1 breaker not open after one failure")
	}
	clk.advance(1100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatal("breaker not half-open during probe")
	}
	if b.allow() {
		t.Error("second concurrent probe admitted in half-open")
	}
	b.success()
	if b.snapshot() != breakerClosed {
		t.Error("probe success did not close the breaker")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk, trans := newTestBreaker(1, time.Second)
	b.failure()
	clk.advance(2 * time.Second)
	b.allow()
	b.failure() // probe fails
	if b.snapshot() != breakerOpen {
		t.Fatal("failed probe did not reopen the breaker")
	}
	if b.allow() {
		t.Error("reopened breaker admitted a call before a fresh cooldown")
	}
	clk.advance(1100 * time.Millisecond)
	if !b.allow() {
		t.Error("fresh cooldown elapsed but probe refused")
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open"}
	if len(*trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", *trans, want)
	}
	for i := range want {
		if (*trans)[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", *trans, want)
		}
	}
}

func TestBreakerTripOpensImmediately(t *testing.T) {
	b, _, _ := newTestBreaker(5, time.Second)
	if !b.allow() {
		t.Fatal("fresh breaker refused")
	}
	b.trip() // node announced it is draining
	if b.snapshot() != breakerOpen {
		t.Error("trip did not open the breaker")
	}
	if b.allow() {
		t.Error("tripped breaker admitted a call")
	}
}
