package host

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
)

var expiryT0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

// expiryHost is one unattached provider of "cook" on a simulated clock,
// with no advertiser and no execution plans, so every pending clock
// waiter is a host expiry timer. Envelopes are fed to process directly;
// replies go nowhere.
func expiryHost(t *testing.T) (*Host, *clock.Sim) {
	t.Helper()
	sim := clock.NewSim(expiryT0)
	h, err := New(Config{Addr: "p", Clock: sim, BidWindow: 200 * time.Millisecond, Services: []service.Registration{
		{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h, sim
}

// cookAt is a task meta for "cook" in the i-th hour-long window from t0.
func cookAt(i int) proto.TaskMeta {
	start := expiryT0.Add(time.Duration(i+1) * time.Hour)
	return proto.TaskMeta{Task: "cook", Mode: model.Conjunctive, Start: start, End: start.Add(30 * time.Minute)}
}

func bid(h *Host, wf string, m proto.TaskMeta) {
	h.process(proto.Envelope{Workflow: wf, Body: proto.CallForBidsBatch{Metas: []proto.TaskMeta{m}}})
}

// award bids for m and awards it, leaving a leased commitment.
func award(t *testing.T, h *Host, wf string, m proto.TaskMeta) {
	t.Helper()
	bid(h, wf, m)
	h.process(proto.Envelope{Workflow: wf, Body: proto.Award{Meta: m}})
	if _, ok := h.Schedule.Get(wf, "cook"); !ok {
		t.Fatalf("award for %s did not commit", wf)
	}
}

func assertPending(t *testing.T, sim *clock.Sim, want int) {
	t.Helper()
	if n := sim.PendingWaiters(); n != want {
		t.Fatalf("pending host timers = %d, want %d", n, want)
	}
}

// TestOneExpiryTimerPerHost: however many awards and bid batches a host
// takes, it keeps at most one pending expiry timer.
func TestOneExpiryTimerPerHost(t *testing.T) {
	h, sim := expiryHost(t)
	const n = 50
	for i := 0; i < n; i++ {
		award(t, h, fmt.Sprintf("won-%d", i), cookAt(2*i))
		bid(h, fmt.Sprintf("lost-%d", i), cookAt(2*i+1))
		sim.Advance(time.Millisecond)
		assertPending(t, sim, 1)
	}
	if got := h.Schedule.Holds(); got != n {
		t.Fatalf("holds = %d, want %d", got, n)
	}
	// The sweep releases every unawarded hold and re-arms once, for the
	// leases.
	sim.Advance(time.Second)
	if got := h.Schedule.Holds(); got != 0 {
		t.Fatalf("holds after the bid window = %d", got)
	}
	assertPending(t, sim, 1)
	sim.Advance(auction.DefaultCommitLease)
	if got := len(h.Schedule.Commitments()); got != 0 {
		t.Fatalf("commitments after the lease = %d", got)
	}
	assertPending(t, sim, 0)
}

// TestExpiryTimerConcurrentArms races awards and bid batches on several
// goroutines against timer sweeps driven by the clock (run with -race):
// the host still ends with one pending timer, and the calendar drains.
func TestExpiryTimerConcurrentArms(t *testing.T) {
	h, sim := expiryHost(t)
	const workers, perWorker = 4, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				slot := (w*perWorker + i) * 2
				wf := fmt.Sprintf("w%d-%d", w, i)
				bid(h, wf, cookAt(slot))
				h.process(proto.Envelope{Workflow: wf, Body: proto.Award{Meta: cookAt(slot)}})
				bid(h, wf+"-lost", cookAt(slot+1))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			sim.Advance(5 * time.Millisecond)
		}
	}
	if n := sim.PendingWaiters(); n > 1 {
		t.Fatalf("pending host timers = %d, want at most 1", n)
	}
	// A bid deadline the clock had already passed when the host armed
	// for it fires at once on its own goroutine (AfterFunc with d ≤ 0),
	// so keep advancing until that sweep has run as well.
	deadline := time.Now().Add(10 * time.Second)
	for h.Schedule.Holds() != 0 || len(h.Schedule.Commitments()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("calendar did not drain: holds=%d commitments=%d pending timers=%d",
				h.Schedule.Holds(), len(h.Schedule.Commitments()), sim.PendingWaiters())
		}
		sim.Advance(auction.DefaultCommitLease + time.Second)
		time.Sleep(time.Millisecond)
	}
	assertPending(t, sim, 0)
}

// TestHoldExpiresOnTimeUnderPendingLease: a firm bid taken while a later
// lease timer is pending re-arms the timer, and its hold is released at
// exactly the bid deadline + expirySlack.
func TestHoldExpiresOnTimeUnderPendingLease(t *testing.T) {
	h, sim := expiryHost(t)
	award(t, h, "won", cookAt(0))
	sim.Advance(time.Second) // the award's own hold sweep passes
	assertPending(t, sim, 1)

	bid(h, "late", cookAt(1))
	deadline := sim.Now().Add(h.Participant.BidWindow())
	assertPending(t, sim, 1)
	sim.AdvanceTo(deadline.Add(expirySlack - time.Nanosecond))
	if got := h.Schedule.Holds(); got != 1 {
		t.Fatalf("hold released early: holds = %d", got)
	}
	sim.AdvanceTo(deadline.Add(expirySlack))
	if got := h.Schedule.Holds(); got != 0 {
		t.Fatalf("hold not released at deadline + slack: holds = %d", got)
	}
	if _, ok := h.Schedule.Get("won", "cook"); !ok {
		t.Fatal("hold sweep dropped a live commitment")
	}
	assertPending(t, sim, 1)
}

// TestLeaseSweepFollowsRefreshAndRemoval: when the earliest commitment
// is refreshed and the next one removed, the pending timer fires at the
// refreshed commitment's old lease, drops nothing, and re-arms at the
// earliest remaining lease, which is swept at exactly lease +
// expirySlack.
func TestLeaseSweepFollowsRefreshAndRemoval(t *testing.T) {
	h, sim := expiryHost(t)
	lease := h.Participant.CommitLease()

	award(t, h, "a", cookAt(0))
	oldLeaseA := sim.Now().Add(lease)
	sim.Advance(time.Minute)
	award(t, h, "b", cookAt(1))
	sim.Advance(time.Minute)
	award(t, h, "c", cookAt(2))
	leaseC := sim.Now().Add(lease)
	sim.Advance(time.Minute)

	// Refresh a past b's lease, and remove b: c now expires first.
	h.process(proto.Envelope{Workflow: "a", Body: proto.LeaseRefresh{Tasks: []model.TaskID{"cook"}}})
	leaseA := sim.Now().Add(lease)
	h.process(proto.Envelope{Workflow: "b", Body: proto.Cancel{Task: "cook"}})
	assertPending(t, sim, 1)

	sim.AdvanceTo(oldLeaseA.Add(expirySlack))
	for _, wf := range []string{"a", "c"} {
		if _, ok := h.Schedule.Get(wf, "cook"); !ok {
			t.Fatalf("commitment %s swept before its lease", wf)
		}
	}
	assertPending(t, sim, 1)
	sim.AdvanceTo(leaseC.Add(expirySlack - time.Nanosecond))
	if _, ok := h.Schedule.Get("c", "cook"); !ok {
		t.Fatal("c swept before lease + slack")
	}
	sim.AdvanceTo(leaseC.Add(expirySlack))
	if _, ok := h.Schedule.Get("c", "cook"); ok {
		t.Fatal("c not swept at lease + slack")
	}
	sim.AdvanceTo(leaseA.Add(expirySlack - time.Nanosecond))
	if _, ok := h.Schedule.Get("a", "cook"); !ok {
		t.Fatal("refreshed a swept before its new lease + slack")
	}
	sim.AdvanceTo(leaseA.Add(expirySlack))
	if _, ok := h.Schedule.Get("a", "cook"); ok {
		t.Fatal("a not swept at its new lease + slack")
	}
	assertPending(t, sim, 0)
}

// TestCloseStopsExpiryTimer: a closed host leaves no pending timer to
// keep it reachable until its leases would have lapsed.
func TestCloseStopsExpiryTimer(t *testing.T) {
	h, sim := expiryHost(t)
	award(t, h, "won", cookAt(0))
	bid(h, "open", cookAt(1))
	assertPending(t, sim, 1)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	assertPending(t, sim, 0)
}
