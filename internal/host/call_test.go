package host

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/proto"
	"openwf/internal/testutil"
	"openwf/internal/transport/inmem"
)

var callT0 = time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC)

// simPair starts hosts "a" and "b" on one simulated clock over an
// instant in-memory network. Neither runs an advertiser or holds a
// calendar entry, so every pending clock waiter is a call-timeout timer.
func simPair(t *testing.T) (a, b *Host, sim *clock.Sim) {
	t.Helper()
	sim = clock.NewSim(callT0)
	net := inmem.NewNetwork(inmem.WithClock(sim))
	t.Cleanup(func() { _ = net.Close() })
	hosts := make([]*Host, 2)
	for i, addr := range []proto.Addr{"a", "b"} {
		h, err := New(Config{Addr: addr, Clock: sim})
		if err != nil {
			t.Fatal(err)
		}
		ep, err := net.Endpoint(addr, h.Handle)
		if err != nil {
			t.Fatal(err)
		}
		h.Attach(ep)
		t.Cleanup(func() { _ = h.Close() })
		hosts[i] = h
	}
	return hosts[0], hosts[1], sim
}

// callResult is what one Call returned.
type callResult struct {
	body proto.Body
	err  error
}

// goCall starts a Call on its own goroutine and waits until it is
// registered as pending, so the caller can race its completion.
func goCall(ctx context.Context, t *testing.T, h *Host, to proto.Addr, timeout time.Duration) (<-chan callResult, uint64) {
	t.Helper()
	h.mu.Lock()
	id := h.nextReq + 1
	h.mu.Unlock()
	out := make(chan callResult, 1)
	go func() {
		body, err := h.Call(ctx, to, "wf", proto.FragmentQuery{}, timeout)
		out <- callResult{body, err}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		_, ok := h.pending[id]
		h.mu.Unlock()
		if ok {
			return out, id
		}
		if time.Now().After(deadline) {
			t.Fatalf("call %d never registered", id)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func pendingCalls(h *Host) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pending)
}

// tryResult reports whether a call's result is ready, without waiting.
func tryResult(out <-chan callResult) (callResult, bool) {
	select {
	case r := <-out:
		return r, true
	default:
		return callResult{}, false
	}
}

// TestOneCallTimerPerHost: completed calls leave no clock waiters behind.
// With a clock timer per call, each of the 1,000 timers would stay queued
// until the clock passed its deadline.
func TestOneCallTimerPerHost(t *testing.T) {
	a, b, sim := simPair(t)
	for i := 0; i < 1000; i++ {
		if _, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{}, 10*time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		sim.Advance(time.Millisecond)
	}
	if n := sim.PendingWaiters(); n > 1 {
		t.Fatalf("pending clock waiters after 1000 calls = %d, want at most 1", n)
	}
	if n, m := pendingCalls(a), pendingCalls(b); n+m != 0 {
		t.Fatalf("pending calls = %d, %d", n, m)
	}
	// The one timer fires, finds nothing overdue, and does not re-arm.
	sim.Advance(10 * time.Second)
	if n := sim.PendingWaiters(); n != 0 {
		t.Fatalf("pending clock waiters after the deadline = %d", n)
	}
}

// TestCallTimesOutAtDeadline: a call to a silent peer fails exactly when
// the clock passes its deadline, with the timeout message unchanged.
func TestCallTimesOutAtDeadline(t *testing.T) {
	a, _, sim := simPair(t)
	out, _ := goCall(context.Background(), t, a, "ghost", 10*time.Second)
	sim.Advance(10*time.Second - time.Nanosecond)
	time.Sleep(time.Millisecond)
	if r, ok := tryResult(out); ok {
		t.Fatalf("call returned before its deadline: %v, %v", r.body, r.err)
	}
	sim.Advance(time.Nanosecond)
	r := <-out
	const want = `call to "ghost" (fragment-query) timed out after 10s`
	if r.err == nil || r.err.Error() != want {
		t.Fatalf("err = %v, want %q", r.err, want)
	}
	if n := sim.PendingWaiters(); n != 0 {
		t.Fatalf("pending clock waiters = %d after the only call timed out", n)
	}
}

// TestShorterCallRearmsTimer: a short call made after a long one pulls
// the host's timer forward, and the sweep re-arms for the long one.
func TestShorterCallRearmsTimer(t *testing.T) {
	a, _, sim := simPair(t)
	long, _ := goCall(context.Background(), t, a, "ghost", time.Minute)
	short, _ := goCall(context.Background(), t, a, "ghost", time.Second)
	if n := sim.PendingWaiters(); n != 1 {
		t.Fatalf("pending clock waiters = %d, want 1", n)
	}
	sim.Advance(time.Second)
	if r := <-short; r.err == nil {
		t.Fatal("short call did not time out at its deadline")
	}
	time.Sleep(time.Millisecond)
	if _, ok := tryResult(long); ok {
		t.Fatal("long call ended with the short one")
	}
	if n := sim.PendingWaiters(); n != 1 {
		t.Fatalf("pending clock waiters after the sweep = %d, want 1 (re-armed)", n)
	}
	sim.Advance(time.Minute - time.Second)
	if r := <-long; r.err == nil {
		t.Fatal("long call did not time out at its deadline")
	}
	if n := sim.PendingWaiters(); n != 0 {
		t.Fatalf("pending clock waiters = %d at the end", n)
	}
}

// TestCallCompletesOnce races a reply against each other way a call can
// end (run with -race). Each call gets exactly one outcome, and no call
// stays pending: a second completion would close done twice and panic.
func TestCallCompletesOnce(t *testing.T) {
	const timeout = time.Second
	reply := proto.FragmentReply{}
	races := []struct {
		name    string
		wantErr string // the outcome the competitor produces
		compete func(h *Host, sim *clock.Sim, cancel context.CancelFunc)
	}{
		{"timeout", "timed out", func(h *Host, sim *clock.Sim, _ context.CancelFunc) { sim.Advance(timeout) }},
		{"cancel", context.Canceled.Error(), func(_ *Host, _ *clock.Sim, cancel context.CancelFunc) { cancel() }},
		{"close", "closed while calling", func(h *Host, _ *clock.Sim, _ context.CancelFunc) { _ = h.Close() }},
	}
	for _, race := range races {
		t.Run(race.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				a, _, sim := simPair(t)
				ctx, cancel := context.WithCancel(context.Background())
				out, id := goCall(ctx, t, a, "ghost", timeout)
				var wg sync.WaitGroup
				wg.Add(2)
				go func() {
					defer wg.Done()
					a.Handle(proto.Envelope{ReqID: id, From: "ghost", Workflow: "wf", Body: reply})
				}()
				go func() {
					defer wg.Done()
					race.compete(a, sim, cancel)
				}()
				wg.Wait()
				r := <-out
				cancel()
				switch {
				case r.err == nil:
					if _, ok := r.body.(proto.FragmentReply); !ok {
						t.Fatalf("round %d: reply body %T", i, r.body)
					}
				case !strings.Contains(r.err.Error(), race.wantErr):
					t.Fatalf("round %d: err = %v, want a reply or %q", i, r.err, race.wantErr)
				}
				if _, ok := tryResult(out); ok {
					t.Fatalf("round %d: call returned twice", i)
				}
				if n := pendingCalls(a); n != 0 {
					t.Fatalf("round %d: %d calls still pending", i, n)
				}
				_ = a.Close()
			}
		})
	}
}

// TestCloseFailsCallsAndStopsTimer: Close fails every pending call with
// the closed message and leaves no clock waiter behind.
func TestCloseFailsCallsAndStopsTimer(t *testing.T) {
	a, _, sim := simPair(t)
	var outs []<-chan callResult
	for i := 0; i < 3; i++ {
		out, _ := goCall(context.Background(), t, a, "ghost", time.Duration(i+1)*time.Minute)
		outs = append(outs, out)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `host "a": closed while calling "ghost"`
	for i, out := range outs {
		if r := <-out; r.err == nil || r.err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, r.err, want)
		}
	}
	if n := sim.PendingWaiters(); n != 0 {
		t.Fatalf("pending clock waiters after Close = %d", n)
	}
}

// callRoundTrip returns one Call step between two hosts over the
// in-memory network with wire marshalling on (the default): a
// feasibility query and its reply, on the wall clock.
func callRoundTrip(tb testing.TB) func() {
	net := inmem.NewNetwork()
	tb.Cleanup(func() { _ = net.Close() })
	var hosts []*Host
	for _, addr := range []proto.Addr{"a", "b"} {
		h, err := New(Config{Addr: addr})
		if err != nil {
			tb.Fatal(err)
		}
		ep, err := net.Endpoint(addr, h.Handle)
		if err != nil {
			tb.Fatal(err)
		}
		h.Attach(ep)
		tb.Cleanup(func() { _ = h.Close() })
		hosts = append(hosts, h)
	}
	a := hosts[0]
	ctx := context.Background()
	query := proto.FeasibilityQuery{}
	return func() {
		if _, err := a.Call(ctx, "b", "wf", query, 10*time.Second); err != nil {
			tb.Fatalf("call: %v", err)
		}
	}
}

// BenchmarkCallRoundTrip is the request/response layer row: one Host.Call
// between two hosts over inmem with marshalling on, per op.
func BenchmarkCallRoundTrip(b *testing.B) {
	step := callRoundTrip(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestCallRoundTripAllocBound pins the steady-state allocations of one
// round trip at six: the pending-call record and its done channel, and
// for each of the two messages its wire payload and decoded string. No
// timer and no reply channel is made per call.
func TestCallRoundTripAllocBound(t *testing.T) {
	testutil.AllocBound(t, 6, callRoundTrip(t))
}
