package host

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/testutil"
	"openwf/internal/transport/inmem"
)

func lbl(ls ...string) []model.LabelID {
	out := make([]model.LabelID, len(ls))
	for i, l := range ls {
		out[i] = model.LabelID(l)
	}
	return out
}

func mkFrag(t *testing.T, name, in, out string) *model.Fragment {
	t.Helper()
	f, err := model.NewFragment(name, model.Task{
		ID: model.TaskID("task-" + name), Mode: model.Conjunctive,
		Inputs: lbl(in), Outputs: lbl(out),
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// pair starts two attached hosts on a fresh in-memory network.
func pair(t *testing.T, cfgA, cfgB Config) (*Host, *Host) {
	t.Helper()
	net := inmem.NewNetwork()
	t.Cleanup(func() { _ = net.Close() })
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	epA, err := net.Endpoint(cfgA.Addr, a.Handle)
	if err != nil {
		t.Fatal(err)
	}
	epB, err := net.Endpoint(cfgB.Addr, b.Handle)
	if err != nil {
		t.Fatal(err)
	}
	a.Attach(epA)
	b.Attach(epB)
	members := []proto.Addr{cfgA.Addr, cfgB.Addr}
	a.SetMembers(members)
	b.SetMembers(members)
	t.Cleanup(func() { _ = a.Close(); _ = b.Close() })
	return a, b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty address accepted")
	}
	if _, err := New(Config{Addr: "h", Fragments: []*model.Fragment{{Name: "bad"}}}); err == nil {
		t.Error("invalid fragment accepted")
	}
	if _, err := New(Config{Addr: "h", Services: []service.Registration{{}}}); err == nil {
		t.Error("invalid service accepted")
	}
}

func TestCallFragmentQuery(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Fragments: []*model.Fragment{mkFrag(t, "f", "x", "y")}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: lbl("x")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fr, ok := reply.(proto.FragmentReply)
	if !ok || len(fr.Fragments) != 1 || fr.Fragments[0].Name != "f" {
		t.Fatalf("reply = %#v", reply)
	}
	// Non-matching query returns empty.
	reply, err = a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: lbl("zzz")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 0 {
		t.Fatalf("reply = %#v", fr)
	}
}

func TestCallFragmentQueryNilMeansAll(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Fragments: []*model.Fragment{
			mkFrag(t, "f1", "x", "y"), mkFrag(t, "f2", "p", "q"),
		}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{Labels: nil}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 2 {
		t.Fatalf("full-collection reply = %d fragments", len(fr.Fragments))
	}
}

func TestCallFeasibilityQuery(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	reply, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{Tasks: []model.TaskID{"cook", "fly"}}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	fr := reply.(proto.FeasibilityReply)
	if len(fr.Capable) != 1 || fr.Capable[0] != "cook" {
		t.Fatalf("Capable = %v", fr.Capable)
	}
}

func TestCallForBidsAndAward(t *testing.T) {
	a, b := pair(t,
		Config{Addr: "a"},
		Config{Addr: "b", Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: time.Now().Add(time.Hour), End: time.Now().Add(2 * time.Hour),
	}
	reply, err := a.Call(context.Background(), "b", "wf", proto.CallForBids{Meta: meta}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bid, ok := reply.(proto.Bid)
	if !ok {
		t.Fatalf("reply = %#v, want Bid", reply)
	}
	if bid.ServicesOffered != 1 {
		t.Errorf("ServicesOffered = %d", bid.ServicesOffered)
	}
	reply, err = a.Call(context.Background(), "b", "wf", proto.Award{Meta: meta}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack := reply.(proto.AwardAck)
	if !ack.OK {
		t.Fatalf("award refused: %s", ack.Reason)
	}
	if _, ok := b.Schedule.Get("wf", "cook"); !ok {
		t.Error("award did not create a commitment")
	}
	if b.Exec.Pending() != 1 {
		t.Errorf("Exec.Pending = %d", b.Exec.Pending())
	}
	// Cancel is one-way.
	if err := a.Send(context.Background(), "b", "wf", proto.Cancel{Task: "cook"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := b.Schedule.Get("wf", "cook"); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancel never processed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallForBidsDecline(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: time.Now().Add(time.Hour), End: time.Now().Add(2 * time.Hour),
	}
	reply, err := a.Call(context.Background(), "b", "wf", proto.CallForBids{Meta: meta}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reply.(proto.Decline); !ok {
		t.Fatalf("reply = %#v, want Decline", reply)
	}
}

func TestHoldExpiryTimerReleasesSlot(t *testing.T) {
	a, b := pair(t,
		Config{Addr: "a", BidWindow: 20 * time.Millisecond},
		Config{Addr: "b", BidWindow: 20 * time.Millisecond, Services: []service.Registration{
			{Descriptor: service.Descriptor{Task: "cook", Specialization: 0.5}},
		}},
	)
	meta := proto.TaskMeta{
		Task: "cook", Mode: model.Conjunctive,
		Inputs: lbl("in"), Outputs: lbl("out"),
		Start: time.Now().Add(time.Hour), End: time.Now().Add(2 * time.Hour),
	}
	if _, err := a.Call(context.Background(), "b", "wf", proto.CallForBids{Meta: meta}, time.Second); err != nil {
		t.Fatal(err)
	}
	if b.Schedule.Holds() != 1 {
		t.Fatalf("Holds = %d after bid", b.Schedule.Holds())
	}
	deadline := time.Now().Add(time.Second)
	for b.Schedule.Holds() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("hold never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCallTimeout(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	_, err := a.Call(context.Background(), "ghost", "wf", proto.FragmentQuery{Labels: lbl("x")}, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestCallSelf(t *testing.T) {
	a, _ := pair(t,
		Config{Addr: "a", Fragments: []*model.Fragment{mkFrag(t, "own", "x", "y")}},
		Config{Addr: "b"},
	)
	reply, err := a.Call(context.Background(), "a", "wf", proto.FragmentQuery{Labels: lbl("x")}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fr := reply.(proto.FragmentReply); len(fr.Fragments) != 1 {
		t.Fatalf("self-call reply = %#v", fr)
	}
}

func TestCloseFailsPendingCalls(t *testing.T) {
	a, _ := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(context.Background(), "ghost", "wf", proto.FragmentQuery{}, time.Minute)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("pending call succeeded after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("pending call never failed")
	}
	// Calls and sends after close error out.
	if _, err := a.Call(context.Background(), "b", "wf", proto.FragmentQuery{}, time.Second); err == nil {
		t.Error("Call after Close succeeded")
	}
	if err := a.Send(context.Background(), "b", "wf", proto.Decline{}); err == nil {
		t.Error("Send after Close succeeded")
	}
	// Double close is fine.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestMembersDefaultsToSelf(t *testing.T) {
	h, err := New(Config{Addr: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	ms := h.Members()
	if len(ms) != 1 || ms[0] != "solo" {
		t.Errorf("Members = %v", ms)
	}
	if h.Self() != "solo" {
		t.Errorf("Self = %v", h.Self())
	}
	if h.Clock() == nil {
		t.Error("Clock is nil")
	}
}

func TestUnattachedHostErrors(t *testing.T) {
	h, err := New(Config{Addr: "solo"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Call(context.Background(), "x", "wf", proto.FragmentQuery{}, time.Second); err == nil {
		t.Error("Call on unattached host succeeded")
	}
	if err := h.Send(context.Background(), "x", "wf", proto.Decline{}); err == nil {
		t.Error("Send on unattached host succeeded")
	}
	if err := h.Close(); err != nil {
		t.Errorf("Close unattached: %v", err)
	}
}

func TestStrayReplyIgnored(t *testing.T) {
	a, b := pair(t, Config{Addr: "a"}, Config{Addr: "b"})
	// b sends an uncorrelated reply; a must not crash or route it.
	if err := b.Send(context.Background(), "a", "wf", proto.Bid{Task: "t"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	// A real call still works afterwards.
	if _, err := a.Call(context.Background(), "b", "wf", proto.FeasibilityQuery{}, time.Second); err != nil {
		t.Fatal(err)
	}
}

// --- Dispatcher tests ---

// TestDispatcherPerWorkflowFIFO: envelopes of one workflow are processed
// strictly in arrival order even when many workers are available.
func TestDispatcherPerWorkflowFIFO(t *testing.T) {
	var mu sync.Mutex
	var got []uint64
	d := newDispatcher(func(env proto.Envelope) {
		mu.Lock()
		got = append(got, env.ReqID)
		mu.Unlock()
	}, 8)
	const n = 200
	for i := 1; i <= n; i++ {
		d.enqueue(proto.Envelope{Workflow: "wf", ReqID: uint64(i)})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		done := len(got) == n
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d envelopes processed", len(got), n)
		}
		time.Sleep(time.Millisecond)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("envelope %d has ReqID %d: per-workflow FIFO violated", i, id)
		}
	}
	if d.ActiveSessions() != 0 {
		t.Errorf("ActiveSessions = %d after drain", d.ActiveSessions())
	}
}

// TestDispatcherCrossWorkflowConcurrency: a blocked session must not
// stall another workflow's traffic — the property the single-threaded
// Handle loop lacked.
func TestDispatcherCrossWorkflowConcurrency(t *testing.T) {
	release := make(chan struct{})
	fastDone := make(chan struct{})
	d := newDispatcher(func(env proto.Envelope) {
		switch env.Workflow {
		case "slow":
			<-release
		case "fast":
			close(fastDone)
		}
	}, 4)
	d.enqueue(proto.Envelope{Workflow: "slow"})
	d.enqueue(proto.Envelope{Workflow: "fast"})
	select {
	case <-fastDone:
	case <-time.After(2 * time.Second):
		t.Fatal("fast workflow stalled behind the blocked slow workflow")
	}
	close(release)
}

// TestDispatcherWorkerPoolBound: concurrent in-flight handlers never
// exceed the configured pool size, and all sessions are eventually
// served as workers free up.
func TestDispatcherWorkerPoolBound(t *testing.T) {
	const workers = 3
	const sessions = 12
	var inFlight, peak, handled atomic.Int64
	d := newDispatcher(func(env proto.Envelope) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		handled.Add(1)
	}, workers)
	for i := 0; i < sessions; i++ {
		d.enqueue(proto.Envelope{Workflow: fmt.Sprintf("wf-%d", i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for handled.Load() != sessions {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d of %d sessions", handled.Load(), sessions)
		}
		time.Sleep(time.Millisecond)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds worker bound %d", p, workers)
	}
}

// TestDispatcherCloseDropsQueued: after close, queued and new envelopes
// are dropped and workers wind down.
func TestDispatcherCloseDropsQueued(t *testing.T) {
	var handled atomic.Int64
	block := make(chan struct{})
	d := newDispatcher(func(env proto.Envelope) {
		handled.Add(1)
		<-block
	}, 1)
	d.enqueue(proto.Envelope{Workflow: "a"}) // occupies the only worker
	deadline := time.Now().Add(time.Second)
	for handled.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	d.enqueue(proto.Envelope{Workflow: "b"}) // queued behind the pool
	d.close()
	d.enqueue(proto.Envelope{Workflow: "c"}) // refused outright
	close(block)
	time.Sleep(10 * time.Millisecond)
	if n := handled.Load(); n != 1 {
		t.Errorf("handled = %d, want only the pre-close in-flight envelope", n)
	}
}

// goid returns the calling goroutine's ID, parsed from its stack
// header ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}

// TestDispatcherReusesWorkers: once a burst has started the whole pool,
// a stream of one-envelope sessions is served by those `workers`
// long-lived goroutines, which park between sessions, instead of by one
// goroutine per session; close makes the parked workers exit.
func TestDispatcherReusesWorkers(t *testing.T) {
	testutil.CheckGoroutines(t)
	const workers = 8
	const sessions = 1000
	var mu sync.Mutex
	ran := make(map[uint64]bool)
	var burst sync.WaitGroup
	release := make(chan struct{})
	done := make(chan struct{}, 1)
	d := newDispatcher(func(env proto.Envelope) {
		mu.Lock()
		ran[goid()] = true
		mu.Unlock()
		if strings.HasPrefix(env.Workflow, "burst") {
			burst.Done()
			<-release
			return
		}
		done <- struct{}{}
	}, workers)
	// Registered after CheckGoroutines, so it runs first: the leak check
	// then proves the parked workers exited.
	t.Cleanup(d.close)
	base := runtime.NumGoroutine()
	burst.Add(workers)
	for i := 0; i < workers; i++ {
		d.enqueue(proto.Envelope{Workflow: fmt.Sprintf("burst-%d", i)})
	}
	burst.Wait() // every worker is live
	close(release)
	for i := 0; i < sessions; i++ {
		d.enqueue(proto.Envelope{Workflow: fmt.Sprintf("wf-%d", i)})
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("session %d not handled", i)
		}
	}
	if extra := runtime.NumGoroutine() - base; extra > workers {
		t.Errorf("%d extra goroutines while open, want ≤ %d", extra, workers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != workers {
		t.Errorf("sessions ran on %d distinct goroutines, want the %d pool workers", len(ran), workers)
	}
}

// TestDispatcherWakeClaimsParkedWorker: with one parked worker and room
// for a second, two sessions enqueued back to back must run on two
// workers. Session A blocks until session B has run, so a dispatcher that
// counts the parked worker as idle until it actually wakes — and so
// signals it a second time for B instead of starting another worker —
// deadlocks here.
func TestDispatcherWakeClaimsParkedWorker(t *testing.T) {
	testutil.CheckGoroutines(t)
	for round := 0; round < 20; round++ {
		warm := make(chan struct{})
		bDone := make(chan struct{})
		aErr := make(chan error, 1)
		d := newDispatcher(func(env proto.Envelope) {
			switch env.Workflow {
			case "warm":
				close(warm)
			case "a":
				select {
				case <-bDone:
					aErr <- nil
				case <-time.After(2 * time.Second):
					aErr <- fmt.Errorf("session b never ran while a held the only woken worker")
				}
			case "b":
				close(bDone)
			}
		}, 2)
		d.enqueue(proto.Envelope{Workflow: "warm"})
		<-warm
		deadline := time.Now().Add(2 * time.Second)
		for parked := false; !parked; {
			if time.Now().After(deadline) {
				d.close()
				t.Fatalf("round %d: the warm worker never parked", round)
			}
			d.mu.Lock()
			parked = d.idle == 1
			d.mu.Unlock()
			runtime.Gosched()
		}
		d.enqueue(proto.Envelope{Workflow: "a"})
		d.enqueue(proto.Envelope{Workflow: "b"})
		err := <-aErr
		d.close()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// deepHandler stands in for a real handler's call chain (process →
// Handle → reply → send → encode): it touches about 13 KB of stack, so a
// worker that starts on a fresh goroutine has to grow its stack first.
//
//go:noinline
func deepHandler(depth int) byte {
	var frame [512]byte
	frame[depth%len(frame)] = byte(depth)
	if depth == 0 {
		return frame[0]
	}
	return deepHandler(depth-1) + frame[len(frame)-1-depth%len(frame)]
}

// dispatchSession returns a one-envelope-session step on a Workers: 8
// dispatcher with a deep handler: enqueue the only envelope of a new
// session and wait until its handler has run.
func dispatchSession(tb testing.TB) func() {
	done := make(chan struct{}, 1)
	var sink byte
	d := newDispatcher(func(env proto.Envelope) {
		sink += deepHandler(24)
		done <- struct{}{}
	}, DefaultWorkers)
	tb.Cleanup(d.close)
	// Rotate workflow IDs so each op opens a fresh session even when the
	// previous one's worker has not retired it yet.
	ids := make([]string, 64)
	for i := range ids {
		ids[i] = fmt.Sprintf("wf-%d", i)
	}
	next := 0
	return func() {
		d.enqueue(proto.Envelope{Workflow: ids[next%len(ids)]})
		next++
		<-done
	}
}

// BenchmarkDispatchSessions is the host-dispatch layer row: one
// one-envelope session enqueued and waited for per op.
func BenchmarkDispatchSessions(b *testing.B) {
	step := dispatchSession(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestDispatchSessionAllocBound pins the steady-state cost of a
// one-envelope session at two allocations, the session record and its
// queue: no goroutine start, and the runnable list reuses its backing
// array.
func TestDispatchSessionAllocBound(t *testing.T) {
	testutil.AllocBound(t, 0, dispatchSession(t))
}

// TestDispatcherRecyclesSessions: a burst of 1,000 sessions that are all
// live at once retires into a free list of at most `workers` records,
// and the sessions that reuse those records see only their own
// envelopes — none of a workflow that used the record before.
func TestDispatcherRecyclesSessions(t *testing.T) {
	const workers, sessions, perSession = 4, 1000, 3
	var mu sync.Mutex
	seen := make(map[string][]int)
	var handled sync.WaitGroup
	gate := make(chan struct{})
	d := newDispatcher(func(env proto.Envelope) {
		<-gate
		mu.Lock()
		seen[env.Workflow] = append(seen[env.Workflow], int(env.ReqID))
		mu.Unlock()
		handled.Done()
	}, workers)
	t.Cleanup(d.close)
	round := func(prefix string) {
		t.Helper()
		handled.Add(sessions * perSession)
		var senders sync.WaitGroup
		for g := 0; g < 4; g++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for i := g; i < sessions; i += 4 {
					for k := 0; k < perSession; k++ {
						d.enqueue(proto.Envelope{Workflow: fmt.Sprintf("%s-%d", prefix, i), ReqID: uint64(k)})
					}
				}
			}()
		}
		senders.Wait()
		if n := d.ActiveSessions(); n != sessions {
			t.Fatalf("%s: %d live sessions, want all %d at once", prefix, n, sessions)
		}
		close(gate)
		handled.Wait()
		gate = make(chan struct{})
		deadline := time.Now().Add(2 * time.Second)
		for d.ActiveSessions() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: sessions never retired", prefix)
			}
			runtime.Gosched()
		}
		d.mu.Lock()
		free := len(d.free)
		d.mu.Unlock()
		if free > workers {
			t.Fatalf("%s: free list holds %d records, want ≤ %d", prefix, free, workers)
		}
	}
	round("first")
	round("second")
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2*sessions {
		t.Fatalf("%d workflows handled, want %d", len(seen), 2*sessions)
	}
	for wf, got := range seen {
		if fmt.Sprint(got) != "[0 1 2]" {
			t.Fatalf("workflow %s handled %v, want [0 1 2]", wf, got)
		}
	}
}
