package main

import (
	"sort"
	"testing"
	"time"

	"openwf/internal/engine"
	"openwf/internal/proto"
	"openwf/internal/trace"
)

func sortedSample(s *sampler) []float64 {
	xs := append([]float64(nil), s.xs...)
	sort.Float64s(xs)
	return xs
}

func equalFloats(a, b []float64) bool {
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

func TestSendRecvMatchingAcrossInterleavedLinks(t *testing.T) {
	tr := newTracer(1)
	t0 := time.Unix(100, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	ev := func(us int, host, peer proto.Addr, dir trace.Dir, kind, wf string) {
		tr.Record(trace.Event{At: at(us), Host: host, Peer: peer, Dir: dir, Kind: kind, Workflow: wf})
	}
	// Two sends on a->b and one on a->c, interleaved with a same-kind
	// send of another workflow and a different kind on the same link.
	ev(0, "a", "b", trace.Send, "cancel", "w1")
	ev(1, "a", "c", trace.Send, "cancel", "w1")
	ev(2, "a", "b", trace.Send, "cancel", "w2")
	ev(3, "a", "b", trace.Send, "award-ack", "w1")
	ev(4, "a", "b", trace.Send, "cancel", "w1")
	ev(10, "c", "a", trace.Recv, "cancel", "w1")    // 1 -> 10
	ev(20, "b", "a", trace.Recv, "cancel", "w1")    // 0 -> 20 (first in, first out)
	ev(25, "b", "a", trace.Recv, "award-ack", "w1") // 3 -> 25
	ev(30, "b", "a", trace.Recv, "cancel", "w2")    // 2 -> 30
	ev(40, "b", "a", trace.Recv, "cancel", "w1")    // 4 -> 40
	ev(50, "b", "a", trace.Recv, "cancel", "w1")    // unmatched: no sample
	if got, want := sortedSample(tr.delivery), []float64{9, 20, 22, 28, 36}; !equalFloats(got, want) {
		t.Errorf("delivery samples %v, want %v", got, want)
	}
	if tr.recv["cancel"] != 5 || tr.recv["award-ack"] != 1 {
		t.Errorf("recv counts %v", tr.recv)
	}
	if len(tr.sent) != 0 {
		t.Errorf("unmatched sends left: %v", tr.sent)
	}
}

func TestTurnaroundMatching(t *testing.T) {
	tr := newTracer(1)
	t0 := time.Unix(100, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	ev := func(us int, host, peer proto.Addr, dir trace.Dir, kind, wf string) {
		tr.Record(trace.Event{At: at(us), Host: host, Peer: peer, Dir: dir, Kind: kind, Workflow: wf})
	}
	// Member m is queried by p and q in one workflow and answers q
	// first; a bid batch turnaround runs on another member meanwhile.
	ev(0, "m", "p", trace.Recv, "fragment-query", "w")
	ev(5, "m", "q", trace.Recv, "fragment-query", "w")
	ev(6, "n", "p", trace.Recv, "call-for-bids-batch", "w")
	ev(9, "m", "q", trace.Send, "fragment-reply", "w")  // 5 -> 9
	ev(12, "n", "p", trace.Send, "bid-batch", "w")      // 6 -> 12
	ev(20, "m", "p", trace.Send, "fragment-reply", "w") // 0 -> 20
	ev(30, "m", "p", trace.Send, "fragment-reply", "w") // no query left
	if got, want := sortedSample(tr.turnFragment), []float64{4, 20}; !equalFloats(got, want) {
		t.Errorf("fragment turnarounds %v, want %v", got, want)
	}
	if got, want := sortedSample(tr.turnBid), []float64{6}; !equalFloats(got, want) {
		t.Errorf("bid turnarounds %v, want %v", got, want)
	}
	if n := len(tr.workflows["w"].turns); n != 3 {
		t.Errorf("workflow w kept %d turnaround spans, want 3", n)
	}
}

func TestFinishOpPartitionsTheOpIntoLayerSelfTimes(t *testing.T) {
	tr := newTracer(1)
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ev := func(ms int, host, peer proto.Addr, dir trace.Dir, kind string) {
		tr.Record(trace.Event{At: at(ms), Host: host, Peer: peer, Dir: dir, Kind: kind, Workflow: "w"})
	}
	// Two overlapping fragment turnarounds inside construction (1..9),
	// one bid turnaround inside allocation (9..15).
	ev(2, "m", "i", trace.Recv, "fragment-query")
	ev(3, "n", "i", trace.Recv, "fragment-query")
	ev(5, "m", "i", trace.Send, "fragment-reply")
	ev(6, "n", "i", trace.Send, "fragment-reply")
	ev(10, "m", "i", trace.Recv, "call-for-bids-batch")
	ev(11, "m", "i", trace.Send, "bid-batch")
	tr.workflow("w").constructDone = at(9)
	tr.workflow("w").sessionDone = at(15)
	plan := &engine.Plan{WorkflowID: "w"}
	tr.finishOp(opSpan{
		res:   opResult{plan: plan, wait: time.Millisecond},
		start: at(0), end: at(16), checked: at(17), released: at(19), ok: true,
	})
	want := map[string]time.Duration{
		"daemon":   1 * time.Millisecond,
		"fragment": 4 * time.Millisecond,               // union of [2,5) and [3,6)
		"auction":  1 * time.Millisecond,               // [10,11)
		"engine":   (8 - 4 + 6 - 1) * time.Millisecond, // construct [1,9), allocate [9,15)
		"schedule": 2 * time.Millisecond,
		"bench":    2 * time.Millisecond, // [15,17): session end to check end
	}
	var sum time.Duration
	for _, l := range selfLayers {
		if tr.self[l] != want[l] {
			t.Errorf("self time of %s: %v, want %v", l, tr.self[l], want[l])
		}
		sum += tr.self[l]
	}
	if sum != 19*time.Millisecond {
		t.Errorf("self times sum to %v, want the op's 19ms", sum)
	}
	if tr.ops != 1 || len(tr.workflows) != 0 {
		t.Errorf("ops=%d, workflows left=%d", tr.ops, len(tr.workflows))
	}
	names := map[string]int{}
	for _, s := range tr.spans {
		names[s.Name]++
	}
	if names["op"] != 1 || names["fragment.turnaround"] != 2 || names["auction.bid_turnaround"] != 1 || names["daemon.queue"] != 1 {
		t.Errorf("spans %v", names)
	}
}
