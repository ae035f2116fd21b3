package discovery

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/testutil"
)

var discT0 = time.Date(2026, 6, 12, 9, 0, 0, 0, time.UTC)

func lbls(ss ...string) []model.LabelID {
	out := make([]model.LabelID, len(ss))
	for i, s := range ss {
		out[i] = model.LabelID(s)
	}
	return out
}

func tsks(ss ...string) []model.TaskID {
	out := make([]model.TaskID, len(ss))
	for i, s := range ss {
		out[i] = model.TaskID(s)
	}
	return out
}

func contains(addrs []proto.Addr, a proto.Addr) bool {
	for _, x := range addrs {
		if x == a {
			return true
		}
	}
	return false
}

// TestAdExpiresExactlyAtTTL pins the TTL boundary: an advertisement is
// fresh strictly before now+TTL and lapsed at exactly now+TTL.
func TestAdExpiresExactlyAtTTL(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a"), nil)
	x.ObserveAdvertise("h2", lbls("a"), nil)

	sim.Advance(10*time.Second - time.Nanosecond)
	sel, ok := x.SelectByLabels(members, lbls("a"))
	if !ok || !contains(sel, "h1") || !contains(sel, "h2") {
		t.Fatalf("one nanosecond before TTL: want both fresh, got %v (ok=%v)", sel, ok)
	}

	x.ObserveAdvertise("h2", lbls("a"), nil) // h2 refreshes; h1 does not
	sim.Advance(time.Nanosecond)             // h1's ad is now exactly TTL old
	sel, ok = x.SelectByLabels(members, lbls("a"))
	if !ok {
		t.Fatalf("fresh h2 should still route: got fallback")
	}
	if contains(sel, "h1") {
		t.Fatalf("h1's ad lapsed exactly at TTL but was selected: %v", sel)
	}
	if !contains(sel, "h2") {
		t.Fatalf("refreshed h2 missing from selection %v", sel)
	}
	if st := x.Stats(); st.Excluded == 0 {
		t.Fatalf("expired exclusion not counted: %+v", st)
	}
}

// TestRefreshExtendsTTL pins that a refresh restarts the TTL from the
// refresh instant, not the original advertisement.
func TestRefreshExtendsTTL(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	sim.Advance(8 * time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	sim.Advance(8 * time.Second) // 16s after the first ad, 8s after refresh
	if !x.Fresh("h1") {
		t.Fatal("refreshed ad lapsed before its extended TTL")
	}
	sim.Advance(2 * time.Second)
	if x.Fresh("h1") {
		t.Fatal("ad survived past the refreshed TTL")
	}
}

// TestCompleteAdReplacesCapabilities pins replace-not-merge semantics
// for complete advertisements: capabilities may shrink.
func TestCompleteAdReplacesCapabilities(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a", "b"), nil)
	x.ObserveAdvertise("h2", lbls("a"), nil)
	x.ObserveAdvertise("h1", lbls("c"), nil) // h1 dropped a and b
	sel, ok := x.SelectByLabels(members, lbls("a"))
	if !ok || contains(sel, "h1") {
		t.Fatalf("h1 no longer advertises a but was selected: %v (ok=%v)", sel, ok)
	}
}

// TestPartialObservationAlwaysIncluded pins the conservative rule for
// opportunistically learned entries: they prove presence, not absence,
// so the member is contacted even when the observation does not
// intersect the query.
func TestPartialObservationAlwaysIncluded(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a"), nil)
	x.ObservePartial("h2", lbls("z"), nil)
	sel, ok := x.SelectByLabels(members, lbls("a"))
	if !ok || !contains(sel, "h2") {
		t.Fatalf("incomplete entry must always be included: %v (ok=%v)", sel, ok)
	}
	// A partial observation also refreshes liveness.
	sim.Advance(8 * time.Second)
	x.ObservePartial("h2", lbls("z"), nil)
	sim.Advance(8 * time.Second)
	if !x.Fresh("h2") {
		t.Fatal("partial observation did not extend the TTL")
	}
}

// TestNeverSeenMemberForcesBroadcast pins the fallback rule: a candidate
// with no entry at all (cold start, a member that joined after the last
// sweep, a Forget) makes the whole selection fall back.
func TestNeverSeenMemberForcesBroadcast(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}

	if sel, ok := x.SelectByLabels(members, lbls("a")); ok {
		t.Fatalf("cold start must fall back, got %v", sel)
	}
	x.ObserveAdvertise("h1", lbls("a"), nil)
	if sel, ok := x.SelectByLabels(members, lbls("a")); ok {
		t.Fatalf("h2 never seen: must fall back, got %v", sel)
	}
	x.ObserveAdvertise("h2", nil, nil)
	if _, ok := x.SelectByLabels(members, lbls("a")); !ok {
		t.Fatal("all members known: selection should route")
	}
	x.Forget("h2")
	if sel, ok := x.SelectByLabels(members, lbls("a")); ok {
		t.Fatalf("forgotten member must force fallback, got %v", sel)
	}
	if st := x.Stats(); st.Misses != 3 {
		t.Fatalf("want 3 fallback misses, got %+v", st)
	}
}

// TestEmptySelectionFallsBack: "nobody advertises this" must never
// become "ask nobody" — the caller broadcasts instead.
func TestEmptySelectionFallsBack(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	members := []proto.Addr{"h1", "h2"}
	x.ObserveAdvertise("h1", lbls("a"), tsks("t1"))
	x.ObserveAdvertise("h2", lbls("b"), nil)
	if sel, ok := x.SelectByLabels(members, lbls("zzz")); ok {
		t.Fatalf("no intersection anywhere: must fall back, got %v", sel)
	}
	if sel, ok := x.SelectByTasks(members, tsks("t9")); ok {
		t.Fatalf("no capable host: must fall back, got %v", sel)
	}
	sel, ok := x.SelectByTasks(members, tsks("t1"))
	if !ok || len(sel) != 1 || sel[0] != "h1" {
		t.Fatalf("task selection: want [h1], got %v (ok=%v)", sel, ok)
	}
}

// TestResetWipes pins crash semantics: a restart loses the index.
func TestResetWipes(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	x.Reset()
	if n := len(x.Known()); n != 0 {
		t.Fatalf("reset left %d entries", n)
	}
	if _, ok := x.SelectByLabels([]proto.Addr{"h1"}, lbls("a")); ok {
		t.Fatal("reset index must fall back")
	}
}

// TestCrashedHostNeverRoutedPastTTL runs seeded interleavings of
// refreshes, partial observations, and clock advances against a
// community where one host "crashes" (stops refreshing) at a random
// instant and later "restarts" (advertises again). Invariants, checked
// after every step:
//
//   - a selection never includes the crashed host once its last
//     observation is a full TTL old (the stale entry never routes a
//     solicitation past the TTL horizon);
//   - a selection never includes any host whose entry has lapsed;
//   - after the restart advertisement, the host is routable again.
func TestCrashedHostNeverRoutedPastTTL(t *testing.T) {
	const ttl = 10 * time.Second
	members := []proto.Addr{"h0", "h1", "h2", "h3", "h4"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := clock.NewSim(discT0)
		x := New(sim, ttl)
		for _, m := range members {
			x.ObserveAdvertise(m, lbls("a"), tsks("t"))
		}
		victim := members[rng.Intn(len(members))]
		crashAt := sim.Now().Add(time.Duration(1+rng.Intn(20)) * time.Second)
		restartAt := crashAt.Add(time.Duration(int(ttl/time.Second)+rng.Intn(20)) * time.Second)
		lastSeen := sim.Now()
		restarted := false

		for step := 0; step < 200; step++ {
			sim.Advance(time.Duration(100+rng.Intn(2000)) * time.Millisecond)
			now := sim.Now()
			// Live hosts refresh with jittered cadence; the victim only
			// while not crashed, or after its restart.
			for _, m := range members {
				if rng.Intn(3) != 0 {
					continue
				}
				if m == victim && now.After(crashAt) && now.Before(restartAt) {
					continue
				}
				if m == victim && !now.Before(restartAt) {
					restarted = true
				}
				if rng.Intn(4) == 0 {
					x.ObservePartial(m, lbls("a"), nil)
				} else {
					x.ObserveAdvertise(m, lbls("a"), tsks("t"))
				}
				if m == victim {
					lastSeen = now
				}
			}
			sel, ok := x.SelectByLabels(members, lbls("a"))
			if !ok {
				continue
			}
			if contains(sel, victim) && !now.Before(lastSeen.Add(ttl)) {
				t.Fatalf("seed %d step %d: crashed %q routed %v past its TTL horizon",
					seed, step, victim, now.Sub(lastSeen))
			}
			for _, m := range sel {
				if !x.Fresh(m) {
					t.Fatalf("seed %d step %d: lapsed %q selected", seed, step, m)
				}
			}
		}
		if !restarted {
			continue // interleaving ended before the restart; fine
		}
		// After restart the victim advertises again and must be routable.
		x.ObserveAdvertise(victim, lbls("a"), tsks("t"))
		sel, ok := x.SelectByLabels(members, lbls("a"))
		if !ok || !contains(sel, victim) {
			t.Fatalf("seed %d: restarted %q not routable: %v (ok=%v)", seed, victim, sel, ok)
		}
	}
}

// TestSelectAllocBounds pins the route-lookup fast path: one pre-sized
// result slice per call (plus the intersection closure) and nothing
// proportional to hits. This path runs once per query hop in the
// engine's capability routing, so regressions here multiply across a
// whole construction.
func TestSelectAllocBounds(t *testing.T) {
	x := New(clock.NewSim(discT0), time.Minute)
	candidates := make([]proto.Addr, 16)
	for i := range candidates {
		a := proto.Addr(string(rune('a' + i)))
		candidates[i] = a
		x.ObserveAdvertise(a, lbls("l0", "l1"), tsks("t0", "t1"))
	}
	labels := lbls("l1")
	tasks := tsks("t1")
	testutil.AllocBound(t, 2, func() {
		if _, ok := x.SelectByLabels(candidates, labels); !ok {
			t.Fatal("SelectByLabels fell back")
		}
	})
	testutil.AllocBound(t, 2, func() {
		if _, ok := x.SelectByTasks(candidates, tasks); !ok {
			t.Fatal("SelectByTasks fell back")
		}
	})
	// The routes and one shared array for every trimmed label list.
	testutil.AllocBound(t, 2, func() {
		if _, ok := x.RouteByLabels(candidates, labels); !ok {
			t.Fatal("RouteByLabels fell back")
		}
	})
}

// TestRouteByLabelsTrimsPerMember pins what each selected member is
// asked: a fresh complete entry the frontier labels its ad lists, in
// frontier order; a partial entry the whole frontier; a lapsed entry
// nothing; and a never-seen candidate makes the whole route fall back.
func TestRouteByLabelsTrimsPerMember(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("lapsed", lbls("a", "b"), nil)
	sim.Advance(10 * time.Second)
	x.ObserveAdvertise("h1", lbls("a", "c", "zz"), nil)
	x.ObservePartial("h2", lbls("z"), nil)
	x.ObserveAdvertise("h3", lbls("q"), nil) // complete, no intersection
	x.ObserveAdvertise("h4", lbls("d", "b"), nil)
	x.ObserveAdvertise("h5", lbls("a", "b", "c", "d"), nil)

	frontier := lbls("c", "b", "a", "d")
	routes, ok := x.RouteByLabels([]proto.Addr{"h1", "lapsed", "h2", "h3", "h4", "h5"}, frontier)
	if !ok {
		t.Fatal("all candidates known: route should not fall back")
	}
	got := make(map[proto.Addr]string)
	var order []proto.Addr
	for _, r := range routes {
		got[r.Member] = fmt.Sprint(r.Labels)
		order = append(order, r.Member)
	}
	if fmt.Sprint(order) != "[h1 h2 h4 h5]" {
		t.Fatalf("routed members = %v, want [h1 h2 h4 h5] in candidate order", order)
	}
	want := map[proto.Addr]string{
		"h1": "[c a]",
		"h2": "[c b a d]",
		"h4": "[b d]",
		"h5": "[c b a d]",
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s asked %s, want %s", m, got[m], w)
		}
	}
	if st := x.Stats(); st.Excluded != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 excluded, 1 hit", st)
	}

	if routes, ok := x.RouteByLabels([]proto.Addr{"h1", "never"}, frontier); ok {
		t.Fatalf("never-seen member must force fallback, got %v", routes)
	}
	if routes, ok := x.RouteByLabels([]proto.Addr{"h3"}, frontier); ok {
		t.Fatalf("empty selection must fall back, got %v", routes)
	}
}

// TestObserveFragmentsWidensCompleteEntry: a fragment reply folds its
// input labels into the member's entry, so a member whose ad missed a
// label it just proved it consumes is asked that label next time.
func TestObserveFragmentsWidensCompleteEntry(t *testing.T) {
	sim := clock.NewSim(discT0)
	x := New(sim, 10*time.Second)
	x.ObserveAdvertise("h1", lbls("a"), nil)
	f := model.MustFragment("f", model.Task{ID: "t", Mode: model.Disjunctive, Inputs: lbls("e", "a"), Outputs: lbls("o")})
	sim.Advance(8 * time.Second)
	x.ObserveFragments("h1", []*model.Fragment{f})
	sim.Advance(8 * time.Second) // fresh only because the reply refreshed it
	routes, ok := x.RouteByLabels([]proto.Addr{"h1"}, lbls("e", "x"))
	if !ok || len(routes) != 1 || fmt.Sprint(routes[0].Labels) != "[e]" {
		t.Fatalf("routes = %v (ok=%v), want h1 asked [e]", routes, ok)
	}
	x.ObserveFragments("h2", []*model.Fragment{f}) // unknown member: partial entry
	if routes, ok := x.RouteByLabels([]proto.Addr{"h2"}, lbls("x")); !ok || fmt.Sprint(routes[0].Labels) != "[x]" {
		t.Fatalf("partial entry from a reply should get the whole frontier: %v (ok=%v)", routes, ok)
	}
	if st := x.Stats(); st.Partials != 2 {
		t.Errorf("partials = %d, want 2", st.Partials)
	}
}

// BenchmarkRouteByLabels routes one 30-label frontier over 12 members
// whose complete ads each list 40 of 500 labels — the plan-deep shape.
func BenchmarkRouteByLabels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(clock.NewSim(discT0), time.Hour)
	universe := make([]model.LabelID, 500)
	for i := range universe {
		universe[i] = model.LabelID(fmt.Sprintf("o%03d", i))
	}
	members := make([]proto.Addr, 12)
	for i := range members {
		members[i] = proto.Addr(fmt.Sprintf("host%02d", i))
		ad := make([]model.LabelID, 0, 40)
		for _, j := range rng.Perm(len(universe))[:40] {
			ad = append(ad, universe[j])
		}
		x.ObserveAdvertise(members[i], ad, nil)
	}
	frontier := make([]model.LabelID, 0, 30)
	for _, j := range rng.Perm(len(universe))[:30] {
		frontier = append(frontier, universe[j])
	}
	if _, ok := x.RouteByLabels(members, frontier); !ok {
		b.Fatal("route fell back")
	}
	b.ReportAllocs()
	for b.Loop() {
		x.RouteByLabels(members, frontier)
	}
}
