package community

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/engine"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/spec"
	"openwf/internal/testutil"
	"openwf/internal/transport/inmem"
)

// queryTap records the labels of every FragmentQuery each member
// receives, in arrival order. The in-memory network splits coalesced
// frames before calling a handler, so the tap sees single envelopes.
type queryTap struct {
	mu       sync.Mutex
	received map[proto.Addr][][]model.LabelID
}

func (q *queryTap) handler(id proto.Addr, next func(proto.Envelope)) func(proto.Envelope) {
	return func(env proto.Envelope) {
		if fq, ok := env.Body.(proto.FragmentQuery); ok {
			q.mu.Lock()
			q.received[id] = append(q.received[id], slices.Clone(fq.Labels))
			q.mu.Unlock()
		}
		next(env)
	}
}

// fanLayout spreads a fan of knowhow over six members: a trigger s feeds
// six branches A_i: s → x_i, each continued by B_i: x_i → y_i on the
// next member, and C joins y_0 and y_1 into the goal g. Every member
// consumes only a few of the labels on each frontier, so a whole-frontier
// query asks most members mostly about labels they cannot extend.
func fanLayout(t *testing.T) ([]HostSpec, map[proto.Addr]map[model.LabelID]bool) {
	t.Helper()
	const members = 6
	specs := make([]HostSpec, members)
	consumes := make(map[proto.Addr]map[model.LabelID]bool)
	for h := range specs {
		specs[h].ID = proto.Addr(fmt.Sprintf("host%02d", h))
		consumes[specs[h].ID] = make(map[model.LabelID]bool)
	}
	give := func(h int, task string, ins, outs []model.LabelID) {
		specs[h].Fragments = append(specs[h].Fragments, frag(t, "know-"+task, ctask(task, ins, outs)))
		specs[h].Services = append(specs[h].Services, svc(task, 0))
		for _, in := range ins {
			consumes[specs[h].ID][in] = true
		}
	}
	for i := 0; i < members; i++ {
		x, y := model.LabelID(fmt.Sprintf("x%d", i)), model.LabelID(fmt.Sprintf("y%d", i))
		give(i, fmt.Sprintf("A%d", i), lbl("s"), []model.LabelID{x})
		give((i+1)%members, fmt.Sprintf("B%d", i), []model.LabelID{x}, []model.LabelID{y})
	}
	give(2, "C", lbl("y0", "y1"), lbl("g"))
	give(5, "junk", lbl("junk-in"), lbl("junk-out"))
	return specs, consumes
}

// runTapped builds the fan layout over a tapped in-memory network on a
// frozen clock, optionally warms host00's capability index, initiates
// one s → g workflow from host00 and returns its canonical plan and the
// queries every member received.
func runTapped(t *testing.T, indexed bool) (string, map[proto.Addr][][]model.LabelID, map[proto.Addr]map[model.LabelID]bool) {
	t.Helper()
	testutil.CheckGoroutines(t)
	sim := clock.NewSim(stressT0)
	specs, consumes := fanLayout(t)
	cfg := engine.DefaultConfig()
	cfg.TaskWindow = time.Second
	cfg.StartDelay = 5 * time.Second
	cfg.CallTimeout = time.Hour // virtual: all members answer, nothing times out

	tap := &queryTap{received: make(map[proto.Addr][][]model.LabelID)}
	net := inmem.NewNetwork(inmem.WithClock(sim), inmem.WithSeed(1))
	var hosts []*host.Host
	t.Cleanup(func() {
		for _, h := range hosts {
			_ = h.Close()
		}
		_ = net.Close()
	})
	var members []proto.Addr
	for _, hs := range specs {
		hc := host.Config{Addr: hs.ID, Clock: sim, Engine: cfg, Fragments: hs.Fragments, Services: hs.Services}
		if indexed {
			hc.Discovery = &host.DiscoveryConfig{}
		}
		h, err := host.New(hc)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, h)
		ep, err := net.Endpoint(hs.ID, tap.handler(hs.ID, h.Handle))
		if err != nil {
			t.Fatal(err)
		}
		h.Attach(ep)
		members = append(members, hs.ID)
	}
	for _, h := range hosts {
		h.SetMembers(members)
	}

	ctx := ctxTimeout(t, 60*time.Second)
	if indexed {
		if err := hosts[0].AdvertiseNow(ctx); err != nil {
			t.Fatalf("AdvertiseNow: %v", err)
		}
	}
	plan, err := hosts[0].Engine.Initiate(ctx, spec.Must(lbl("s"), lbl("g")))
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if len(plan.Allocations) != 5 {
		t.Fatalf("plan allocates %d tasks, want 5 (A0 B0 A1 B1 C)", len(plan.Allocations))
	}
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return canonicalPlans([]*engine.Plan{plan}), tap.received, consumes
}

// TestTrimmedFragmentQueries: on a warm index every fragment query a
// member receives names only labels that member consumes, the plan is
// byte-identical to broadcast, and the labels sent per Initiate fall
// below what whole-frontier queries to the same members would carry.
func TestTrimmedFragmentQueries(t *testing.T) {
	broadcastPlan, broadcastQueries, _ := runTapped(t, false)
	indexedPlan, indexedQueries, consumes := runTapped(t, true)
	if indexedPlan != broadcastPlan {
		t.Fatalf("trimmed and broadcast plans diverge:\n--- trimmed ---\n%s--- broadcast ---\n%s",
			indexedPlan, broadcastPlan)
	}

	// Under broadcast a bystander receives every round's whole frontier,
	// in round order.
	frontiers := broadcastQueries["host04"]
	if len(frontiers) < 3 {
		t.Fatalf("broadcast run saw %d query rounds, want at least 3", len(frontiers))
	}
	trimmed, whole := 0, 0
	for member, queries := range indexedQueries {
		round := 0
		for _, q := range queries {
			for _, l := range q {
				if !consumes[member][l] {
					t.Errorf("%s was asked about %q, which it does not consume (query %v)", member, l, q)
				}
			}
			// Each member gets at most one query per round: match q to
			// the next round whose frontier contains it.
			for round < len(frontiers) && !subset(q, frontiers[round]) {
				round++
			}
			if round == len(frontiers) {
				t.Fatalf("%s received %v, which is in no broadcast frontier %v", member, q, frontiers)
			}
			trimmed += len(q)
			whole += len(frontiers[round])
			round++
		}
	}
	t.Logf("query labels per Initiate: %d trimmed vs %d as whole frontiers to the same members", trimmed, whole)
	if trimmed == 0 || trimmed >= whole {
		t.Fatalf("trimming did not reduce query labels: %d trimmed vs %d whole", trimmed, whole)
	}
}

func subset(q, frontier []model.LabelID) bool {
	for _, l := range q {
		if !slices.Contains(frontier, l) {
			return false
		}
	}
	return true
}
