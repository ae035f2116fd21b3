// Package discovery implements the capability index that lets an
// initiator route solicitation by advertised capability instead of
// broadcasting to the whole community. Each member periodically
// advertises the labels its fragments consume and the tasks it offers
// services for (proto.Advertise); the index keeps one TTL'd entry per
// member and answers "which of these members could contribute to these
// labels/tasks?" during construction and allocation sweeps.
//
// Routing is conservative so a stale index can never lose a plan:
//
//   - A member the index has never heard from forces a full-broadcast
//     fallback (counted as a miss) — nothing is known about it, so
//     nothing may be skipped.
//   - A fresh entry from a complete advertisement restricts: the member
//     is contacted only when its advertisement intersects the query.
//   - A fresh entry learned opportunistically (from a fragment-query or
//     feasibility reply, which proves presence but not absence) always
//     includes the member.
//   - An expired entry excludes the member: it stopped advertising for a
//     full TTL and is presumed dead. This is what guarantees that a
//     crashed host's stale advertisement never routes a solicitation
//     past the TTL horizon — the failure-detection half of the index.
//   - An empty selection also falls back to broadcast (counted as a
//     miss): "nobody advertises this" must never silently become "ask
//     nobody".
//
// RouteByLabels goes one step further for fragment queries: it also says
// what to ask each selected member — the frontier labels its complete
// advertisement lists, or the whole frontier for a partial entry.
//
// The index is driven entirely by the injected clock, so every TTL
// property is testable on the simulated clock without wall time.
package discovery

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// DefaultTTL is how long an advertisement stays fresh without a refresh.
const DefaultTTL = 30 * time.Second

// entry is one member's advertised capability set.
type entry struct {
	labels map[model.LabelID]struct{}
	tasks  map[model.TaskID]struct{}
	// complete marks a full advertisement (the member enumerated its
	// whole capability set) as opposed to an opportunistic partial
	// observation, which proves presence but not absence.
	complete bool
	// expires is when the entry lapses; an entry is fresh strictly
	// before it (an ad expires exactly at TTL, not after).
	expires time.Time
}

// Index is a per-community capability index. It is safe for concurrent
// use: the host's transport pump records observations while engine
// sessions select members.
type Index struct {
	clk clock.Clock
	ttl time.Duration

	mu      sync.Mutex
	entries map[proto.Addr]*entry

	hits     atomic.Int64
	misses   atomic.Int64
	excluded atomic.Int64
	ads      atomic.Int64
	partials atomic.Int64
}

// Stats is a snapshot of the index counters.
type Stats struct {
	// Hits counts selections the index restricted.
	Hits int64
	// Misses counts selections that fell back to full broadcast (cold
	// start, a never-seen member, or an empty selection).
	Misses int64
	// Excluded counts members skipped because their entry had expired
	// past the TTL horizon (presumed dead).
	Excluded int64
	// Ads counts complete advertisements observed (Advertise bodies and
	// AdvertiseAck piggybacks).
	Ads int64
	// Partials counts opportunistic partial observations folded in.
	Partials int64
	// Entries is the current number of members with an entry.
	Entries int
}

// New returns an empty index on the given clock. ttl <= 0 selects
// DefaultTTL.
func New(clk clock.Clock, ttl time.Duration) *Index {
	if clk == nil {
		clk = clock.New()
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Index{clk: clk, ttl: ttl, entries: make(map[proto.Addr]*entry)}
}

// TTL returns the index's advertisement time-to-live.
func (x *Index) TTL() time.Duration { return x.ttl }

// ObserveAdvertise folds in a complete advertisement from a member: the
// entry's capability set is replaced (capabilities may shrink) and its
// TTL restarts.
func (x *Index) ObserveAdvertise(from proto.Addr, labels []model.LabelID, tasks []model.TaskID) {
	x.ads.Add(1)
	e := &entry{
		labels:   make(map[model.LabelID]struct{}, len(labels)),
		tasks:    make(map[model.TaskID]struct{}, len(tasks)),
		complete: true,
		expires:  x.clk.Now().Add(x.ttl),
	}
	for _, l := range labels {
		e.labels[l] = struct{}{}
	}
	for _, t := range tasks {
		e.tasks[t] = struct{}{}
	}
	x.mu.Lock()
	x.entries[from] = e
	x.mu.Unlock()
}

// ObservePartial folds in an opportunistic observation — a member that
// answered a fragment query or feasibility query just proved it holds
// these capabilities and is alive. The observation merges into the
// existing entry and extends its TTL; with no existing entry it creates
// an incomplete one (the member may hold more than it just showed).
func (x *Index) ObservePartial(from proto.Addr, labels []model.LabelID, tasks []model.TaskID) {
	x.partials.Add(1)
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.observedLocked(from, now)
	for _, l := range labels {
		e.labels[l] = struct{}{}
	}
	for _, t := range tasks {
		e.tasks[t] = struct{}{}
	}
}

// ObserveFragments is ObservePartial for a fragment reply: the input
// labels of every returned fragment fold straight into the member's
// entry under one lock, with no intermediate label list.
func (x *Index) ObserveFragments(from proto.Addr, frags []*model.Fragment) {
	x.partials.Add(1)
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	e := x.observedLocked(from, now)
	for _, f := range frags {
		for _, t := range f.Tasks {
			for _, in := range t.Inputs {
				e.labels[in] = struct{}{}
			}
		}
	}
}

// observedLocked returns the entry a partial observation of from at now
// merges into, with its TTL restarted. With no entry, or only a lapsed
// one, it starts a fresh incomplete entry: a lapsed complete ad does not
// still bound the member's capabilities — they could have changed while
// it was presumed dead. Callers hold x.mu.
func (x *Index) observedLocked(from proto.Addr, now time.Time) *entry {
	e, ok := x.entries[from]
	if !ok || now.Compare(e.expires) >= 0 {
		e = &entry{
			labels: make(map[model.LabelID]struct{}),
			tasks:  make(map[model.TaskID]struct{}),
		}
		x.entries[from] = e
	}
	e.expires = now.Add(x.ttl)
	return e
}

// Forget drops a member's entry, forcing the next selection involving it
// back to full broadcast (membership change, or a test forcing a miss).
func (x *Index) Forget(addr proto.Addr) {
	x.mu.Lock()
	delete(x.entries, addr)
	x.mu.Unlock()
}

// Reset wipes every entry (host crash/restart loses volatile state).
func (x *Index) Reset() {
	x.mu.Lock()
	x.entries = make(map[proto.Addr]*entry)
	x.mu.Unlock()
}

// SelectByLabels returns the members of candidates worth asking a
// fragment query for the given labels. ok is false when the index cannot
// restrict (cold start, a never-seen candidate, or an empty selection)
// and the caller must fall back to the full candidate list. Candidate
// order is preserved.
func (x *Index) SelectByLabels(candidates []proto.Addr, labels []model.LabelID) ([]proto.Addr, bool) {
	// Pre-size to the candidate list: one allocation per lookup, pinned
	// by the route-lookup AllocBound test (this runs once per query hop).
	selected := make([]proto.Addr, 0, len(candidates))
	known := x.walk(candidates, func(c proto.Addr, e *entry) {
		if !e.complete || e.anyLabel(labels) {
			selected = append(selected, c)
		}
	})
	if !x.settle(known, len(selected)) {
		return nil, false
	}
	return selected, true
}

// Route is one member a fragment query goes to and the frontier labels
// worth asking it.
type Route struct {
	Member proto.Addr
	Labels []model.LabelID
}

// RouteByLabels is SelectByLabels that also trims the query per member:
// a fresh complete entry is asked only the labels its advertisement
// lists, in frontier order, and a partial entry the whole frontier (it
// proves presence, not absence). A member with a complete ad consumes
// nothing else, so its reply is exactly what the whole frontier would
// have returned. Routes share the labels slice and one backing array;
// callers must not modify them. The fallback contract is
// SelectByLabels'.
func (x *Index) RouteByLabels(candidates []proto.Addr, labels []model.LabelID) ([]Route, bool) {
	routes := make([]Route, 0, len(candidates))
	// Sized for the two common shapes in one allocation: each frontier
	// label has about one consumer (every fragment lives on one member),
	// or each member consumes about one frontier label.
	trimmed := make([]model.LabelID, 0, max(len(labels), len(candidates)))
	known := x.walk(candidates, func(c proto.Addr, e *entry) {
		if !e.complete {
			routes = append(routes, Route{Member: c, Labels: labels})
			return
		}
		start := len(trimmed)
		for _, l := range labels {
			if _, ok := e.labels[l]; ok {
				trimmed = append(trimmed, l)
			}
		}
		// A later append may move trimmed; this route keeps the array
		// it was carved from, whose first len(trimmed) slots never change.
		if end := len(trimmed); end > start {
			routes = append(routes, Route{Member: c, Labels: trimmed[start:end:end]})
		}
	})
	if !x.settle(known, len(routes)) {
		return nil, false
	}
	return routes, true
}

// SelectByTasks returns the members of candidates worth soliciting for
// the given tasks, with the same fallback contract as SelectByLabels.
func (x *Index) SelectByTasks(candidates []proto.Addr, tasks []model.TaskID) ([]proto.Addr, bool) {
	selected := make([]proto.Addr, 0, len(candidates))
	known := x.walk(candidates, func(c proto.Addr, e *entry) {
		if !e.complete || e.anyTask(tasks) {
			selected = append(selected, c)
		}
	})
	if !x.settle(known, len(selected)) {
		return nil, false
	}
	return selected, true
}

func (e *entry) anyLabel(labels []model.LabelID) bool {
	for _, l := range labels {
		if _, ok := e.labels[l]; ok {
			return true
		}
	}
	return false
}

func (e *entry) anyTask(tasks []model.TaskID) bool {
	for _, t := range tasks {
		if _, ok := e.tasks[t]; ok {
			return true
		}
	}
	return false
}

// walk visits the fresh entry of every candidate, in candidate order and
// under the lock. A lapsed entry is skipped and counted as excluded: the
// member stopped advertising for a full TTL and is presumed dead. walk
// stops and reports false at the first candidate with no entry at all.
func (x *Index) walk(candidates []proto.Addr, visit func(proto.Addr, *entry)) bool {
	now := x.clk.Now()
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, c := range candidates {
		e, ok := x.entries[c]
		if !ok {
			return false
		}
		if now.Compare(e.expires) >= 0 {
			x.excluded.Add(1)
			continue
		}
		visit(c, e)
	}
	return true
}

// settle counts a selection of n members after a walk: a hit when every
// candidate was known and someone was selected, otherwise a miss that
// tells the caller to broadcast.
func (x *Index) settle(known bool, n int) bool {
	if !known || n == 0 {
		x.misses.Add(1)
		return false
	}
	x.hits.Add(1)
	return true
}

// Fresh reports whether the member currently has an unexpired entry.
func (x *Index) Fresh(addr proto.Addr) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	e, ok := x.entries[addr]
	return ok && x.clk.Now().Compare(e.expires) < 0
}

// Known returns the members with any entry (fresh or lapsed), sorted.
func (x *Index) Known() []proto.Addr {
	x.mu.Lock()
	out := make([]proto.Addr, 0, len(x.entries))
	for a := range x.entries {
		out = append(out, a)
	}
	x.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats returns a snapshot of the index counters.
func (x *Index) Stats() Stats {
	x.mu.Lock()
	n := len(x.entries)
	x.mu.Unlock()
	return Stats{
		Hits:     x.hits.Load(),
		Misses:   x.misses.Load(),
		Excluded: x.excluded.Load(),
		Ads:      x.ads.Load(),
		Partials: x.partials.Load(),
		Entries:  n,
	}
}

// Add merges another snapshot into s (community-wide aggregation).
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Excluded += o.Excluded
	s.Ads += o.Ads
	s.Partials += o.Partials
	s.Entries += o.Entries
}
