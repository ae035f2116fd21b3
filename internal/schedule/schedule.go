// Package schedule implements the Schedule Manager, the keystone component
// of the execution subsystem (§4.2): it manages a host's availability by
// tracking its location, schedule, and scheduling preferences, and
// maintains the database of commitments — scheduled service invocations
// with their location and travel-time details — that drives both
// allocation (can this host bid?) and execution (when must it travel?).
//
// # Arbitration between concurrent allocation sessions
//
// A host carries several allocation sessions at once (one per open
// workflow), and their auctions race for the same calendar. The manager
// arbitrates deterministically:
//
//   - First-hold-wins. Every hold is stamped with a monotonically
//     increasing sequence number when it is taken; a request that
//     overlaps an earlier hold or commitment fails with ErrSlotBusy and
//     never evicts the earlier reservation. The losing session receives
//     a clean decline (its participant answers the call for bids with a
//     Decline) instead of a stale commitment.
//   - Conflicts are attributed deterministically: when a request
//     overlaps several busy intervals, the reported blocker is the one
//     with the lowest hold sequence (the first winner), so identical
//     interleavings produce identical errors.
//   - Readers never block writers of other time regions: the calendar
//     is sharded (see below), so lookups and reservations contend only
//     when they touch the same slice of the timeline.
//
// # Sharding
//
// The calendar is split two ways so concurrent sessions stop serializing
// on one lock (DESIGN.md §14):
//
//   - Band shards partition the timeline: every busy interval
//     [TravelStart, End) is registered in the shard of each time band it
//     touches (band = start quantized to Tuning.BandWidth, band mod
//     Tuning.Shards selects the shard). Two intervals can only overlap
//     if they share a band, so a conflict scan locks exactly the shards
//     the candidate interval spans — sessions bidding into different
//     window bands proceed in parallel.
//   - Key shards partition the (workflow, task) namespace for the
//     bookkeeping that is keyed rather than timed: duplicate-hold
//     checks, refreshes, conversions, releases, and lease state.
//
// Every operation acquires key shards before band shards, and shards of
// each kind in ascending index order, so multi-shard operations
// (HoldBatch, expiry sweeps, Clear) are deadlock-free by construction.
// The arbitration sequence is a single atomic counter, so first-hold-wins
// ordering and deterministic conflict attribution survive sharding: a
// serial sequence of operations produces byte-identical results whatever
// the shard count (the cross-shard property test pins a sharded manager
// against a Tuning{Shards: 1} oracle).
package schedule

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
)

// Commitment is a promise to perform one service invocation: the task, its
// execution window, the location, and the travel block preceding it. Once
// made, a commitment is the host's responsibility; the host is free to
// roam but must meet it (§3.2).
type Commitment struct {
	// Workflow and Task identify the committed work.
	Workflow string
	Task     model.TaskID
	// Start and End bound the service execution window.
	Start, End time.Time
	// Location is where the service must be performed.
	Location    space.Point
	HasLocation bool
	// TravelStart is when the host must begin traveling to reach
	// Location by Start (equal to Start when no travel is needed).
	TravelStart time.Time
	// Meta retains the full task metadata from the award.
	Meta proto.TaskMeta
}

// key identifies a commitment or hold.
type key struct {
	workflow string
	task     model.TaskID
}

// record is one busy interval on the calendar — a firm-bid hold or a
// commitment. The interval fields (c, seq, mask) are immutable after the
// record is published to its band shards; the lifecycle fields (expiry,
// lease) are guarded by the key shard that owns the record's key.
type record struct {
	c Commitment
	// seq is the arbitration sequence (lower = earlier = wins conflicts).
	seq uint64
	// mask is the set of band shards the busy interval is registered in.
	mask uint64
	// expiry is the hold deadline (holds only).
	expiry time.Time
	// lease is the commitment's lease expiry; zero means the commitment
	// never expires (lease-less commit, kept for direct scheduling).
	lease time.Time
}

// Preferences expresses a participant's willingness (§3.2, condition 5):
// hosts only bid on work they are willing to do.
type Preferences struct {
	// Willing, when non-nil, is consulted per task; returning false
	// declines the work.
	Willing func(meta proto.TaskMeta) bool
	// MaxCommitments, when positive, caps concurrent commitments plus
	// holds (a simple workload preference).
	MaxCommitments int
}

// DefaultBandWidth is the default time-band quantum for the calendar
// shards: on the order of a task window, so sessions retrying into
// postponed window bands land on different shards.
const DefaultBandWidth = time.Minute

// DefaultShards is the default shard count (bands and keys alike).
const DefaultShards = 16

// maxShards bounds the shard count so a band-shard set fits one uint64
// bitmask (lock sets and registration masks stay allocation-free).
const maxShards = 64

// Tuning configures the calendar's sharding. The zero value selects the
// defaults; Shards: 1 degenerates to a single lock (the unsharded
// oracle used by differential tests and benchmark control rows).
type Tuning struct {
	// BandWidth is the time-band quantum busy intervals are bucketed by.
	BandWidth time.Duration
	// Shards is the number of band shards and key shards (rounded up to
	// a power of two, capped at 64).
	Shards int
}

func (t Tuning) normalized() Tuning {
	if t.BandWidth <= 0 {
		t.BandWidth = DefaultBandWidth
	}
	if t.Shards <= 0 {
		t.Shards = DefaultShards
	}
	if t.Shards > maxShards {
		t.Shards = maxShards
	}
	n := 1
	for n < t.Shards {
		n <<= 1
	}
	t.Shards = n
	return t
}

// keyShard owns the keyed bookkeeping for a slice of the (workflow, task)
// namespace.
type keyShard struct {
	mu      sync.RWMutex
	holds   map[key]*record
	commits map[key]*record
}

// bandShard owns the busy intervals registered in a slice of the
// timeline's bands.
type bandShard struct {
	mu      sync.RWMutex
	entries map[key]*record
}

// Manager tracks one host's calendar and position. It is safe for
// concurrent use by any number of allocation sessions.
type Manager struct {
	clk      clock.Clock
	mobility space.Mobility
	prefs    Preferences

	bandWidth time.Duration
	nshards   int
	allMask   uint64

	// seq is the arbitration counter; atomic so first-hold-wins survives
	// sharding without a global lock.
	seq atomic.Uint64
	// busy counts holds plus commitments; MaxCommitments reserves
	// against it with a CAS so the cap is never exceeded even when
	// requests run on disjoint shards.
	busy atomic.Int64

	keys  []keyShard
	bands []bandShard
}

// NewManager returns a schedule manager with default sharding for a host
// with the given mobility model and preferences. A nil mobility means a
// static host at the origin.
func NewManager(clk clock.Clock, mobility space.Mobility, prefs Preferences) *Manager {
	return NewManagerTuned(clk, mobility, prefs, Tuning{})
}

// NewManagerTuned is NewManager with explicit shard tuning.
func NewManagerTuned(clk clock.Clock, mobility space.Mobility, prefs Preferences, tune Tuning) *Manager {
	if clk == nil {
		clk = clock.New()
	}
	if mobility == nil {
		mobility = space.Static{}
	}
	tune = tune.normalized()
	m := &Manager{
		clk:       clk,
		mobility:  mobility,
		prefs:     prefs,
		bandWidth: tune.BandWidth,
		nshards:   tune.Shards,
		keys:      make([]keyShard, tune.Shards),
		bands:     make([]bandShard, tune.Shards),
	}
	if tune.Shards == maxShards {
		m.allMask = ^uint64(0)
	} else {
		m.allMask = (uint64(1) << tune.Shards) - 1
	}
	for i := range m.keys {
		m.keys[i].holds = make(map[key]*record)
		m.keys[i].commits = make(map[key]*record)
	}
	for i := range m.bands {
		m.bands[i].entries = make(map[key]*record)
	}
	return m
}

// Mobility returns the host's mobility model.
func (m *Manager) Mobility() space.Mobility { return m.mobility }

// Position returns the host's current position.
func (m *Manager) Position() space.Point { return m.mobility.Position(m.clk.Now()) }

// --- shard selection ---

// keyIndex hashes a key to its key shard (FNV-1a, allocation-free).
func (m *Manager) keyIndex(k key) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.workflow); i++ {
		h ^= uint64(k.workflow[i])
		h *= prime64
	}
	h ^= 0xff // separator so ("ab","c") and ("a","bc") differ
	h *= prime64
	for i := 0; i < len(k.task); i++ {
		h ^= uint64(k.task[i])
		h *= prime64
	}
	return int(h & uint64(m.nshards-1))
}

// bandOf quantizes an instant to its time band (floor division, so the
// mapping is consistent on both sides of the epoch).
func (m *Manager) bandOf(t time.Time) int64 {
	ns := t.UnixNano()
	w := int64(m.bandWidth)
	b := ns / w
	if ns%w != 0 && ns < 0 {
		b--
	}
	return b
}

// bandMask returns the set of band shards a busy interval [start, end)
// touches. An interval spanning at least nshards bands covers every
// shard.
func (m *Manager) bandMask(start, end time.Time) uint64 {
	lo := m.bandOf(start)
	hi := m.bandOf(end.Add(-time.Nanosecond))
	if hi < lo {
		hi = lo
	}
	if hi-lo+1 >= int64(m.nshards) {
		return m.allMask
	}
	var mask uint64
	for b := lo; b <= hi; b++ {
		mask |= uint64(1) << (uint64(b) & uint64(m.nshards-1))
	}
	return mask
}

// lockBands write-locks the band shards in mask in ascending order.
func (m *Manager) lockBands(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			m.bands[i].mu.Lock()
		}
		mask >>= 1
	}
}

func (m *Manager) unlockBands(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			m.bands[i].mu.Unlock()
		}
		mask >>= 1
	}
}

// rlockBands read-locks the band shards in mask in ascending order.
func (m *Manager) rlockBands(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			m.bands[i].mu.RLock()
		}
		mask >>= 1
	}
}

func (m *Manager) runlockBands(mask uint64) {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			m.bands[i].mu.RUnlock()
		}
		mask >>= 1
	}
}

// registerBands publishes a record to the band shards in its mask.
// Callers hold every shard in the mask.
func (m *Manager) registerBands(k key, r *record) {
	mask := r.mask
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			m.bands[i].entries[k] = r
		}
		mask >>= 1
	}
}

// unregisterBands removes a record from the band shards in its mask.
// Callers hold every shard in the mask.
func (m *Manager) unregisterBands(k key, r *record) {
	mask := r.mask
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			delete(m.bands[i].entries, k)
		}
		mask >>= 1
	}
}

// dropBands acquires the record's band shards and unregisters it. Callers
// hold the record's key shard (key locks always precede band locks).
func (m *Manager) dropBands(k key, r *record) {
	m.lockBands(r.mask)
	m.unregisterBands(k, r)
	m.unlockBands(r.mask)
}

// --- capacity ---

// reserveCapacity claims one calendar slot against MaxCommitments with a
// CAS, so the cap is exact even across disjoint shards. The reservation
// must be returned with releaseCapacity if no record is inserted.
func (m *Manager) reserveCapacity() error {
	max := int64(m.prefs.MaxCommitments)
	if max <= 0 {
		m.busy.Add(1)
		return nil
	}
	for {
		cur := m.busy.Load()
		if cur >= max {
			return fmt.Errorf("at commitment capacity (%d)", max)
		}
		if m.busy.CompareAndSwap(cur, cur+1) {
			return nil
		}
	}
}

func (m *Manager) releaseCapacity() { m.busy.Add(-1) }

// capacityMode is how a plan treats the MaxCommitments cap.
type capacityMode uint8

const (
	// capCheck fails a plan at capacity and reserves nothing.
	capCheck capacityMode = iota
	// capReserve reserves one slot for a new record; the caller inserts
	// the record or returns the slot with releaseCapacity.
	capReserve
	// capCarry reuses the slot of the record the plan replaces.
	capCarry
)

// --- planning ---

// CanCommit evaluates whether the host could commit to the task described
// by meta (§3.2 conditions 2–5: time available, travel feasible, inputs/
// outputs deliverable, willing). On success it returns the planned
// commitment (with its travel block). It does not reserve anything.
func (m *Manager) CanCommit(meta proto.TaskMeta) (Commitment, error) {
	lockMask := m.planMask(meta)
	m.rlockBands(lockMask)
	c, err := m.planUnder(meta, lockMask, capCheck)
	m.runlockBands(lockMask)
	return c, err
}

// ErrSlotBusy is wrapped in errors returned when a requested slot
// overlaps a reservation or commitment made by an earlier request.
// Arbitration is first-hold-wins: the earlier reservation stands and the
// later session must bid elsewhere or retry with a different window.
var ErrSlotBusy = errors.New("schedule: slot busy")

// SlotBusyError is the conflict a plan hit: Task overlaps the busy
// interval [BlockerStart, BlockerEnd) of BlockerTask in BlockerWorkflow,
// the earliest-sequenced record it overlaps. It unwraps to ErrSlotBusy.
// The message is formatted only when Error is called: the batched bid
// path declines conflicts without ever reading it.
type SlotBusyError struct {
	Task                     model.TaskID
	BlockerTask              model.TaskID
	BlockerWorkflow          string
	BlockerStart, BlockerEnd time.Time
}

func (e *SlotBusyError) Error() string {
	return fmt.Sprintf("%v: task %q conflicts with %q of workflow %q (%v–%v)",
		ErrSlotBusy, e.Task, e.BlockerTask, e.BlockerWorkflow, e.BlockerStart, e.BlockerEnd)
}

// Unwrap makes errors.Is(err, ErrSlotBusy) hold.
func (e *SlotBusyError) Unwrap() error { return ErrSlotBusy }

// planMask returns the band shards a plan for meta must hold: the
// candidate window's own span, or every shard when the meta is located —
// travel planning scans the whole calendar for the host's origin and may
// extend the busy interval into earlier bands.
func (m *Manager) planMask(meta proto.TaskMeta) uint64 {
	if meta.HasLocation || !meta.End.After(meta.Start) {
		return m.allMask
	}
	return m.bandMask(meta.Start, meta.End)
}

// planUnder evaluates §3.2 for one meta. Callers hold every band shard in
// lockMask, which must cover the busy interval of any feasible plan
// (planMask guarantees it). capacity says how the plan meets the
// MaxCommitments cap; a failed plan always returns a slot it reserved.
func (m *Manager) planUnder(meta proto.TaskMeta, lockMask uint64, capacity capacityMode) (Commitment, error) {
	if m.prefs.Willing != nil && !m.prefs.Willing(meta) {
		return Commitment{}, fmt.Errorf("unwilling to perform %q", meta.Task)
	}
	switch capacity {
	case capReserve:
		if err := m.reserveCapacity(); err != nil {
			return Commitment{}, err
		}
	case capCheck:
		if max := int64(m.prefs.MaxCommitments); max > 0 && m.busy.Load() >= max {
			return Commitment{}, fmt.Errorf("at commitment capacity (%d)", m.prefs.MaxCommitments)
		}
	}
	fail := func(err error) (Commitment, error) {
		if capacity == capReserve {
			m.releaseCapacity()
		}
		return Commitment{}, err
	}
	if !meta.End.After(meta.Start) {
		return fail(fmt.Errorf("task %q has an empty execution window", meta.Task))
	}

	c := Commitment{
		Workflow:    "", // set by caller wrappers
		Task:        meta.Task,
		Start:       meta.Start,
		End:         meta.End,
		Location:    meta.Location,
		HasLocation: meta.HasLocation,
		TravelStart: meta.Start,
		Meta:        meta,
	}

	if meta.HasLocation {
		from, depart := m.originUnder(lockMask, meta.Start)
		travel := space.TravelTime(from, meta.Location, m.mobility.Speed())
		if travel == time.Duration(1<<63-1) { // immobile and not already there
			if !space.Near(from, meta.Location, 1e-9) {
				return fail(fmt.Errorf("cannot travel to %v for %q", meta.Location, meta.Task))
			}
			travel = 0
		}
		c.TravelStart = meta.Start.Add(-travel)
		if c.TravelStart.Before(depart) {
			return fail(fmt.Errorf(
				"cannot reach %v by %v for %q (need to leave at %v, free at %v)",
				meta.Location, meta.Start, meta.Task, c.TravelStart, depart))
		}
		if c.TravelStart.Before(m.clk.Now()) {
			return fail(fmt.Errorf("too late to travel for %q", meta.Task))
		}
	} else if meta.Start.Before(m.clk.Now()) {
		return fail(fmt.Errorf("execution window for %q already started", meta.Task))
	}

	// The busy interval is [TravelStart, End); it must not overlap any
	// existing commitment or hold. Two intervals can only overlap if they
	// share a time band, so scanning the candidate's own band shards sees
	// every possible blocker. When several overlap, report the earliest
	// winner (lowest sequence) so arbitration is deterministic.
	var blocker *record
	scanMask := m.bandMask(c.TravelStart, c.End)
	for i, mask := 0, scanMask; mask != 0; i++ {
		if mask&1 != 0 {
			for _, r := range m.bands[i].entries {
				if !overlaps(c.TravelStart, c.End, r.c.TravelStart, r.c.End) {
					continue
				}
				if blocker == nil || r.seq < blocker.seq {
					blocker = r
				}
			}
		}
		mask >>= 1
	}
	if blocker != nil {
		return fail(&SlotBusyError{
			Task: meta.Task, BlockerTask: blocker.c.Task, BlockerWorkflow: blocker.c.Workflow,
			BlockerStart: blocker.c.TravelStart, BlockerEnd: blocker.c.End,
		})
	}
	return c, nil
}

// originUnder determines where the host will be (and from when it is
// free to leave) just before a window starting at t: the location of its
// latest commitment ending at or before t, or its current position.
// Callers hold every band shard in lockMask (the whole calendar for
// located plans). A record registered in several shards is visited more
// than once; the latest-ending fold is idempotent.
func (m *Manager) originUnder(lockMask uint64, t time.Time) (space.Point, time.Time) {
	origin := m.mobility.Position(m.clk.Now())
	free := m.clk.Now()
	for i, mask := 0, lockMask; mask != 0; i++ {
		if mask&1 != 0 {
			for _, r := range m.bands[i].entries {
				c := r.c
				if !c.End.After(t) && c.End.After(free) && c.HasLocation {
					origin = c.Location
					free = c.End
				}
			}
		}
		mask >>= 1
	}
	return origin, free
}

func overlaps(aStart, aEnd, bStart, bEnd time.Time) bool {
	return aStart.Before(bEnd) && bStart.Before(aEnd)
}

// ErrAlreadyHeld is returned by Hold when the slot for the same
// (workflow, task) is already reserved; the caller may refresh the
// reservation's deadline with RefreshHold and bid again.
var ErrAlreadyHeld = errors.New("schedule: already holding this task")

// Hold reserves the schedule slot for a firm bid until deadline: the
// bidder must be able to honor an award that arrives before then. The
// reservation is released by Release, converted by Commit, or expired by
// ExpireHolds. Holds are sequence-stamped in arrival order; an
// overlapping later Hold fails with ErrSlotBusy (first-hold-wins).
func (m *Manager) Hold(workflow string, meta proto.TaskMeta, deadline time.Time) (Commitment, error) {
	k := key{workflow, meta.Task}
	ks := &m.keys[m.keyIndex(k)]
	lockMask := m.planMask(meta)
	ks.mu.Lock()
	m.lockBands(lockMask)
	c, err := m.holdUnder(ks, k, workflow, meta, deadline, lockMask)
	m.unlockBands(lockMask)
	ks.mu.Unlock()
	return c, err
}

// holdUnder is the single reservation body shared by Hold and HoldBatch,
// so the per-task and batched protocols stay equivalent by construction.
// Callers hold the key shard ks (owning k) and every band shard in
// lockMask.
func (m *Manager) holdUnder(ks *keyShard, k key, workflow string, meta proto.TaskMeta, deadline time.Time, lockMask uint64) (Commitment, error) {
	if _, dup := ks.holds[k]; dup {
		return Commitment{}, fmt.Errorf("%w: %q in workflow %q", ErrAlreadyHeld, meta.Task, workflow)
	}
	if _, dup := ks.commits[k]; dup {
		return Commitment{}, fmt.Errorf("already committed to %q in workflow %q", meta.Task, workflow)
	}
	c, err := m.planUnder(meta, lockMask, capReserve)
	if err != nil {
		return Commitment{}, err
	}
	c.Workflow = workflow
	r := &record{c: c, seq: m.seq.Add(1), mask: m.bandMask(c.TravelStart, c.End), expiry: deadline}
	ks.holds[k] = r
	m.registerBands(k, r)
	return c, nil
}

// HoldResult is one task's outcome of a HoldBatch: the reserved (or
// refreshed) commitment, or the error that declined it.
type HoldResult struct {
	Commitment Commitment
	Err        error
}

// HoldBatch reserves schedule slots for a whole batched call for bids
// under one lock acquisition: each meta is evaluated in order with
// exactly the per-task Hold semantics — earlier successes in the batch
// count as busy intervals for later metas, first-hold-wins arbitration
// against other sessions is unchanged, and a meta whose (workflow, task)
// is already held refreshes that hold's deadline instead of failing
// (the replanning re-solicitation path, like Hold + RefreshHold). Results
// are per task: a failed meta leaves no reservation behind while the
// rest of the batch proceeds, so a partially-infeasible batch yields
// partial declines, never leaked holds.
//
// The batch acquires every key and band shard it can touch up front, in
// sorted order (keys before bands, ascending within each kind), which is
// what makes a participant's answer to a CallForBidsBatch atomic: no
// competing session can interleave a reservation between two tasks of
// the same batch, and no lock-order cycle can arise against other
// multi-shard operations.
func (m *Manager) HoldBatch(workflow string, metas []proto.TaskMeta, deadline time.Time) []HoldResult {
	var keyMask, bandMask uint64
	for _, meta := range metas {
		keyMask |= uint64(1) << uint64(m.keyIndex(key{workflow, meta.Task}))
		bandMask |= m.planMask(meta)
	}
	for i, mask := 0, keyMask; mask != 0; i++ {
		if mask&1 != 0 {
			m.keys[i].mu.Lock()
		}
		mask >>= 1
	}
	m.lockBands(bandMask)

	out := make([]HoldResult, len(metas))
	for i, meta := range metas {
		k := key{workflow, meta.Task}
		ks := &m.keys[m.keyIndex(k)]
		// Refresh-on-existing-hold replaces the per-task path's
		// Hold → ErrAlreadyHeld → RefreshHold round, keeping the
		// original arbitration sequence.
		if r, dup := ks.holds[k]; dup {
			r.expiry = deadline
			out[i] = HoldResult{Commitment: r.c}
			continue
		}
		c, err := m.holdUnder(ks, k, workflow, meta, deadline, bandMask)
		out[i] = HoldResult{Commitment: c, Err: err}
	}

	m.unlockBands(bandMask)
	for i, mask := 0, keyMask; mask != 0; i++ {
		if mask&1 != 0 {
			m.keys[i].mu.Unlock()
		}
		mask >>= 1
	}
	return out
}

// RefreshHold extends an existing reservation's deadline and returns the
// held commitment. The reservation keeps its original arbitration
// sequence: refreshing never lets a session jump the queue. It fails if
// no hold exists.
func (m *Manager) RefreshHold(workflow string, task model.TaskID, deadline time.Time) (Commitment, error) {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	r, ok := ks.holds[k]
	if !ok {
		return Commitment{}, fmt.Errorf("no hold for %q in workflow %q", task, workflow)
	}
	r.expiry = deadline
	return r.c, nil
}

// ErrNoHold is returned by CommitHeld when no live hold backs the
// commitment: the firm bid's reservation expired (or was released)
// before the award arrived.
var ErrNoHold = errors.New("schedule: no live hold")

// Commit converts a hold into a firm commitment (on award), leased until
// lease (the zero time means the commitment never expires). Committing
// without a prior hold plans the commitment fresh, failing (ErrSlotBusy)
// if the slot has meanwhile been reserved by another session. The
// auction path never takes the fresh-plan branch — participants use
// CommitHeld so a stale award cannot land on a slot whose hold expired —
// but direct scheduling (tests, pre-planned calendars) keeps it.
//
// Committing a (workflow, task) that is already committed replaces the
// old commitment: the old record neither blocks nor serves as a travel
// origin for the new plan, and its capacity slot carries over to the new
// record. A plan that fails leaves the old commitment in place.
func (m *Manager) Commit(workflow string, meta proto.TaskMeta, lease time.Time) (Commitment, error) {
	k := key{workflow, meta.Task}
	ks := &m.keys[m.keyIndex(k)]
	lockMask := m.planMask(meta)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if r, ok := ks.holds[k]; ok {
		return m.convertHold(ks, k, r, lease), nil
	}
	capacity, held := capReserve, lockMask
	old := ks.commits[k]
	if old != nil {
		capacity, held = capCarry, lockMask|old.mask
	}
	m.lockBands(held)
	defer m.unlockBands(held)
	if old != nil {
		m.unregisterBands(k, old)
	}
	c, err := m.planUnder(meta, lockMask, capacity)
	if err != nil {
		if old != nil {
			m.registerBands(k, old)
		}
		return Commitment{}, err
	}
	c.Workflow = workflow
	r := &record{c: c, seq: m.seq.Add(1), mask: m.bandMask(c.TravelStart, c.End), lease: lease}
	ks.commits[k] = r
	m.registerBands(k, r)
	return c, nil
}

// CommitHeld converts a live hold into a leased commitment and fails
// with ErrNoHold when the hold is gone — the award arrived after the
// firm bid's reservation expired, so under lease semantics it must be
// refused (the slot may meanwhile back a rival's fresh hold, and even a
// still-free slot belongs to whoever holds it next, not to a stale
// award).
func (m *Manager) CommitHeld(workflow string, task model.TaskID, lease time.Time) (Commitment, error) {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	r, ok := ks.holds[k]
	if !ok {
		return Commitment{}, fmt.Errorf("%w for %q in workflow %q (bid window expired before the award)", ErrNoHold, task, workflow)
	}
	return m.convertHold(ks, k, r, lease), nil
}

// convertHold converts one live hold into a commitment with the given
// lease. The record keeps its band registrations (the busy interval is
// unchanged) and its arbitration sequence. Callers hold ks.mu.
func (m *Manager) convertHold(ks *keyShard, k key, r *record, lease time.Time) Commitment {
	delete(ks.holds, k)
	r.expiry = time.Time{}
	r.lease = lease
	ks.commits[k] = r
	return r.c
}

// RefreshCommitLease extends a commitment's lease (the initiator's
// engine refreshes its executors' leases for the lifetime of the
// execution). It fails when the commitment does not exist — the lease
// already expired and was swept, or the task was never committed here —
// which tells the refresher that this executor no longer backs the task.
func (m *Manager) RefreshCommitLease(workflow string, task model.TaskID, lease time.Time) error {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	r, ok := ks.commits[k]
	if !ok {
		return fmt.Errorf("no commitment for %q in workflow %q", task, workflow)
	}
	r.lease = lease
	return nil
}

// ExpireCommitments removes every commitment whose lease has passed and
// returns them (sorted by start time, then task) so the caller can
// release dependent state (execution runs, buffered labels). Lease-less
// commitments never expire. This is the sweep that returns a dead
// initiator's slots to the pool: when nobody refreshes the lease, the
// calendar heals by itself. Key shards are swept in ascending order and
// each record's band shards are acquired in ascending order.
func (m *Manager) ExpireCommitments(now time.Time) []Commitment {
	var out []Commitment
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.Lock()
		for k, r := range ks.commits {
			if !r.lease.IsZero() && now.After(r.lease) {
				out = append(out, r.c)
				delete(ks.commits, k)
				m.dropBands(k, r)
				m.releaseCapacity()
			}
		}
		ks.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// NextExpiry returns the earliest deadline on the calendar — a hold's
// bid deadline or a commitment's lease — if any record has one
// (lease-less commitments never expire). The host re-arms its expiry
// timer from it after each sweep.
func (m *Manager) NextExpiry() (time.Time, bool) {
	var next time.Time
	found := false
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.RLock()
		for _, r := range ks.holds {
			if !found || r.expiry.Before(next) {
				next, found = r.expiry, true
			}
		}
		for _, r := range ks.commits {
			if !r.lease.IsZero() && (!found || r.lease.Before(next)) {
				next, found = r.lease, true
			}
		}
		ks.mu.RUnlock()
	}
	return next, found
}

// Release drops a hold without committing (the auction was lost).
func (m *Manager) Release(workflow string, task model.TaskID) {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	r, ok := ks.holds[k]
	if !ok {
		return
	}
	delete(ks.holds, k)
	m.dropBands(k, r)
	m.releaseCapacity()
}

// ReleaseWorkflow drops every hold of one workflow (session teardown,
// e.g. after the session's auction failed wholesale) and returns how many
// were released. Commitments are untouched; they are revoked per task by
// Remove on compensation.
func (m *Manager) ReleaseWorkflow(workflow string) int {
	n := 0
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.Lock()
		for k, r := range ks.holds {
			if k.workflow == workflow {
				delete(ks.holds, k)
				m.dropBands(k, r)
				m.releaseCapacity()
				n++
			}
		}
		ks.mu.Unlock()
	}
	return n
}

// ExpireHolds releases every hold whose deadline has passed and returns
// how many were released. Key shards are swept in ascending order and
// each record's band shards are acquired in ascending order, so the
// sweep can never deadlock against in-flight reservations.
func (m *Manager) ExpireHolds(now time.Time) int {
	n := 0
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.Lock()
		for k, r := range ks.holds {
			if now.After(r.expiry) {
				delete(ks.holds, k)
				m.dropBands(k, r)
				m.releaseCapacity()
				n++
			}
		}
		ks.mu.Unlock()
	}
	return n
}

// Remove cancels a commitment (compensation during replanning). It
// reports whether the commitment existed.
func (m *Manager) Remove(workflow string, task model.TaskID) bool {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	r, ok := ks.commits[k]
	if !ok {
		return false
	}
	delete(ks.commits, k)
	m.dropBands(k, r)
	m.releaseCapacity()
	return true
}

// Get returns the commitment for a task, if any.
func (m *Manager) Get(workflow string, task model.TaskID) (Commitment, bool) {
	k := key{workflow, task}
	ks := &m.keys[m.keyIndex(k)]
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	if r, ok := ks.commits[k]; ok {
		return r.c, true
	}
	return Commitment{}, false
}

// Commitments returns all commitments ordered by start time (then task).
func (m *Manager) Commitments() []Commitment {
	var out []Commitment
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.RLock()
		for _, r := range ks.commits {
			out = append(out, r.c)
		}
		ks.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Task < out[j].Task
	})
	return out
}

// Holds returns the number of outstanding firm-bid reservations.
func (m *Manager) Holds() int {
	n := 0
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.RLock()
		n += len(ks.holds)
		ks.mu.RUnlock()
	}
	return n
}

// HeldTasks returns the (workflow, task) pairs currently reserved,
// ordered by arbitration sequence (first winner first). Diagnostic: the
// stress harness uses it to attribute leaked holds.
func (m *Manager) HeldTasks() []Commitment {
	var hs []*record
	for i := range m.keys {
		ks := &m.keys[i]
		ks.mu.RLock()
		for _, r := range ks.holds {
			hs = append(hs, r)
		}
		ks.mu.RUnlock()
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].seq < hs[j].seq })
	out := make([]Commitment, len(hs))
	for i, r := range hs {
		out[i] = r.c
	}
	return out
}

// Clear removes every commitment and hold (used between evaluation runs).
// Every shard is acquired in the global order (keys ascending, then
// bands ascending) so Clear is atomic against all other operations.
func (m *Manager) Clear() {
	for i := range m.keys {
		m.keys[i].mu.Lock()
	}
	m.lockBands(m.allMask)
	for i := range m.keys {
		m.keys[i].holds = make(map[key]*record)
		m.keys[i].commits = make(map[key]*record)
	}
	for i := range m.bands {
		m.bands[i].entries = make(map[key]*record)
	}
	m.busy.Store(0)
	m.unlockBands(m.allMask)
	for i := len(m.keys) - 1; i >= 0; i-- {
		m.keys[i].mu.Unlock()
	}
}
