package schedule

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
	"openwf/internal/testutil"
)

func TestTuningNormalized(t *testing.T) {
	cases := []struct {
		in        Tuning
		shards    int
		bandWidth time.Duration
	}{
		{Tuning{}, DefaultShards, DefaultBandWidth},
		{Tuning{Shards: 1}, 1, DefaultBandWidth},
		{Tuning{Shards: 3}, 4, DefaultBandWidth},
		{Tuning{Shards: 17, BandWidth: time.Second}, 32, time.Second},
		{Tuning{Shards: 1000}, maxShards, DefaultBandWidth},
		{Tuning{Shards: -5, BandWidth: -time.Second}, DefaultShards, DefaultBandWidth},
	}
	for _, tc := range cases {
		got := tc.in.normalized()
		if got.Shards != tc.shards || got.BandWidth != tc.bandWidth {
			t.Errorf("normalized(%+v) = %+v, want Shards=%d BandWidth=%v",
				tc.in, got, tc.shards, tc.bandWidth)
		}
	}
}

func TestBandMaskSpansBoundaries(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	// A window inside one band touches exactly one shard bit.
	one := m.bandMask(t0, t0.Add(30*time.Second))
	if n := popcount(one); n != 1 {
		t.Errorf("sub-band window mask has %d bits, want 1", n)
	}
	// A window straddling a band boundary touches two.
	two := m.bandMask(t0.Add(45*time.Second), t0.Add(75*time.Second))
	if n := popcount(two); n != 2 {
		t.Errorf("boundary-straddling mask has %d bits, want 2", n)
	}
	// A window end exactly on a boundary does not touch the next band
	// (intervals are half-open).
	edge := m.bandMask(t0.Add(30*time.Second), t0.Add(time.Minute))
	if n := popcount(edge); n != 1 {
		t.Errorf("boundary-ending mask has %d bits, want 1", n)
	}
	// A window wider than the whole ring touches every shard.
	all := m.bandMask(t0, t0.Add(time.Duration(m.nshards+1)*m.bandWidth))
	if all != m.allMask {
		t.Errorf("ring-spanning mask = %x, want allMask %x", all, m.allMask)
	}
}

func popcount(mask uint64) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		n++
	}
	return n
}

// errString collapses an error to a comparable string ("" for nil) so
// the differential test can require byte-identical failures — including
// conflict attribution, which names the blocking workflow and task.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// calendar is the surface the calendar property test drives: *Manager
// and the reference calendar both implement it.
type calendar interface {
	CanCommit(meta proto.TaskMeta) (Commitment, error)
	Hold(workflow string, meta proto.TaskMeta, deadline time.Time) (Commitment, error)
	HoldBatch(workflow string, metas []proto.TaskMeta, deadline time.Time) []HoldResult
	RefreshHold(workflow string, task model.TaskID, deadline time.Time) (Commitment, error)
	Commit(workflow string, meta proto.TaskMeta, lease time.Time) (Commitment, error)
	CommitHeld(workflow string, task model.TaskID, lease time.Time) (Commitment, error)
	RefreshCommitLease(workflow string, task model.TaskID, lease time.Time) error
	Release(workflow string, task model.TaskID)
	ReleaseWorkflow(workflow string) int
	ExpireHolds(now time.Time) int
	ExpireCommitments(now time.Time) []Commitment
	Remove(workflow string, task model.TaskID) bool
	Commitments() []Commitment
	HeldTasks() []Commitment
	Holds() int
	NextExpiry() (time.Time, bool)
}

func render(c Commitment, err error) string { return fmt.Sprintf("%+v %q", c, errString(err)) }

// TestCrossShardDifferentialVsUnshardedOracle drives identical seeded
// random operation sequences — with execution windows sized and offset
// to straddle band boundaries — against a default-sharded manager, a
// Shards: 1 manager and refCalendar, the naive reference calendar that
// shares no code with the implementation and is the oracle. Every
// return value, every error string (conflict attribution included) and
// the full calendar state must match the reference after every op, and
// after every op both managers must keep their bookkeeping (capacity
// counter = live holds + commitments, no band registration of a dead
// record) and no two busy intervals may overlap. Besides the plain
// protocol ops the sequence re-commits, commits over a commitment,
// commits after a release, refreshes holds and leases after they
// expired, and runs under capped, tight and uncapped MaxCommitments.
func TestCrossShardDifferentialVsUnshardedOracle(t *testing.T) {
	workflows := []string{"wf-0", "wf-1", "wf-2", "wf-3"}
	caps := []int{12, 4, 0}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prefs := Preferences{MaxCommitments: caps[seed%3]}
			ref := &refCalendar{now: t0, speed: 1, max: prefs.MaxCommitments}
			impls := []struct {
				name string
				m    *Manager
			}{
				{"shards=16", NewManagerTuned(clock.NewSim(t0), space.NewMover(space.Point{}, 1), prefs,
					Tuning{Shards: 16, BandWidth: time.Minute})},
				{"shards=1", NewManagerTuned(clock.NewSim(t0), space.NewMover(space.Point{}, 1), prefs,
					Tuning{Shards: 1, BandWidth: time.Minute})},
			}

			// Windows start at second granularity within a few minutes
			// of t0+1h and run 15 s – 5 min, so most straddle at least
			// one minute-band boundary and many span several.
			window := func() (time.Time, time.Time) {
				start := t0.Add(time.Hour +
					time.Duration(rng.Intn(8))*time.Minute +
					time.Duration(rng.Intn(60))*time.Second)
				return start, start.Add(time.Duration(15+rng.Intn(285)) * time.Second)
			}
			randTask := func() model.TaskID { return model.TaskID(fmt.Sprintf("t%02d", rng.Intn(12))) }
			randMeta := func() proto.TaskMeta {
				task := string(randTask())
				start, end := window()
				if rng.Intn(5) == 0 {
					// Located tasks: travel (speed 1 m/s, ≤ 45 m)
					// extends the busy interval into earlier bands.
					return locMeta(task, start, end, space.Point{X: float64(rng.Intn(45))})
				}
				return meta(task, start, end)
			}
			randLease := func() time.Time {
				if rng.Intn(2) == 0 {
					return time.Time{}
				}
				return t0.Add(time.Duration(1+rng.Intn(10)) * time.Minute)
			}
			// pick returns a random live record of the reference.
			pick := func(held bool) (refRec, bool) {
				var live []refRec
				for _, x := range ref.recs {
					if x.held == held {
						live = append(live, x)
					}
				}
				if len(live) == 0 {
					return refRec{}, false
				}
				return live[rng.Intn(len(live))], true
			}

			// do runs one operation on the reference and on every
			// manager and requires identical renderings of the results.
			do := func(op int, what string, f func(calendar) string) string {
				t.Helper()
				want := f(ref)
				for _, im := range impls {
					if got := f(im.m); got != want {
						t.Fatalf("op %d: %s on %s diverges from the reference:\ngot:  %s\nwant: %s",
							op, what, im.name, got, want)
					}
				}
				return want
			}
			state := func(c calendar) string {
				next, ok := c.NextExpiry()
				return fmt.Sprintf("commitments %+v\nholds %+v (%d)\nnext expiry %v %v",
					c.Commitments(), c.HeldTasks(), c.Holds(), next, ok)
			}
			// ok reports whether a rendered result carries no error.
			ok := func(res string) bool { return strings.HasSuffix(res, ` ""`) }
			var recommits, overCommits, afterRelease, expiredRefreshes, atCapacity int

			for op := 0; op < 500; op++ {
				wf := workflows[rng.Intn(len(workflows))]
				deadline := t0.Add(time.Duration(30+rng.Intn(120)) * time.Second)
				switch rng.Intn(17) {
				case 0, 1, 2:
					md := randMeta()
					res := do(op, "Hold", func(c calendar) string { return render(c.Hold(wf, md, deadline)) })
					if strings.Contains(res, "at commitment capacity") {
						atCapacity++
					}
				case 3:
					metas := make([]proto.TaskMeta, 1+rng.Intn(4))
					for i := range metas {
						metas[i] = randMeta()
					}
					do(op, "HoldBatch", func(c calendar) string {
						var b strings.Builder
						for _, r := range c.HoldBatch(wf, metas, deadline) {
							b.WriteString(render(r.Commitment, r.Err) + "\n")
						}
						return b.String()
					})
				case 4:
					md, lease := randMeta(), randLease()
					do(op, "Commit", func(c calendar) string { return render(c.Commit(wf, md, lease)) })
				case 5:
					task := randTask()
					do(op, "CommitHeld", func(c calendar) string { return render(c.CommitHeld(wf, task, time.Time{})) })
				case 6:
					task := randTask()
					do(op, "RefreshHold", func(c calendar) string { return render(c.RefreshHold(wf, task, deadline)) })
				case 7:
					task := randTask()
					do(op, "Release", func(c calendar) string { c.Release(wf, task); return "" })
				case 8:
					do(op, "ReleaseWorkflow", func(c calendar) string { return fmt.Sprint(c.ReleaseWorkflow(wf)) })
				case 9:
					now := t0.Add(time.Duration(rng.Intn(180)) * time.Second)
					do(op, "ExpireHolds", func(c calendar) string { return fmt.Sprint(c.ExpireHolds(now)) })
				case 10:
					now := t0.Add(time.Duration(rng.Intn(12)) * time.Minute)
					do(op, "ExpireCommitments", func(c calendar) string { return fmt.Sprintf("%+v", c.ExpireCommitments(now)) })
				case 11:
					md := randMeta()
					do(op, "CanCommit", func(c calendar) string { return render(c.CanCommit(md)) })
				case 12: // re-commit a committed key in a new window
					x, found := pick(false)
					if !found {
						break
					}
					md, lease := randMeta(), randLease()
					md.Task = x.c.Task
					if ok(do(op, "re-Commit", func(c calendar) string { return render(c.Commit(x.c.Workflow, md, lease)) })) {
						recommits++
					}
				case 13: // commit another key over a commitment's window
					x, found := pick(false)
					if !found {
						break
					}
					md := x.c.Meta
					md.Task = randTask()
					res := do(op, "Commit over a commitment", func(c calendar) string { return render(c.Commit(wf, md, time.Time{})) })
					if strings.Contains(res, "slot busy") {
						overCommits++
					}
				case 14: // commit after release
					md, lease := randMeta(), randLease()
					if !ok(do(op, "Hold", func(c calendar) string { return render(c.Hold(wf, md, deadline)) })) {
						break
					}
					do(op, "Release", func(c calendar) string { c.Release(wf, md.Task); return "" })
					if ok(do(op, "Commit after release", func(c calendar) string { return render(c.Commit(wf, md, lease)) })) {
						afterRelease++
					}
				case 15: // refresh and re-hold a hold after it expired
					x, found := pick(true)
					if !found {
						break
					}
					now := x.expiry.Add(time.Second)
					do(op, "ExpireHolds", func(c calendar) string { return fmt.Sprint(c.ExpireHolds(now)) })
					if !ok(do(op, "RefreshHold after expiry", func(c calendar) string {
						return render(c.RefreshHold(x.c.Workflow, x.c.Task, deadline))
					})) {
						expiredRefreshes++
					}
					do(op, "HoldBatch after expiry", func(c calendar) string {
						r := c.HoldBatch(x.c.Workflow, []proto.TaskMeta{x.c.Meta}, deadline)
						return render(r[0].Commitment, r[0].Err)
					})
				case 16: // refresh a lease after it lapsed
					var leased []refRec
					for _, r := range ref.recs {
						if !r.held && !r.lease.IsZero() {
							leased = append(leased, r)
						}
					}
					if len(leased) == 0 {
						break
					}
					x := leased[rng.Intn(len(leased))]
					now := x.lease.Add(time.Second)
					do(op, "ExpireCommitments", func(c calendar) string { return fmt.Sprintf("%+v", c.ExpireCommitments(now)) })
					do(op, "RefreshCommitLease after expiry", func(c calendar) string {
						return errString(c.RefreshCommitLease(x.c.Workflow, x.c.Task, now.Add(time.Minute)))
					})
				}
				do(op, "state", state)
				for _, im := range impls {
					assertBookkeeping(t, im.m, fmt.Sprintf("op %d on %s", op, im.name))
					assertNoOverlap(t, im.m)
				}
			}
			t.Logf("re-commits %d, commits refused over a commitment %d, commits after release %d, "+
				"refreshes refused after expiry %d, holds refused at capacity %d",
				recommits, overCommits, afterRelease, expiredRefreshes, atCapacity)
			if recommits == 0 || overCommits == 0 || afterRelease == 0 || expiredRefreshes == 0 {
				t.Error("a targeted op never reached its interesting path; widen the sequence")
			}
			if prefs.MaxCommitments == 4 && atCapacity == 0 {
				t.Error("tight capacity cap never refused a hold")
			}
		})
	}
}

// TestScheduleFastPathAllocBounds pins the hot read and write paths of
// the sharded calendar: the shard indirection (mask computation, bitmask
// lock sets, per-shard maps) must not add per-operation allocations over
// the single-lock implementation.
func TestScheduleFastPathAllocBounds(t *testing.T) {
	start, end := t0.Add(time.Hour), t0.Add(time.Hour+10*time.Minute)
	md := meta("hot", start, end)

	t.Run("CanCommit", func(t *testing.T) {
		m, _ := newManager(Preferences{}, nil)
		if _, err := m.Commit("wf-bg", meta("bg", t0.Add(3*time.Hour), t0.Add(4*time.Hour)), time.Time{}); err != nil {
			t.Fatal(err)
		}
		testutil.AllocBound(t, 0, func() {
			if _, err := m.CanCommit(md); err != nil {
				t.Fatal(err)
			}
		})
	})

	t.Run("HoldBatchConflict", func(t *testing.T) {
		m, _ := newManager(Preferences{}, nil)
		if _, err := m.Commit("wf-bg", md, time.Time{}); err != nil {
			t.Fatal(err)
		}
		metas := []proto.TaskMeta{md}
		// The result slice and the conflict error; the message is never
		// formatted on this path.
		testutil.AllocBound(t, 2, func() {
			if res := m.HoldBatch("wf", metas, t0.Add(time.Hour)); res[0].Err == nil {
				t.Fatal("conflicting hold succeeded")
			}
		})
	})

	t.Run("HoldRelease", func(t *testing.T) {
		m, _ := newManager(Preferences{}, nil)
		deadline := t0.Add(time.Hour)
		// Steady state: one record allocation per hold; the maps reuse
		// their buckets across the release/re-hold cycle.
		testutil.AllocBound(t, 1, func() {
			if _, err := m.Hold("wf", md, deadline); err != nil {
				t.Fatal(err)
			}
			m.Release("wf", model.TaskID("hot"))
		})
	})
}
