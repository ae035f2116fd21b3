package schedule

import (
	"fmt"
	"math/rand"
	"reflect"
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

// TestCrossShardDifferentialVsUnshardedOracle drives identical seeded
// random operation sequences — with execution windows sized and offset
// to straddle band boundaries — against a default-sharded manager and a
// Shards: 1 oracle (a single lock, trivially equivalent to the pre-
// sharding implementation). Every return value, every error string
// (conflict attribution included), and the full calendar state must
// match, and busy intervals must never overlap.
func TestCrossShardDifferentialVsUnshardedOracle(t *testing.T) {
	workflows := []string{"wf-0", "wf-1", "wf-2", "wf-3"}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			prefs := Preferences{MaxCommitments: 12}
			sharded := NewManagerTuned(clock.NewSim(t0), space.NewMover(space.Point{}, 1), prefs,
				Tuning{Shards: 16, BandWidth: time.Minute})
			oracle := NewManagerTuned(clock.NewSim(t0), space.NewMover(space.Point{}, 1), prefs,
				Tuning{Shards: 1, BandWidth: time.Minute})

			// Windows start at second granularity within a few minutes
			// of t0+1h and run 15 s – 5 min, so most straddle at least
			// one minute-band boundary and many span several.
			window := func() (time.Time, time.Time) {
				start := t0.Add(time.Hour +
					time.Duration(rng.Intn(8))*time.Minute +
					time.Duration(rng.Intn(60))*time.Second)
				return start, start.Add(time.Duration(15+rng.Intn(285)) * time.Second)
			}
			randMeta := func() proto.TaskMeta {
				task := fmt.Sprintf("t%02d", rng.Intn(12))
				start, end := window()
				if rng.Intn(5) == 0 {
					// Located tasks: travel (speed 1 m/s, ≤ 45 m)
					// extends the busy interval into earlier bands.
					return locMeta(task, start, end, space.Point{X: float64(rng.Intn(45))})
				}
				return meta(task, start, end)
			}

			compareState := func(op int) {
				t.Helper()
				if got, want := sharded.Commitments(), oracle.Commitments(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: commitments diverge\nsharded: %+v\noracle:  %+v", op, got, want)
				}
				if got, want := sharded.HeldTasks(), oracle.HeldTasks(); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: held tasks diverge\nsharded: %+v\noracle:  %+v", op, got, want)
				}
				if got, want := sharded.Holds(), oracle.Holds(); got != want {
					t.Fatalf("op %d: hold counts diverge: sharded %d, oracle %d", op, got, want)
				}
				assertNoOverlap(t, sharded)
			}

			for op := 0; op < 500; op++ {
				wf := workflows[rng.Intn(len(workflows))]
				deadline := t0.Add(time.Duration(30+rng.Intn(120)) * time.Second)
				switch rng.Intn(12) {
				case 0, 1, 2:
					md := randMeta()
					cs, es := sharded.Hold(wf, md, deadline)
					co, eo := oracle.Hold(wf, md, deadline)
					if errString(es) != errString(eo) || !reflect.DeepEqual(cs, co) {
						t.Fatalf("op %d: Hold(%s, %s) diverges:\nsharded: %+v, %q\noracle:  %+v, %q",
							op, wf, md.Task, cs, errString(es), co, errString(eo))
					}
				case 3:
					metas := make([]proto.TaskMeta, 1+rng.Intn(4))
					for i := range metas {
						metas[i] = randMeta()
					}
					rs := sharded.HoldBatch(wf, metas, deadline)
					ro := oracle.HoldBatch(wf, metas, deadline)
					for i := range rs {
						if errString(rs[i].Err) != errString(ro[i].Err) ||
							!reflect.DeepEqual(rs[i].Commitment, ro[i].Commitment) {
							t.Fatalf("op %d: HoldBatch[%d] (%s) diverges:\nsharded: %+v, %q\noracle:  %+v, %q",
								op, i, metas[i].Task, rs[i].Commitment, errString(rs[i].Err),
								ro[i].Commitment, errString(ro[i].Err))
						}
					}
				case 4:
					md := randMeta()
					var lease time.Time
					if rng.Intn(2) == 0 {
						lease = t0.Add(time.Duration(1+rng.Intn(10)) * time.Minute)
					}
					cs, es := sharded.Commit(wf, md, lease)
					co, eo := oracle.Commit(wf, md, lease)
					if errString(es) != errString(eo) || !reflect.DeepEqual(cs, co) {
						t.Fatalf("op %d: Commit(%s, %s) diverges:\nsharded: %+v, %q\noracle:  %+v, %q",
							op, wf, md.Task, cs, errString(es), co, errString(eo))
					}
				case 5:
					task := model.TaskID(fmt.Sprintf("t%02d", rng.Intn(12)))
					cs, es := sharded.CommitHeld(wf, task, time.Time{})
					co, eo := oracle.CommitHeld(wf, task, time.Time{})
					if errString(es) != errString(eo) || !reflect.DeepEqual(cs, co) {
						t.Fatalf("op %d: CommitHeld(%s, %s) diverges: %q vs %q",
							op, wf, task, errString(es), errString(eo))
					}
				case 6:
					task := model.TaskID(fmt.Sprintf("t%02d", rng.Intn(12)))
					cs, es := sharded.RefreshHold(wf, task, deadline)
					co, eo := oracle.RefreshHold(wf, task, deadline)
					if errString(es) != errString(eo) || !reflect.DeepEqual(cs, co) {
						t.Fatalf("op %d: RefreshHold(%s, %s) diverges: %q vs %q",
							op, wf, task, errString(es), errString(eo))
					}
				case 7:
					task := model.TaskID(fmt.Sprintf("t%02d", rng.Intn(12)))
					sharded.Release(wf, task)
					oracle.Release(wf, task)
				case 8:
					if ns, no := sharded.ReleaseWorkflow(wf), oracle.ReleaseWorkflow(wf); ns != no {
						t.Fatalf("op %d: ReleaseWorkflow(%s) diverges: %d vs %d", op, wf, ns, no)
					}
				case 9:
					now := t0.Add(time.Duration(rng.Intn(180)) * time.Second)
					if ns, no := sharded.ExpireHolds(now), oracle.ExpireHolds(now); ns != no {
						t.Fatalf("op %d: ExpireHolds diverges: %d vs %d", op, ns, no)
					}
				case 10:
					now := t0.Add(time.Duration(rng.Intn(12)) * time.Minute)
					es, eo := sharded.ExpireCommitments(now), oracle.ExpireCommitments(now)
					if !reflect.DeepEqual(es, eo) {
						t.Fatalf("op %d: ExpireCommitments diverges:\nsharded: %+v\noracle:  %+v", op, es, eo)
					}
				case 11:
					md := randMeta()
					cs, es := sharded.CanCommit(md)
					co, eo := oracle.CanCommit(md)
					if errString(es) != errString(eo) || !reflect.DeepEqual(cs, co) {
						t.Fatalf("op %d: CanCommit(%s) diverges: %q vs %q",
							op, md.Task, errString(es), errString(eo))
					}
				}
				if op%50 == 0 {
					compareState(op)
				}
			}
			compareState(500)
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
