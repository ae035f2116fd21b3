package schedule

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"openwf/internal/clock"
)

func TestRecommitStaleBandRecord(t *testing.T) {
	for _, shards := range []int{1, 16} {
		m := NewManagerTuned(clock.NewSim(t0), nil, Preferences{}, Tuning{Shards: shards, BandWidth: time.Minute})
		if _, err := m.Commit("wf", meta("a", t0.Add(time.Hour), t0.Add(time.Hour+2*time.Minute)), time.Time{}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Commit("wf", meta("a", t0.Add(2*time.Hour), t0.Add(2*time.Hour+2*time.Minute)), time.Time{}); err != nil {
			t.Fatalf("shards=%d re-commit: %v", shards, err)
		}
		if _, err := m.CanCommit(meta("b", t0.Add(time.Hour), t0.Add(time.Hour+time.Minute))); err != nil {
			t.Errorf("shards=%d: old slot still busy after re-commit: %v", shards, err)
		}
	}
}

// assertBookkeeping checks the calendar's accounting: the capacity
// counter equals the number of live holds plus commitments, and every
// band registration points at a live record under its own key.
func assertBookkeeping(t *testing.T, m *Manager, step string) {
	t.Helper()
	live := 0
	for i := range m.keys {
		live += len(m.keys[i].holds) + len(m.keys[i].commits)
	}
	if busy := m.busy.Load(); busy != int64(live) {
		t.Fatalf("%s: busy = %d, want holds+commits = %d", step, busy, live)
	}
	for i := range m.bands {
		for k, r := range m.bands[i].entries {
			ks := &m.keys[m.keyIndex(k)]
			if ks.holds[k] != r && ks.commits[k] != r {
				t.Fatalf("%s: band %d registers a dead record for %s/%s", step, i, k.workflow, k.task)
			}
		}
	}
}

// TestRecommitReplacesAndKeepsBookkeeping pins re-commit's replace
// semantics on both the sharded calendar and a single lock: the old
// record's bands and capacity slot are released, the old record does not
// block its own replacement, a failed re-plan leaves the old commitment
// intact, and the capacity counter matches the live records after every
// step.
func TestRecommitReplacesAndKeepsBookkeeping(t *testing.T) {
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m := NewManagerTuned(clock.NewSim(t0), nil, Preferences{MaxCommitments: 3},
				Tuning{Shards: shards, BandWidth: time.Minute})
			at := func(h int) (time.Time, time.Time) {
				return t0.Add(time.Duration(h) * time.Hour), t0.Add(time.Duration(h)*time.Hour + 30*time.Minute)
			}

			s, e := at(1)
			if _, err := m.Commit("wf", meta("a", s, e), time.Time{}); err != nil {
				t.Fatal(err)
			}
			s, e = at(2)
			if _, err := m.Commit("wf", meta("a", s, e), time.Time{}); err != nil {
				t.Fatalf("re-commit: %v", err)
			}
			assertBookkeeping(t, m, "re-commit")
			// Shifting the window over its own old interval is no conflict.
			s, e = s.Add(10*time.Minute), e.Add(10*time.Minute)
			if _, err := m.Commit("wf", meta("a", s, e), time.Time{}); err != nil {
				t.Fatalf("re-commit over own interval: %v", err)
			}
			assertBookkeeping(t, m, "re-commit over own interval")

			// Commit over another commitment: refused, nothing leaks.
			if _, err := m.Commit("wf", meta("c", s, e), time.Time{}); !errors.Is(err, ErrSlotBusy) {
				t.Fatalf("commit over a commitment err = %v, want ErrSlotBusy", err)
			}
			assertBookkeeping(t, m, "commit over a commitment")

			// Commit after release.
			hs, he := at(4)
			if _, err := m.Hold("wf", meta("d", hs, he), t0.Add(time.Minute)); err != nil {
				t.Fatal(err)
			}
			m.Release("wf", "d")
			if _, err := m.Commit("wf", meta("d", hs, he), time.Time{}); err != nil {
				t.Fatalf("commit after release: %v", err)
			}
			assertBookkeeping(t, m, "commit after release")

			// At capacity a re-commit still succeeds: its slot carries over.
			xs, xe := at(6)
			if _, err := m.Commit("wf", meta("x", xs, xe), time.Time{}); err != nil {
				t.Fatal(err)
			}
			ns, ne := at(8)
			if _, err := m.Commit("wf", meta("a", ns, ne), time.Time{}); err != nil {
				t.Fatalf("re-commit at capacity: %v", err)
			}
			assertBookkeeping(t, m, "re-commit at capacity")

			// A failed re-plan leaves the old commitment and its bands.
			if _, err := m.Commit("wf", meta("a", xs, xe), time.Time{}); !errors.Is(err, ErrSlotBusy) {
				t.Fatalf("re-commit onto x err = %v, want ErrSlotBusy", err)
			}
			if c, ok := m.Get("wf", "a"); !ok || !c.Start.Equal(ns) {
				t.Fatalf("failed re-commit disturbed the old commitment: %+v ok=%v", c, ok)
			}
			m.Remove("wf", "x") // below capacity, so CanCommit reaches the conflict scan
			if _, err := m.CanCommit(meta("y", ns, ne)); !errors.Is(err, ErrSlotBusy) {
				t.Fatalf("old commitment no longer blocks its slot: %v", err)
			}
			assertBookkeeping(t, m, "failed re-commit")
		})
	}
}

// TestSlotBusyErrorMessage pins the lazily formatted conflict message
// byte for byte and its matching through errors.Is and errors.As.
func TestSlotBusyErrorMessage(t *testing.T) {
	m, _ := newManager(Preferences{}, nil)
	if _, err := m.Commit("wf", meta("a", t0.Add(time.Hour), t0.Add(time.Hour+2*time.Minute)), time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, err := m.CanCommit(meta("b", t0.Add(time.Hour), t0.Add(time.Hour+time.Minute)))
	const want = `schedule: slot busy: task "b" conflicts with "a" of workflow "wf" ` +
		`(2026-06-11 10:00:00 +0000 UTC–2026-06-11 10:02:00 +0000 UTC)`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v\nwant %s", err, want)
	}
	if !errors.Is(err, ErrSlotBusy) {
		t.Error("errors.Is(err, ErrSlotBusy) = false")
	}
	var busy *SlotBusyError
	if !errors.As(err, &busy) {
		t.Fatal("errors.As(err, *SlotBusyError) = false")
	}
	if busy.Task != "b" || busy.BlockerTask != "a" || busy.BlockerWorkflow != "wf" ||
		!busy.BlockerStart.Equal(t0.Add(time.Hour)) || !busy.BlockerEnd.Equal(t0.Add(time.Hour+2*time.Minute)) {
		t.Errorf("SlotBusyError = %+v", busy)
	}
}
