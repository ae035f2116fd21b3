package schedule

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/space"
)

// refCalendar is the property test's reference calendar: one slice of
// busy intervals, scanned in full by every operation. It shares no code
// with schedule.go — no bands, shards, masks, maps or capacity counter —
// so a bookkeeping bug there cannot hide in both. It models a host that
// starts at the origin, moves at speed m/s and sees a frozen clock at now.
type refCalendar struct {
	now   time.Time
	speed float64
	max   int // MaxCommitments; 0 = uncapped
	seq   uint64
	recs  []refRec
}

type refRec struct {
	c      Commitment
	seq    uint64
	held   bool
	expiry time.Time // holds
	lease  time.Time // commitments; zero never expires
}

func (r *refCalendar) find(wf string, task model.TaskID, held bool) int {
	return slices.IndexFunc(r.recs, func(x refRec) bool {
		return x.held == held && x.c.Workflow == wf && x.c.Task == task
	})
}

// plan checks meta against every record but skip (-1: none). A plan
// that replaces skip reuses its capacity slot.
func (r *refCalendar) plan(meta proto.TaskMeta, skip int) (Commitment, error) {
	if r.max > 0 && skip < 0 && len(r.recs) >= r.max {
		return Commitment{}, fmt.Errorf("at commitment capacity (%d)", r.max)
	}
	if !meta.End.After(meta.Start) {
		return Commitment{}, fmt.Errorf("task %q has an empty execution window", meta.Task)
	}
	c := Commitment{Task: meta.Task, Start: meta.Start, End: meta.End, Location: meta.Location,
		HasLocation: meta.HasLocation, TravelStart: meta.Start, Meta: meta}
	if meta.HasLocation {
		from, free := space.Point{}, r.now
		for i, x := range r.recs {
			if i != skip && x.c.HasLocation && !x.c.End.After(meta.Start) && x.c.End.After(free) {
				from, free = x.c.Location, x.c.End
			}
		}
		c.TravelStart = meta.Start.Add(-space.TravelTime(from, meta.Location, r.speed))
		if c.TravelStart.Before(free) {
			return Commitment{}, fmt.Errorf("cannot reach %v by %v for %q (need to leave at %v, free at %v)",
				meta.Location, meta.Start, meta.Task, c.TravelStart, free)
		}
		if c.TravelStart.Before(r.now) {
			return Commitment{}, fmt.Errorf("too late to travel for %q", meta.Task)
		}
	} else if meta.Start.Before(r.now) {
		return Commitment{}, fmt.Errorf("execution window for %q already started", meta.Task)
	}
	blocker := -1
	for i, x := range r.recs {
		if i != skip && c.TravelStart.Before(x.c.End) && x.c.TravelStart.Before(c.End) &&
			(blocker < 0 || x.seq < r.recs[blocker].seq) {
			blocker = i
		}
	}
	if blocker >= 0 {
		b := r.recs[blocker].c
		return Commitment{}, fmt.Errorf("%w: task %q conflicts with %q of workflow %q (%v–%v)",
			ErrSlotBusy, meta.Task, b.Task, b.Workflow, b.TravelStart, b.End)
	}
	return c, nil
}

func (r *refCalendar) add(wf string, c Commitment, held bool, expiry, lease time.Time) Commitment {
	c.Workflow = wf
	r.seq++
	r.recs = append(r.recs, refRec{c: c, seq: r.seq, held: held, expiry: expiry, lease: lease})
	return c
}

func (r *refCalendar) CanCommit(meta proto.TaskMeta) (Commitment, error) { return r.plan(meta, -1) }

func (r *refCalendar) Hold(wf string, meta proto.TaskMeta, deadline time.Time) (Commitment, error) {
	if r.find(wf, meta.Task, true) >= 0 {
		return Commitment{}, fmt.Errorf("%w: %q in workflow %q", ErrAlreadyHeld, meta.Task, wf)
	}
	if r.find(wf, meta.Task, false) >= 0 {
		return Commitment{}, fmt.Errorf("already committed to %q in workflow %q", meta.Task, wf)
	}
	c, err := r.plan(meta, -1)
	if err != nil {
		return Commitment{}, err
	}
	return r.add(wf, c, true, deadline, time.Time{}), nil
}

func (r *refCalendar) HoldBatch(wf string, metas []proto.TaskMeta, deadline time.Time) []HoldResult {
	out := make([]HoldResult, len(metas))
	for i, meta := range metas {
		if j := r.find(wf, meta.Task, true); j >= 0 {
			r.recs[j].expiry = deadline
			out[i] = HoldResult{Commitment: r.recs[j].c}
			continue
		}
		c, err := r.Hold(wf, meta, deadline)
		out[i] = HoldResult{Commitment: c, Err: err}
	}
	return out
}

func (r *refCalendar) RefreshHold(wf string, task model.TaskID, deadline time.Time) (Commitment, error) {
	i := r.find(wf, task, true)
	if i < 0 {
		return Commitment{}, fmt.Errorf("no hold for %q in workflow %q", task, wf)
	}
	r.recs[i].expiry = deadline
	return r.recs[i].c, nil
}

func (r *refCalendar) Commit(wf string, meta proto.TaskMeta, lease time.Time) (Commitment, error) {
	if i := r.find(wf, meta.Task, true); i >= 0 {
		return r.convert(i, lease), nil
	}
	old := r.find(wf, meta.Task, false)
	c, err := r.plan(meta, old)
	if err != nil {
		return Commitment{}, err
	}
	if old >= 0 {
		r.recs = slices.Delete(r.recs, old, old+1)
	}
	return r.add(wf, c, false, time.Time{}, lease), nil
}

func (r *refCalendar) CommitHeld(wf string, task model.TaskID, lease time.Time) (Commitment, error) {
	i := r.find(wf, task, true)
	if i < 0 {
		return Commitment{}, fmt.Errorf("%w for %q in workflow %q (bid window expired before the award)", ErrNoHold, task, wf)
	}
	return r.convert(i, lease), nil
}

func (r *refCalendar) convert(i int, lease time.Time) Commitment {
	r.recs[i].held, r.recs[i].expiry, r.recs[i].lease = false, time.Time{}, lease
	return r.recs[i].c
}

func (r *refCalendar) RefreshCommitLease(wf string, task model.TaskID, lease time.Time) error {
	i := r.find(wf, task, false)
	if i < 0 {
		return fmt.Errorf("no commitment for %q in workflow %q", task, wf)
	}
	r.recs[i].lease = lease
	return nil
}

// sweep deletes the records gone reports true for and returns them in
// calendar order.
func (r *refCalendar) sweep(gone func(refRec) bool) []Commitment {
	var out []Commitment
	r.recs = slices.DeleteFunc(r.recs, func(x refRec) bool {
		if gone(x) {
			out = append(out, x.c)
			return true
		}
		return false
	})
	slices.SortFunc(out, func(a, b Commitment) int {
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.Task, b.Task)
	})
	return out
}

func (r *refCalendar) Release(wf string, task model.TaskID) {
	r.sweep(func(x refRec) bool { return x.held && x.c.Workflow == wf && x.c.Task == task })
}

func (r *refCalendar) ReleaseWorkflow(wf string) int {
	return len(r.sweep(func(x refRec) bool { return x.held && x.c.Workflow == wf }))
}

func (r *refCalendar) ExpireHolds(now time.Time) int {
	return len(r.sweep(func(x refRec) bool { return x.held && now.After(x.expiry) }))
}

func (r *refCalendar) ExpireCommitments(now time.Time) []Commitment {
	return r.sweep(func(x refRec) bool { return !x.held && !x.lease.IsZero() && now.After(x.lease) })
}

func (r *refCalendar) Remove(wf string, task model.TaskID) bool {
	return len(r.sweep(func(x refRec) bool { return !x.held && x.c.Workflow == wf && x.c.Task == task })) > 0
}

// Commitments sweeps a copy, which returns the commitments sorted.
func (r *refCalendar) Commitments() []Commitment {
	return (&refCalendar{recs: slices.Clone(r.recs)}).sweep(func(x refRec) bool { return !x.held })
}

// HeldTasks lists holds in sequence order: records are appended in
// sequence order and never reordered.
func (r *refCalendar) HeldTasks() []Commitment {
	var out []Commitment
	for _, x := range r.recs {
		if x.held {
			out = append(out, x.c)
		}
	}
	return out
}

func (r *refCalendar) Holds() int { return len(r.HeldTasks()) }

func (r *refCalendar) NextExpiry() (time.Time, bool) {
	var next time.Time
	found := false
	for _, x := range r.recs {
		at := x.lease
		if x.held {
			at = x.expiry
		}
		if (x.held || !at.IsZero()) && (!found || at.Before(next)) {
			next, found = at, true
		}
	}
	return next, found
}
