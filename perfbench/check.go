package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"openwf/internal/auction"
	"openwf/internal/community"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// checker verifies each op's plan against the generated inputs and a
// reference calendar of its own, which shares no code with
// internal/schedule: a per-host list of the busy intervals of plans that
// were checked and not yet released. A plan's commitments are live on
// their hosts from their award until release, so two intervals in the
// ledger at once were live at once, and an overlap is a double booking.
type checker struct {
	mu   sync.Mutex
	busy map[proto.Addr][]booking
}

type booking struct {
	workflow   string
	task       model.TaskID
	start, end time.Time
}

func newChecker() *checker {
	return &checker{busy: make(map[proto.Addr][]booking)}
}

// check reports why an op does not count as a checked, fully allocated
// plan, or nil when it does:
//   - the workflow satisfies the posed spec;
//   - every task is allocated to a host the layout gave that service;
//   - each allocation has a live commitment on the awarded host for the
//     plan's window, and it overlaps no other live checked commitment.
func (c *checker) check(e *env, r opResult) error {
	if r.err != nil {
		return r.err
	}
	p := r.plan
	if p == nil || p.Workflow == nil {
		return errors.New("no plan")
	}
	if !r.spec.Satisfies(p.Workflow) {
		return fmt.Errorf("%s: workflow does not satisfy %v", p.WorkflowID, r.spec)
	}
	if len(p.Allocations) != p.Workflow.NumTasks() {
		return fmt.Errorf("%s: %d allocations for %d tasks", p.WorkflowID, len(p.Allocations), p.Workflow.NumTasks())
	}
	for _, t := range p.Workflow.TaskIDs() {
		at, ok := p.Allocations[t]
		if !ok {
			return fmt.Errorf("%s: task %s unallocated", p.WorkflowID, t)
		}
		if !e.offers[at][t] {
			return fmt.Errorf("%s: task %s allocated to %s, which does not offer it", p.WorkflowID, t, at)
		}
		com, ok := e.host(at).Schedule.Get(p.WorkflowID, t)
		if !ok {
			return fmt.Errorf("%s: task %s has no commitment on %s", p.WorkflowID, t, at)
		}
		meta := p.Metas[t]
		if !com.Start.Equal(meta.Start) || !com.End.Equal(meta.End) {
			return fmt.Errorf("%s: task %s committed on %s for [%v, %v), plan says [%v, %v)",
				p.WorkflowID, t, at, com.Start, com.End, meta.Start, meta.End)
		}
		if err := c.book(at, booking{workflow: p.WorkflowID, task: t, start: com.TravelStart, end: com.End}); err != nil {
			return err
		}
	}
	return nil
}

// book adds a busy interval to the reference calendar, refusing an
// overlap with another live one.
func (c *checker) book(at proto.Addr, b booking) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, o := range c.busy[at] {
		if b.start.Before(o.end) && o.start.Before(b.end) {
			return fmt.Errorf("%s: %s/%s [%v, %v) overlaps %s/%s [%v, %v)",
				at, b.workflow, b.task, b.start, b.end, o.workflow, o.task, o.start, o.end)
		}
	}
	c.busy[at] = append(c.busy[at], b)
	return nil
}

// unbook drops a plan's intervals from the reference calendar.
func (c *checker) unbook(at proto.Addr, workflow string, task model.TaskID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	list := c.busy[at]
	for i, o := range list {
		if o.workflow == workflow && o.task == task {
			list[i] = list[len(list)-1]
			c.busy[at] = list[:len(list)-1]
			return
		}
	}
}

// release frees a plan on every awarded host so calendars stay bounded
// and the run stays stationary: schedule.Manager.Remove drops the
// commitment, and Exec.Cancel drops the execution run the award
// registered (what a Cancel message does on the host, without the
// message). With probes set, each Remove is timed, and before release a
// CanCommit read-path probe is timed with the plan's own metas.
func (c *checker) release(e *env, p *engine.Plan, probes *tracer) {
	if p == nil {
		return
	}
	for t, at := range p.Allocations {
		c.unbook(at, p.WorkflowID, t)
		h := e.host(at)
		if probes != nil {
			start := time.Now()
			_, _ = h.Schedule.CanCommit(p.Metas[t]) // read-path probe: the slot is taken, the answer is irrelevant
			mid := time.Now()
			h.Schedule.Remove(p.WorkflowID, t)
			probes.noteRelease(mid.Sub(start), time.Since(mid))
		} else {
			h.Schedule.Remove(p.WorkflowID, t)
		}
		h.Exec.Cancel(p.WorkflowID, t)
	}
}

// drainWait bounds how long the drain check waits for the community to
// settle after the last op: beyond one bid window (unawarded holds
// expire by then) it only absorbs scheduling delay.
const drainWait = 3 * time.Second

// waitDrained waits until every host's calendar is empty — zero holds
// and zero commitments — once the bid window has passed, and reports
// what is left if it never empties.
func waitDrained(comm *community.Community) error {
	time.Sleep(auction.DefaultBidWindow + 20*time.Millisecond)
	deadline := time.Now().Add(drainWait)
	for {
		holds, commits := comm.TotalHolds(), comm.TotalCommitments()
		if holds == 0 && commits == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("calendars did not drain: %d holds and %d commitments left", holds, commits)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
