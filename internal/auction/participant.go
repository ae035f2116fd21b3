package auction

import (
	"errors"
	"sort"
	"sync"
	"time"

	"openwf/internal/clock"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
)

// bidSession tracks one workflow's auction from the participant's side:
// the tasks this host currently holds firm bids for and each bid's
// deadline. State is keyed by workflow so N concurrent allocation
// sessions on the soliciting side map to N independent bid sessions
// here — expiring or canceling one session's bids never touches
// another's.
type bidSession struct {
	deadlines map[model.TaskID]time.Time
}

// Participant is the Auction Participation Manager of the execution
// subsystem (§4.2): it encapsulates the interactions and state tracking a
// host needs to bid in task auctions. For every call for bids it compares
// the task's required time, location, and service with the host's own
// capabilities and availability; if the host can commit, it places a firm
// bid and reserves the schedule slot until the bid's deadline.
//
// A participant serves every allocation session of the community at
// once; it is safe for concurrent use. Slot conflicts between sessions
// are arbitrated by the schedule manager (first-hold-wins); the losing
// call for bids is answered with a clean Decline.
type Participant struct {
	clk      clock.Clock
	services *service.Manager
	sched    *schedule.Manager
	// bidWindow is how long the participant gives the auction manager
	// to decide; its firm bid (and schedule reservation) expires after
	// this window.
	bidWindow time.Duration
	// commitLease is how long an awarded commitment stays valid without a
	// refresh from the initiator (DefaultCommitLease when unset; ≤ 0 via
	// SetCommitLease disables leasing — commitments never expire).
	commitLease time.Duration

	mu       sync.Mutex
	sessions map[string]*bidSession
}

// DefaultBidWindow is the deadline participants give auction managers when
// none is configured.
const DefaultBidWindow = 200 * time.Millisecond

// DefaultCommitLease is how long an awarded commitment survives without a
// lease refresh from its initiator. Generous relative to bid windows and
// execution spans: a live initiator refreshes leases far more often,
// while a dead one stops and the slot returns to the pool one lease
// later.
const DefaultCommitLease = 5 * time.Minute

// NewParticipant wires a participant to its host's service and schedule
// managers. bidWindow ≤ 0 selects DefaultBidWindow.
func NewParticipant(clk clock.Clock, services *service.Manager, sched *schedule.Manager, bidWindow time.Duration) *Participant {
	if clk == nil {
		clk = clock.New()
	}
	if bidWindow <= 0 {
		bidWindow = DefaultBidWindow
	}
	return &Participant{
		clk: clk, services: services, sched: sched, bidWindow: bidWindow,
		commitLease: DefaultCommitLease,
		sessions:    make(map[string]*bidSession),
	}
}

// SetCommitLease overrides the commitment lease duration. d ≤ 0 disables
// leasing: awards commit without an expiry.
func (p *Participant) SetCommitLease(d time.Duration) { p.commitLease = d }

// CommitLease returns the configured commitment lease duration.
func (p *Participant) CommitLease() time.Duration { return p.commitLease }

// leaseExpiry computes the lease for a commitment made or refreshed now.
func (p *Participant) leaseExpiry(now time.Time) time.Time {
	if p.commitLease <= 0 {
		return time.Time{}
	}
	return now.Add(p.commitLease)
}

// trackBid records a firm bid in the workflow's session.
func (p *Participant) trackBid(workflow string, task model.TaskID, deadline time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[workflow]
	if !ok {
		s = &bidSession{deadlines: make(map[model.TaskID]time.Time)}
		p.sessions[workflow] = s
	}
	s.deadlines[task] = deadline
}

// untrackBid removes a bid from the workflow's session (award converted
// it, the auction was lost, or the session was canceled), pruning empty
// sessions.
func (p *Participant) untrackBid(workflow string, task model.TaskID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[workflow]
	if !ok {
		return
	}
	delete(s.deadlines, task)
	if len(s.deadlines) == 0 {
		delete(p.sessions, workflow)
	}
}

// HandleCallForBids evaluates a call for bids and returns the reply body:
// a firm Bid when the host can commit, a Decline otherwise. A bid reserves
// the schedule slot (including travel time) until the bid's deadline.
func (p *Participant) HandleCallForBids(workflow string, cfb proto.CallForBids) proto.Body {
	meta := cfb.Meta
	desc, ok := p.services.CanPerform(meta.Task)
	if !ok {
		return proto.Decline{Task: meta.Task}
	}
	// A service pinned to a location imposes it on the commitment when
	// the task itself does not require one.
	if !meta.HasLocation && desc.HasLocation {
		meta.Location = desc.Location
		meta.HasLocation = true
	}
	deadline := p.clk.Now().Add(p.bidWindow)
	if _, err := p.sched.Hold(workflow, meta, deadline); err != nil {
		// A repeated solicitation for a task we already reserved (the
		// engine replanning) refreshes the firm bid's deadline.
		if errors.Is(err, schedule.ErrAlreadyHeld) {
			if _, rerr := p.sched.RefreshHold(workflow, meta.Task, deadline); rerr == nil {
				p.trackBid(workflow, meta.Task, deadline)
				return proto.Bid{
					Task:            meta.Task,
					ServicesOffered: p.services.Count(),
					Specialization:  desc.Specialization,
					Deadline:        deadline,
				}
			}
		}
		// The slot belongs to an earlier session (schedule.ErrSlotBusy)
		// or is otherwise uncommittable: a clean decline, never a stale
		// reservation.
		return proto.Decline{Task: meta.Task}
	}
	p.trackBid(workflow, meta.Task, deadline)
	return proto.Bid{
		Task:            meta.Task,
		ServicesOffered: p.services.Count(),
		Specialization:  desc.Specialization,
		Deadline:        deadline,
	}
}

// HandleCallForBidsBatch answers a batched call for bids: one reply
// carrying a firm Bid for every task this host can commit to and a
// per-task decline for the rest. All schedule reservations are taken
// atomically under one schedule-manager lock acquisition (HoldBatch), so
// a competing session cannot interleave between two tasks of the batch;
// infeasible tasks decline individually without disturbing the rest. The
// whole batch shares one bid deadline.
func (p *Participant) HandleCallForBidsBatch(workflow string, batch proto.CallForBidsBatch) proto.BidBatch {
	var reply proto.BidBatch
	capable := make([]proto.TaskMeta, 0, len(batch.Metas))
	descs := make([]service.Descriptor, 0, len(batch.Metas))
	for _, meta := range batch.Metas {
		desc, ok := p.services.CanPerform(meta.Task)
		if !ok {
			reply.Declines = append(reply.Declines, meta.Task)
			continue
		}
		if !meta.HasLocation && desc.HasLocation {
			meta.Location = desc.Location
			meta.HasLocation = true
		}
		capable = append(capable, meta)
		descs = append(descs, desc)
	}
	if len(capable) == 0 {
		return reply
	}
	deadline := p.clk.Now().Add(p.bidWindow)
	results := p.sched.HoldBatch(workflow, capable, deadline)
	count := p.services.Count()
	for i, res := range results {
		if res.Err != nil {
			reply.Declines = append(reply.Declines, capable[i].Task)
			continue
		}
		p.trackBid(workflow, capable[i].Task, deadline)
		reply.Bids = append(reply.Bids, proto.Bid{
			Task:            capable[i].Task,
			ServicesOffered: count,
			Specialization:  descs[i].Specialization,
			Deadline:        deadline,
		})
	}
	return reply
}

// HandleAward converts the reservation into a leased commitment. It
// returns the commitment (for execution registration), its lease expiry
// (zero when leasing is disabled or the award is refused) and the
// acknowledgment to send. An award without a live hold — the bid
// window expired before the award arrived — is refused even when the
// slot is still free: under leases the slot already returned to the
// pool and may back a rival session's fresh hold, so a stale award must
// never silently commit. The refusal (AwardAck.OK=false) cancels the
// award back to the auctioneer, which replans the task.
func (p *Participant) HandleAward(workflow string, award proto.Award) (schedule.Commitment, time.Time, proto.AwardAck) {
	meta := award.Meta
	if _, ok := p.services.CanPerform(meta.Task); !ok {
		return schedule.Commitment{}, time.Time{}, proto.AwardAck{
			Task: meta.Task, OK: false, Reason: "service no longer offered",
		}
	}
	lease := p.leaseExpiry(p.clk.Now())
	c, err := p.sched.CommitHeld(workflow, meta.Task, lease)
	if err != nil {
		return schedule.Commitment{}, time.Time{}, proto.AwardAck{
			Task: meta.Task, OK: false, Reason: err.Error(),
		}
	}
	p.untrackBid(workflow, meta.Task)
	return c, lease, proto.AwardAck{Task: meta.Task, OK: true}
}

// HandleLeaseRefresh extends the leases of the listed tasks' commitments
// and reports back the tasks whose commitments are gone (lease already
// expired and swept, or canceled): the initiator repairs those. It also
// returns the new lease expiry, zero when no commitment was extended or
// leasing is disabled.
func (p *Participant) HandleLeaseRefresh(workflow string, lr proto.LeaseRefresh) (proto.LeaseRefreshAck, time.Time) {
	lease := p.leaseExpiry(p.clk.Now())
	var ack proto.LeaseRefreshAck
	for _, task := range lr.Tasks {
		if err := p.sched.RefreshCommitLease(workflow, task, lease); err != nil {
			ack.Missing = append(ack.Missing, task)
		}
	}
	if len(ack.Missing) == len(lr.Tasks) {
		return ack, time.Time{}
	}
	return ack, lease
}

// SweepLeases removes every commitment whose lease has expired and
// returns them so the host can drop dependent execution state. The
// sweep is what makes a dead initiator's slots come back: nobody
// refreshes, the lease runs out, the calendar heals.
func (p *Participant) SweepLeases() []schedule.Commitment {
	return p.sched.ExpireCommitments(p.clk.Now())
}

// HandleCancel revokes an awarded task (replanning compensation): the
// commitment and any leftover hold are dropped.
func (p *Participant) HandleCancel(workflow string, c proto.Cancel) {
	p.sched.Release(workflow, c.Task)
	p.sched.Remove(workflow, c.Task)
	p.untrackBid(workflow, c.Task)
}

// ExpireHolds releases reservations whose deadlines have passed; hosts
// call it periodically (or on a timer at each deadline). Session
// bookkeeping is pruned in step with the schedule manager.
func (p *Participant) ExpireHolds() int {
	now := p.clk.Now()
	n := p.sched.ExpireHolds(now)
	p.mu.Lock()
	defer p.mu.Unlock()
	for wf, s := range p.sessions {
		for task, deadline := range s.deadlines {
			if now.After(deadline) {
				delete(s.deadlines, task)
			}
		}
		if len(s.deadlines) == 0 {
			delete(p.sessions, wf)
		}
	}
	return n
}

// ReleaseHold drops the reservation for one task (the host observed the
// award going elsewhere).
func (p *Participant) ReleaseHold(workflow string, task model.TaskID) {
	p.sched.Release(workflow, task)
	p.untrackBid(workflow, task)
}

// ReleaseSession drops every reservation of one workflow's bid session
// (the session's auction ended without this host winning anything, or
// the session was torn down wholesale). It returns how many schedule
// holds were released.
func (p *Participant) ReleaseSession(workflow string) int {
	n := p.sched.ReleaseWorkflow(workflow)
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.sessions, workflow)
	return n
}

// ResetSessions wipes every workflow's bid bookkeeping (crash
// simulation: a restarted participant remembers no firm bids). The
// schedule manager's holds are cleared separately (schedule.Clear).
func (p *Participant) ResetSessions() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.sessions = make(map[string]*bidSession)
}

// Sessions returns the workflow IDs with outstanding firm bids, sorted.
func (p *Participant) Sessions() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.sessions))
	for wf := range p.sessions {
		out = append(out, wf)
	}
	sort.Strings(out)
	return out
}

// SessionBids returns how many firm bids one workflow's session holds.
func (p *Participant) SessionBids(workflow string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.sessions[workflow]
	if !ok {
		return 0
	}
	return len(s.deadlines)
}

// BidWindow returns the configured bid window.
func (p *Participant) BidWindow() time.Duration { return p.bidWindow }
