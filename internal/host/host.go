// Package host assembles one participant device: it wires the fragment,
// service, schedule, auction-participation, and execution managers of the
// execution subsystem together with the workflow engine of the
// construction subsystem, all behind a single transport endpoint. Per the
// paper's design principles (§4.2), every component — local or remote —
// is reached uniformly through the communications layer, and a host
// carries only the components appropriate to its capabilities (a host
// with no fragments or services simply answers queries with empty
// results).
package host

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"openwf/internal/auction"
	"openwf/internal/clock"
	"openwf/internal/discovery"
	"openwf/internal/engine"
	"openwf/internal/exec"
	"openwf/internal/fragment"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/schedule"
	"openwf/internal/service"
	"openwf/internal/space"
	"openwf/internal/trace"
	"openwf/internal/transport"
)

// Config describes one host.
type Config struct {
	// Addr is the host's community address.
	Addr proto.Addr
	// Clock paces the host (default: wall clock).
	Clock clock.Clock
	// Mobility is the host's movement model (default: static at origin).
	Mobility space.Mobility
	// Prefs expresses scheduling willingness.
	Prefs schedule.Preferences
	// Schedule tunes the calendar's lock sharding (zero value: defaults;
	// schedule.Tuning{Shards: 1} degenerates to a single lock).
	Schedule schedule.Tuning
	// BidWindow is the deadline the host gives auction managers
	// (default auction.DefaultBidWindow).
	BidWindow time.Duration
	// CommitLease is how long an awarded commitment stays valid without
	// a lease refresh from its initiator (default
	// auction.DefaultCommitLease; negative disables leasing).
	CommitLease time.Duration
	// Engine configures this host's workflow engine (used when the host
	// initiates workflows).
	Engine engine.Config
	// Workers bounds how many inbound envelopes the host handles
	// concurrently (the dispatcher's worker pool; default
	// DefaultWorkers). Envelopes of one workflow are always handled
	// sequentially in arrival order; the bound caps cross-workflow
	// parallelism.
	Workers int
	// Fragments is the host's initial knowhow.
	Fragments []*model.Fragment
	// Services are the host's initial capabilities.
	Services []service.Registration
	// Trace, when non-nil, records every message the host sends or
	// receives.
	Trace trace.Recorder
	// Discovery, when non-nil, enables the capability index: the host
	// answers and periodically pushes advertisements, and its engine
	// routes solicitation by advertised capability (internal/discovery).
	Discovery *DiscoveryConfig
}

// DiscoveryConfig tunes the capability index and the host's advertiser.
type DiscoveryConfig struct {
	// TTL is how long a received advertisement stays fresh (default
	// discovery.DefaultTTL). A member silent for a full TTL is presumed
	// dead and excluded from solicitation sweeps.
	TTL time.Duration
	// RefreshEvery is the advertiser's push cadence (default TTL/3, so
	// a live member survives two lost refreshes before lapsing).
	RefreshEvery time.Duration
	// CallTimeout bounds the pull round trips of AdvertiseNow (default
	// 5s).
	CallTimeout time.Duration
	// Seed seeds the advertiser's cadence jitter, desynchronizing the
	// community's refresh bursts deterministically.
	Seed int64
}

// Host is one participant device.
type Host struct {
	addr  proto.Addr
	clk   clock.Clock
	trace trace.Recorder
	// ctx is the host's root context, canceled on Close; it bounds
	// replies and other host-originated sends that have no caller
	// context of their own.
	ctx    context.Context
	cancel context.CancelFunc

	Fragments   *fragment.Manager
	Services    *service.Manager
	Schedule    *schedule.Manager
	Exec        *exec.Manager
	Participant *auction.Participant
	Engine      *engine.Manager

	// dispatch routes inbound envelopes to per-workflow session workers
	// so concurrent allocation sessions multiplex over one host.
	dispatch *dispatcher

	// index is the host's capability index; nil when discovery is
	// disabled.
	index   *discovery.Index
	discCfg DiscoveryConfig

	mu       sync.Mutex
	endpoint transport.Endpoint
	members  []proto.Addr
	nextReq  uint64
	pending  map[uint64]*pendingCall
	closed   bool
	// adRng jitters the advertiser cadence; adTimer is the pending
	// refresh tick. Both are guarded by mu.
	adRng   *rand.Rand
	adTimer clock.Timer
	// expiry is the host's one calendar expiry timer and callTimer its
	// one call-timeout timer. Both are guarded by mu.
	expiry    dueTimer
	callTimer dueTimer
}

// dueTimer is one host timer that fires at the earliest due time it has
// been asked for. Its fields are guarded by the host's mu.
type dueTimer struct {
	// fire is the sweep the timer runs, set once by New.
	fire func(gen uint64)
	t    clock.Timer
	due  time.Time // zero when no timer is pending
	// gen tells a superseded timer's callback that a newer timer owns
	// the sweep.
	gen uint64
}

// arm makes sure the timer runs its sweep by due. It re-arms only for a
// due time earlier than the pending one: a later one is picked up by the
// sweep the pending timer runs.
func (d *dueTimer) arm(clk clock.Clock, due time.Time) {
	if !d.due.IsZero() && !due.Before(d.due) {
		return
	}
	d.stop()
	d.gen++
	gen := d.gen
	d.due = due
	d.t = clk.AfterFunc(due.Sub(clk.Now()), func() { d.fire(gen) })
}

// claim reports whether gen is the pending timer's generation, and if so
// marks the timer as fired, so its sweep owns re-arming.
func (d *dueTimer) claim(gen uint64) bool {
	if gen != d.gen {
		return false
	}
	d.t, d.due = nil, time.Time{}
	return true
}

func (d *dueTimer) stop() {
	if d.t != nil {
		d.t.Stop()
		d.t, d.due = nil, time.Time{}
	}
}

// callOutcome is how a Call ended.
type callOutcome uint8

const (
	callReplied callOutcome = iota + 1
	callTimedOut
	callClosed
)

// pendingCall is one Call awaiting its reply. Whoever removes it from
// Host.pending completes it — the reply router, the timeout sweep, Close
// or the caller giving up on its context — by setting outcome (and
// reply) and then closing done. So a call completes exactly once, and a
// late reply finds no entry to reach.
type pendingCall struct {
	done     chan struct{}
	reply    proto.Body
	outcome  callOutcome
	deadline time.Time
}

// complete records the call's outcome and wakes its caller. Only the
// party that removed the call from Host.pending, under mu, completes it.
func (pc *pendingCall) complete(outcome callOutcome, reply proto.Body) {
	pc.outcome, pc.reply = outcome, reply
	close(pc.done)
}

// expirySlack is how long after a deadline the host sweeps for it, so
// the calendar's strict After comparison sees the deadline as passed.
const expirySlack = 10 * time.Millisecond

// New builds a host from its configuration. The host is inert until
// Attach connects it to a transport endpoint.
func New(cfg Config) (*Host, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("host: empty address")
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.New()
	}
	h := &Host{
		addr:      cfg.Addr,
		clk:       clk,
		trace:     cfg.Trace,
		Fragments: fragment.NewManager(),
		Services:  service.NewManager(clk),
		pending:   make(map[uint64]*pendingCall),
	}
	h.expiry.fire, h.callTimer.fire = h.sweepExpired, h.sweepCalls
	h.ctx, h.cancel = context.WithCancel(context.Background()) //openwf:allow-background lifecycle root for the host's dispatcher and invocations, canceled by Close
	h.Schedule = schedule.NewManagerTuned(clk, cfg.Mobility, cfg.Prefs, cfg.Schedule)
	h.Participant = auction.NewParticipant(clk, h.Services, h.Schedule, cfg.BidWindow)
	if cfg.CommitLease != 0 {
		h.Participant.SetCommitLease(cfg.CommitLease)
	}
	h.Exec = exec.NewManager(cfg.Addr, clk, h.Services, h.Schedule, h.sendEnvelope)
	h.Engine = engine.NewManager(h, cfg.Engine)
	h.dispatch = newDispatcher(h.process, cfg.Workers)
	if cfg.Discovery != nil {
		dc := *cfg.Discovery
		if dc.TTL <= 0 {
			dc.TTL = discovery.DefaultTTL
		}
		if dc.RefreshEvery <= 0 {
			dc.RefreshEvery = dc.TTL / 3
		}
		if dc.CallTimeout <= 0 {
			dc.CallTimeout = 5 * time.Second
		}
		h.discCfg = dc
		h.index = discovery.New(clk, dc.TTL)
		h.adRng = rand.New(rand.NewSource(dc.Seed))
	}

	for _, f := range cfg.Fragments {
		if err := h.Fragments.Add(f); err != nil {
			return nil, fmt.Errorf("host %q: %w", cfg.Addr, err)
		}
	}
	for _, reg := range cfg.Services {
		if err := h.Services.Register(reg); err != nil {
			return nil, fmt.Errorf("host %q: %w", cfg.Addr, err)
		}
	}
	return h, nil
}

// Attach connects the host to its transport endpoint. The endpoint must
// have been created with h.Handle as its handler. With discovery
// enabled, attaching also arms the periodic advertiser (its first tick
// lands after one jittered refresh interval, by which time the
// community view is installed).
func (h *Host) Attach(ep transport.Endpoint) {
	h.mu.Lock()
	h.endpoint = ep
	h.mu.Unlock()
	h.scheduleAdvertise()
}

// SetMembers installs the community view (all hosts, including self).
// The paper assumes a stable, mutually reachable community during one
// construction; membership changes take effect on the next query.
func (h *Host) SetMembers(members []proto.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.members = append([]proto.Addr(nil), members...)
}

// Close detaches the host, failing outstanding calls and canceling the
// host's root context (which interrupts in-flight service invocations).
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	ep := h.endpoint
	for id, pc := range h.pending {
		delete(h.pending, id)
		pc.complete(callClosed, nil)
	}
	if h.adTimer != nil {
		h.adTimer.Stop()
		h.adTimer = nil
	}
	h.expiry.stop()
	h.callTimer.stop()
	h.mu.Unlock()
	h.cancel()
	h.dispatch.close()
	h.Exec.Close()
	if ep != nil {
		return ep.Close()
	}
	return nil
}

// --- engine.Messenger implementation ---

var _ engine.Messenger = (*Host)(nil)

// Self implements engine.Messenger.
func (h *Host) Self() proto.Addr { return h.addr }

// Clock implements engine.Messenger.
func (h *Host) Clock() clock.Clock { return h.clk }

// QueryWorkers returns the host's dispatcher worker bound. The engine
// matches its outbound parallel-query fan-out to it, so a host never has
// more community queries in flight than it could itself serve inbound.
func (h *Host) QueryWorkers() int { return h.dispatch.workers }

// Members implements engine.Messenger.
func (h *Host) Members() []proto.Addr {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.members) > 0 {
		return append([]proto.Addr(nil), h.members...)
	}
	return []proto.Addr{h.addr}
}

// Send implements engine.Messenger (one-way message).
func (h *Host) Send(ctx context.Context, to proto.Addr, workflow string, body proto.Body) error {
	return h.sendEnvelope(ctx, to, proto.Envelope{Workflow: workflow, Body: body})
}

func (h *Host) sendEnvelope(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	h.mu.Lock()
	ep := h.endpoint
	closed := h.closed
	h.mu.Unlock()
	if closed || ep == nil {
		return fmt.Errorf("host %q: not attached", h.addr)
	}
	h.record(trace.Send, to, env)
	return ep.Send(ctx, to, env)
}

// record emits a trace event if tracing is enabled.
func (h *Host) record(dir trace.Dir, peer proto.Addr, env proto.Envelope) {
	if h.trace == nil {
		return
	}
	h.trace.Record(trace.Event{
		At:       h.clk.Now(),
		Host:     h.addr,
		Dir:      dir,
		Peer:     peer,
		Kind:     env.Body.Kind(),
		Workflow: env.Workflow,
	})
}

// Call implements engine.Messenger: request/response with correlation.
// The context cancels the wait promptly (returning ctx.Err()); timeout is
// the clock-paced bound on the reply (which keeps per-query deadlines
// meaningful under a simulated clock, where wall-clock context deadlines
// would not advance). The deadline is enforced by the host's one
// call-timeout timer, not by a timer per call.
func (h *Host) Call(ctx context.Context, to proto.Addr, workflow string, body proto.Body, timeout time.Duration) (proto.Body, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.closed || h.endpoint == nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("host %q: not attached", h.addr)
	}
	h.nextReq++
	id := h.nextReq
	pc := &pendingCall{done: make(chan struct{}), deadline: h.clk.Now().Add(timeout)}
	h.pending[id] = pc
	h.callTimer.arm(h.clk, pc.deadline)
	ep := h.endpoint
	h.mu.Unlock()

	env := proto.Envelope{ReqID: id, Workflow: workflow, Body: body}
	if err := ep.Send(ctx, to, env); err != nil {
		if h.abandon(id) {
			return nil, err
		}
	} else {
		select {
		case <-pc.done:
		case <-ctx.Done():
			if h.abandon(id) {
				return nil, ctx.Err()
			}
		}
	}
	// The call's entry was removed by whoever completes it.
	<-pc.done
	switch pc.outcome {
	case callReplied:
		return pc.reply, nil
	case callClosed:
		return nil, fmt.Errorf("host %q: closed while calling %q", h.addr, to)
	default:
		return nil, fmt.Errorf("call to %q (%s) timed out after %v", to, body.Kind(), timeout)
	}
}

// abandon removes a call its caller gives up on, reporting whether the
// caller owns it. When it reports false, another party already removed
// the call and completes it.
func (h *Host) abandon(id uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.pending[id]; !ok {
		return false
	}
	delete(h.pending, id)
	return true
}

// sweepCalls is the call-timeout timer's callback: it fails every call
// whose deadline has passed and re-arms at the earliest remaining one.
func (h *Host) sweepCalls(gen uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed || !h.callTimer.claim(gen) {
		return
	}
	now := h.clk.Now()
	var next time.Time
	for id, pc := range h.pending {
		if !now.Before(pc.deadline) {
			delete(h.pending, id)
			pc.complete(callTimedOut, nil)
		} else if next.IsZero() || pc.deadline.Before(next) {
			next = pc.deadline
		}
	}
	if !next.IsZero() {
		h.callTimer.arm(h.clk, next)
	}
}

// Handle is the host's transport handler. Correlated replies complete
// their waiting Call in place (see pendingCall); every other envelope is
// dispatched to its workflow's session worker, so the traffic of N
// concurrent workflows is handled by up to Config.Workers goroutines at
// once while each single workflow still sees its messages strictly in
// arrival order. The transport may keep invoking Handle
// sequentially (the in-memory network's endpoint pump does); the
// dispatcher is what turns that serial feed into per-session
// concurrency.
func (h *Host) Handle(env proto.Envelope) {
	// Transports split coalesced frames before dispatching, but a batch
	// reaching the handler anyway (a custom transport, a test feeding
	// envelopes directly) is unwrapped here: its envelopes are handled
	// in order, preserving the per-link FIFO guarantee through the
	// per-workflow dispatcher queues.
	if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
		for _, inner := range batch.Envelopes {
			h.Handle(inner)
		}
		return
	}
	h.record(trace.Recv, env.From, env)
	switch env.Body.(type) {
	case proto.FragmentReply, proto.FeasibilityReply, proto.Bid, proto.BidBatch,
		proto.Decline, proto.AwardAck, proto.LeaseRefreshAck, proto.AdvertiseAck, proto.Ack:
		h.observeReply(env)
		h.routeReply(env)
	default:
		h.dispatch.enqueue(env)
	}
}

// observeReply opportunistically feeds the capability index from reply
// traffic the host is receiving anyway: a member that just returned
// fragments or capabilities proved it holds them and is alive, and an
// AdvertiseAck piggybacks the replier's complete advertisement. Runs on
// the transport pump; index updates are quick map operations.
func (h *Host) observeReply(env proto.Envelope) {
	if h.index == nil {
		return
	}
	switch b := env.Body.(type) {
	case proto.FragmentReply:
		if len(b.Fragments) == 0 {
			return
		}
		var labels []model.LabelID
		seen := make(map[model.LabelID]struct{})
		for _, f := range b.Fragments {
			for _, t := range f.Tasks {
				for _, in := range t.Inputs {
					if _, dup := seen[in]; !dup {
						seen[in] = struct{}{}
						labels = append(labels, in)
					}
				}
			}
		}
		h.index.ObservePartial(env.From, labels, nil)
	case proto.FeasibilityReply:
		if len(b.Capable) > 0 {
			h.index.ObservePartial(env.From, nil, b.Capable)
		}
	case proto.AdvertiseAck:
		h.index.ObserveAdvertise(env.From, b.Labels, b.Tasks)
	}
}

// ActiveSessions returns how many workflow sessions currently have
// inbound traffic queued or in flight on this host's dispatcher.
func (h *Host) ActiveSessions() int { return h.dispatch.ActiveSessions() }

// process handles one dispatched envelope on a session worker: it serves
// queries and feeds one-way messages to the execution subsystem.
func (h *Host) process(env proto.Envelope) {
	switch b := env.Body.(type) {
	case proto.FragmentQuery:
		var frags []*model.Fragment
		if b.Labels == nil {
			frags = h.Fragments.All() // full-collection baseline
		} else {
			frags = h.Fragments.Consuming(b.Labels)
		}
		h.reply(env, proto.FragmentReply{Fragments: frags})

	case proto.FeasibilityQuery:
		h.reply(env, proto.FeasibilityReply{Capable: h.Services.Capable(b.Tasks)})

	case proto.CallForBids:
		resp := h.Participant.HandleCallForBids(env.Workflow, b)
		if bid, ok := resp.(proto.Bid); ok {
			// Release the reservation if no award arrives in time.
			h.armExpiry(bid.Deadline)
		}
		h.reply(env, resp)

	case proto.CallForBidsBatch:
		resp := h.Participant.HandleCallForBidsBatch(env.Workflow, b)
		if len(resp.Bids) > 0 {
			// Every bid of the batch shares the batch deadline.
			h.armExpiry(resp.Bids[0].Deadline)
		}
		h.reply(env, resp)

	case proto.Award:
		c, lease, ack := h.Participant.HandleAward(env.Workflow, b)
		if ack.OK {
			h.Exec.Register(env.Workflow, c)
			h.armExpiry(lease)
		}
		h.reply(env, ack)

	case proto.LeaseRefresh:
		ack, lease := h.Participant.HandleLeaseRefresh(env.Workflow, b)
		h.armExpiry(lease)
		h.reply(env, ack)

	case proto.Cancel:
		h.Participant.HandleCancel(env.Workflow, b)
		h.Exec.Cancel(env.Workflow, b.Task)

	case proto.PlanSegment:
		h.Exec.SetPlan(env.Workflow, b)
		h.reply(env, proto.Ack{})

	case proto.LabelTransfer:
		h.Exec.OnLabel(env.Workflow, b)
		h.Engine.OnLabelTransfer(env.Workflow, b)

	case proto.TaskDone:
		h.Engine.OnTaskDone(env.Workflow, b)

	case proto.Advertise:
		if h.index != nil {
			h.index.ObserveAdvertise(env.From, b.Labels, b.Tasks)
		}
		// A pulled advertisement (nonzero ReqID) is answered with this
		// host's own capability set — anti-entropy, so one pull round
		// trip refreshes both directions. One-way refreshes get no
		// reply. Answer even with discovery disabled locally: the
		// capability set exists regardless of whether this host keeps
		// an index of its own.
		if env.ReqID != 0 {
			labels, tasks := h.capabilities()
			h.reply(env, proto.AdvertiseAck{Labels: labels, Tasks: tasks})
		}
	}
}

// armExpiry makes sure the host's expiry timer fires by deadline +
// expirySlack. A firm bid's hold deadline, an award's lease or a lease
// refresh passes its deadline in directly, so the award path never scans
// the calendar. The timer is re-armed only for a deadline earlier than
// the pending one: a later deadline is picked up by the sweep the
// pending timer runs. A zero deadline (a lease-less commitment) never
// expires.
func (h *Host) armExpiry(deadline time.Time) {
	if deadline.IsZero() {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.closed {
		h.expiry.arm(h.clk, deadline.Add(expirySlack))
	}
}

// sweepExpired is the expiry timer's callback. It releases every hold
// whose bid deadline passed without an award, and drops every commitment
// whose lease lapsed — the initiator stopped refreshing (it died, or it
// canceled and the cancel was lost) — together with the execution state
// that depended on it, returning the slots to the pool. It then re-arms
// at the calendar's next deadline. A callback whose timer was superseded
// by an earlier one returns at once: the newer timer owns the sweep.
func (h *Host) sweepExpired(gen uint64) {
	h.mu.Lock()
	if h.closed || !h.expiry.claim(gen) {
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.Participant.ExpireHolds()
	for _, c := range h.Participant.SweepLeases() {
		h.Exec.Cancel(c.Workflow, c.Task)
	}
	if next, ok := h.Schedule.NextExpiry(); ok {
		h.armExpiry(next)
	}
}

// Reset wipes the host's volatile protocol state — calendar, firm bids,
// commitment leases, execution runs, buffered labels — simulating a
// crash/restart that loses everything but the host's static configuration
// (fragments, services, mobility). The community layer calls it when the
// fault schedule kills the host.
func (h *Host) Reset() {
	h.Schedule.Clear()
	h.Participant.ResetSessions()
	h.Exec.Reset()
	if h.index != nil {
		h.index.Reset()
	}
}

// reply echoes the request's correlation ID back to the sender. Replies
// run under the host's root context: they belong to no caller and stop
// at host shutdown.
func (h *Host) reply(req proto.Envelope, body proto.Body) {
	env := proto.Envelope{ReqID: req.ReqID, Workflow: req.Workflow, Body: body}
	_ = h.sendEnvelope(h.ctx, req.From, env)
}

// --- capability advertisements (discovery) ---

// Discovery returns the host's capability index, or nil when discovery
// is disabled.
func (h *Host) Discovery() *discovery.Index { return h.index }

// capabilities snapshots what this host would advertise: the labels its
// fragments consume and the tasks it offers services for.
func (h *Host) capabilities() ([]model.LabelID, []model.TaskID) {
	return h.Fragments.ConsumedLabels(), h.Services.Tasks()
}

// scheduleAdvertise arms the next periodic refresh tick, jittered ±10%
// around the configured cadence by the seeded rng so community-wide
// refresh bursts desynchronize deterministically.
func (h *Host) scheduleAdvertise() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.index == nil || h.closed || h.endpoint == nil {
		return
	}
	d := h.discCfg.RefreshEvery
	if spread := int64(d / 5); spread > 0 {
		d += time.Duration(h.adRng.Int63n(spread)) - d/10
	}
	h.adTimer = h.clk.AfterFunc(d, h.advertiseTick)
}

// advertiseTick is the refresh timer callback. On the simulated clock it
// runs synchronously inside Advance, so the sends — whose delivery may
// itself need clock progress — happen on their own goroutine; only the
// cheap re-arm stays on the timer path.
func (h *Host) advertiseTick() {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed {
		return
	}
	go h.advertiseOnce(h.ctx)
	h.scheduleAdvertise()
}

// advertiseOnce pushes one one-way advertisement to every other member
// (the write-side coalescer batches the burst per link) and refreshes
// the host's own index entry. Push traffic is fire-and-forget: a lost
// refresh costs nothing until a full TTL of them are lost, at which
// point the receiver correctly presumes this host dead.
func (h *Host) advertiseOnce(ctx context.Context) {
	if h.index == nil {
		return
	}
	labels, tasks := h.capabilities()
	h.index.ObserveAdvertise(h.addr, labels, tasks)
	ad := proto.Advertise{Labels: labels, Tasks: tasks}
	for _, m := range h.Members() {
		if m == h.addr {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		_ = h.Send(ctx, m, "", ad)
	}
}

// AdvertiseSoon re-advertises asynchronously — the community layer calls
// it after a restart so the member announces itself without waiting out
// a refresh interval. Safe to call from clock timer callbacks.
func (h *Host) AdvertiseSoon() {
	h.mu.Lock()
	closed := h.closed
	h.mu.Unlock()
	if closed || h.index == nil {
		return
	}
	go h.advertiseOnce(h.ctx)
}

// AdvertiseNow warms discovery synchronously by pulling: it pushes this
// host's advertisement to every other member as a request and folds each
// AdvertiseAck's piggybacked capability set into the local index. One
// O(members) sweep fully populates a cold initiator — the community
// learns about this host, and this host learns about the community —
// without waiting for the community's own refresh cadence. Members that
// do not answer are skipped (their entries stay absent, so solicitation
// involving them falls back to broadcast rather than losing plans).
func (h *Host) AdvertiseNow(ctx context.Context) error {
	if h.index == nil {
		return fmt.Errorf("host %q: discovery disabled", h.addr)
	}
	labels, tasks := h.capabilities()
	h.index.ObserveAdvertise(h.addr, labels, tasks)
	ad := proto.Advertise{Labels: labels, Tasks: tasks}
	for _, m := range h.Members() {
		if m == h.addr {
			continue
		}
		reply, err := h.Call(ctx, m, "", ad, h.discCfg.CallTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue
		}
		if ack, ok := reply.(proto.AdvertiseAck); ok {
			h.index.ObserveAdvertise(m, ack.Labels, ack.Tasks)
		}
	}
	return nil
}

// SelectByLabels implements the engine's member directory: the members
// of candidates worth asking a fragment query for labels. ok is false
// when the index cannot restrict and the caller must use the full list.
func (h *Host) SelectByLabels(candidates []proto.Addr, labels []model.LabelID) ([]proto.Addr, bool) {
	if h.index == nil || len(labels) == 0 {
		return nil, false
	}
	return h.index.SelectByLabels(candidates, labels)
}

// SelectByTasks implements the engine's member directory for capability
// and solicitation sweeps, with the same contract as SelectByLabels.
func (h *Host) SelectByTasks(candidates []proto.Addr, tasks []model.TaskID) ([]proto.Addr, bool) {
	if h.index == nil || len(tasks) == 0 {
		return nil, false
	}
	return h.index.SelectByTasks(candidates, tasks)
}

// routeReply delivers a correlated reply to its waiting Call.
func (h *Host) routeReply(env proto.Envelope) {
	if env.ReqID == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if pc, ok := h.pending[env.ReqID]; ok {
		delete(h.pending, env.ReqID)
		pc.complete(callReplied, env.Body)
	}
}
