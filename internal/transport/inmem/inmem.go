// Package inmem implements the simulated network used by the paper's
// simulation experiments (§5): every host runs in one process and
// communicates solely through this in-memory transport. The network can
// model an ad hoc wireless medium: per-message latency (propagation plus
// serialization at a configured bandwidth), jitter, random loss, and
// community partitions. Delivery is FIFO per directed link, and each
// endpoint processes messages sequentially, like a single device.
//
// # Concurrency structure
//
// The send path is link-local so concurrent senders scale with cores
// (DESIGN.md §14): all per-directed-link state — the write coalescer,
// the delay line, the loss override, and a deterministically seeded
// random source — lives in a sharded map keyed by (from, to), and the
// network-wide facts a send must consult (who is attached, partitions,
// crash state) are published as an immutable copy-on-write snapshot
// behind an atomic pointer. The common send therefore touches only its
// link shard plus one atomic load. The global mutex remains the slow
// path: fault injection, store-and-forward buffering, endpoint attach/
// detach, and Close mutate the authoritative state under it and then
// swap in a fresh snapshot.
package inmem

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"openwf/internal/clock"
	"openwf/internal/proto"
	"openwf/internal/transport"
)

// LinkModel computes the behavior of one message on a directed link:
// the delivery latency and whether the medium drops the message. size is
// the encoded message size in bytes (0 when marshaling is disabled). The
// model is called with its link's lock held (links draw from independent
// per-link random sources); it must not block.
type LinkModel func(from, to proto.Addr, size int, rng *rand.Rand) (latency time.Duration, drop bool)

// FixedLatency returns a LinkModel with constant latency and no loss.
func FixedLatency(d time.Duration) LinkModel {
	return func(_, _ proto.Addr, _ int, _ *rand.Rand) (time.Duration, bool) {
		return d, false
	}
}

// Wireless models an 802.11-style shared medium: each message takes
// base latency (MAC + propagation) plus its serialization time at the
// given bandwidth, plus uniform jitter in [0, jitter).
//
// The paper's empirical configuration used 802.11g at 54 Mbit/s;
// Wireless(1200*time.Microsecond, 400*time.Microsecond, 54e6) approximates
// the per-hop behavior of that medium for small control messages.
func Wireless(base, jitter time.Duration, bandwidthBps float64) LinkModel {
	return func(_, _ proto.Addr, size int, rng *rand.Rand) (time.Duration, bool) {
		lat := base
		if bandwidthBps > 0 {
			lat += time.Duration(float64(size*8) / bandwidthBps * float64(time.Second))
		}
		if jitter > 0 {
			lat += time.Duration(rng.Int63n(int64(jitter)))
		}
		return lat, false
	}
}

// Lossy wraps a model with uniform random loss probability p.
func Lossy(p float64, inner LinkModel) LinkModel {
	return func(from, to proto.Addr, size int, rng *rand.Rand) (time.Duration, bool) {
		if rng.Float64() < p {
			return 0, true
		}
		if inner == nil {
			return 0, false
		}
		return inner(from, to, size, rng)
	}
}

// Option configures a Network.
type Option func(*Network)

// WithClock sets the clock used for latency sleeps (default: wall clock).
func WithClock(c clock.Clock) Option { return func(n *Network) { n.clock = c } }

// WithLinkModel sets the latency/loss model (default: instantaneous,
// lossless delivery).
func WithLinkModel(m LinkModel) Option { return func(n *Network) { n.model = m } }

// WithMarshal controls whether envelopes are wire-encoded on send and
// decoded on delivery (default true). Marshaling isolates endpoints from
// shared mutable state and charges realistic serialization cost; disabling
// it passes envelopes by value for maximum simulation throughput.
func WithMarshal(enabled bool) Option { return func(n *Network) { n.marshal = enabled } }

// WithSeed seeds the network's randomness (jitter, loss). Each directed
// link derives its own independent source from this seed and the link's
// addresses, so the streams are deterministic per link regardless of how
// sends interleave across links. Default 1.
func WithSeed(seed int64) Option { return func(n *Network) { n.seed = seed } }

// WithStoreAndForward buffers messages addressed to unreachable hosts
// (partitioned or not yet attached) and delivers them, in order, once the
// recipient becomes reachable again — the store-carry-forward behavior of
// delay-tolerant MANET routing that the paper points to for accommodating
// transient connectivity (its reference [3]). Without it, unreachable
// recipients lose messages silently like a plain wireless medium.
func WithStoreAndForward(enabled bool) Option {
	return func(n *Network) { n.storeAndForward = enabled }
}

// linkShardCount is the number of link shards (power of two; bounds
// cross-link lock contention, not link count).
const linkShardCount = 64

// linkShard owns the per-directed-link state for a slice of the link
// keyspace.
type linkShard struct {
	mu    sync.Mutex
	links map[linkKey]*linkState
}

// linkState is everything one directed link needs on the send path. The
// coalescer has its own internal lock; mu guards the rest.
type linkState struct {
	outbox transport.Coalescer

	mu sync.Mutex
	// rng is this link's private random source (jitter, loss draws),
	// derived deterministically from the network seed and the link key.
	rng *rand.Rand
	// loss is the per-link loss override (SetLinkLoss); 0 means none.
	loss float64
	// line is the link's delay line, created on the first latency-bearing
	// delivery.
	line *link
}

// netSnapshot is the immutable network-wide state the send fast path
// consults: one atomic load answers "is the network up, is either end
// crashed, is the recipient attached and reachable". Mutators rebuild
// and swap it under the global lock (publishLocked); readers must treat
// every map as read-only.
type netSnapshot struct {
	closed     bool
	endpoints  map[proto.Addr]*endpoint
	partition  map[proto.Addr]int
	crashed    map[proto.Addr]bool
	crashEpoch map[proto.Addr]uint64
}

func (s *netSnapshot) reachable(from, to proto.Addr) bool {
	if s.partition == nil || from == to {
		return true
	}
	gf, okf := s.partition[from]
	gt, okt := s.partition[to]
	return okf && okt && gf == gt
}

// Network is a simulated broadcast domain connecting endpoints. Create
// endpoints with Endpoint; close the network to tear everything down.
type Network struct {
	clock           clock.Clock
	model           LinkModel
	marshal         bool
	seed            int64
	storeAndForward bool

	// snap is the copy-on-write fast-path view; see netSnapshot.
	snap atomic.Pointer[netSnapshot]
	// linkShards hold all per-directed-link state; see linkShard.
	linkShards [linkShardCount]linkShard

	// mu guards the authoritative slow-path state below. Every mutation
	// ends with publishLocked so the fast path observes it.
	mu        sync.Mutex
	endpoints map[proto.Addr]*endpoint
	partition map[proto.Addr]int
	// crashed marks hosts that are dark (see Crash/Restart in faults.go);
	// crashEpoch counts each host's crashes so frames in flight across a
	// crash are severed even when the host restarts before their due time.
	// Both are nil until first used.
	crashed    map[proto.Addr]bool
	crashEpoch map[proto.Addr]uint64
	// stored holds store-and-forward messages awaiting reachability,
	// in arrival order per (from, to) pair.
	stored map[linkKey][]delivery
	// faultTimers are the armed fault schedules' timers, stopped by
	// Close.
	faultTimers []clock.Timer
	closed      bool
	// done closes when the network shuts down, waking link pumps out of
	// latency waits so Close does not leak goroutines sleeping on long
	// modeled delays.
	done chan struct{}

	sent          atomic.Int64
	delivered     atomic.Int64
	dropped       atomic.Int64
	bytes         atomic.Int64
	frames        atomic.Int64
	batches       atomic.Int64
	calls         atomic.Int64
	framesDropped atomic.Int64
}

// Stats is the network's round-trip and framing accounting — the shared
// transport.Stats shape (see its field documentation), kept as an alias
// so existing callers and the daemon's metrics scrape read the same
// counters from either substrate. The Calls column is where PR 5's ≥3x
// round-trip acceptance bar reads directly.
type Stats = transport.Stats

// Stats returns the current counters.
func (n *Network) Stats() Stats {
	return Stats{
		Envelopes:     n.sent.Load(),
		Frames:        n.frames.Load(),
		Batches:       n.batches.Load(),
		Calls:         n.calls.Load(),
		FramesDropped: n.framesDropped.Load(),
	}
}

var _ transport.Reporter = (*Network)(nil)

// TransportStats implements transport.Reporter.
func (n *Network) TransportStats() transport.Stats { return n.Stats() }

type linkKey struct{ from, to proto.Addr }

// NewNetwork returns an empty simulated network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		clock:     clock.New(),
		marshal:   true,
		seed:      1,
		endpoints: make(map[proto.Addr]*endpoint),
		stored:    make(map[linkKey][]delivery),
		done:      make(chan struct{}),
	}
	for _, opt := range opts {
		opt(n)
	}
	for i := range n.linkShards {
		n.linkShards[i].links = make(map[linkKey]*linkState)
	}
	n.snap.Store(&netSnapshot{})
	n.publishLocked() // no lock needed yet: the network is unshared
	return n
}

// publishLocked rebuilds the fast-path snapshot from the authoritative
// state. Callers hold n.mu (except NewNetwork, before the network is
// shared). Faults and attach/detach are rare next to sends, so copying
// the maps on every mutation is the cheap side of the trade.
func (n *Network) publishLocked() {
	s := &netSnapshot{closed: n.closed}
	if len(n.endpoints) > 0 {
		s.endpoints = make(map[proto.Addr]*endpoint, len(n.endpoints))
		for a, ep := range n.endpoints {
			s.endpoints[a] = ep
		}
	}
	if len(n.partition) > 0 {
		s.partition = make(map[proto.Addr]int, len(n.partition))
		for a, g := range n.partition {
			s.partition[a] = g
		}
	}
	if len(n.crashed) > 0 {
		s.crashed = make(map[proto.Addr]bool, len(n.crashed))
		for a, c := range n.crashed {
			s.crashed[a] = c
		}
	}
	if len(n.crashEpoch) > 0 {
		s.crashEpoch = make(map[proto.Addr]uint64, len(n.crashEpoch))
		for a, e := range n.crashEpoch {
			s.crashEpoch[a] = e
		}
	}
	n.snap.Store(s)
}

// linkFor returns (creating on first use) the per-link state for a
// directed link: one short shard-lock acquisition on the send path.
func (n *Network) linkFor(from, to proto.Addr) *linkState {
	k := linkKey{from, to}
	sh := &n.linkShards[linkShardIndex(k)]
	sh.mu.Lock()
	ls, ok := sh.links[k]
	if !ok {
		ls = &linkState{rng: rand.New(rand.NewSource(linkSeed(n.seed, k)))}
		sh.links[k] = ls
	}
	sh.mu.Unlock()
	return ls
}

// outboxFor returns the write-side coalescer for a directed link (the
// state machine itself is transport.Coalescer, shared with tcpnet).
func (n *Network) outboxFor(from, to proto.Addr) *transport.Coalescer {
	return &n.linkFor(from, to).outbox
}

// linkShardIndex hashes a link key to its shard (FNV-1a).
func linkShardIndex(k linkKey) int {
	return int(linkHash(k) & (linkShardCount - 1))
}

// linkSeed derives a link's private random seed from the network seed:
// deterministic per (seed, from, to), independent across links.
func linkSeed(seed int64, k linkKey) int64 {
	return seed ^ int64(linkHash(k))
}

func linkHash(k linkKey) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(k.from); i++ {
		h ^= uint64(k.from[i])
		h *= prime64
	}
	h ^= 0xff // separator
	h *= prime64
	for i := 0; i < len(k.to); i++ {
		h ^= uint64(k.to[i])
		h *= prime64
	}
	return h
}

// Endpoint attaches a host to the network. The handler is invoked
// sequentially from a dedicated goroutine for every delivered message.
func (n *Network) Endpoint(addr proto.Addr, handler transport.Handler) (transport.Endpoint, error) {
	if handler == nil {
		return nil, fmt.Errorf("inmem: nil handler for %q", addr)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("inmem: network closed")
	}
	if _, dup := n.endpoints[addr]; dup {
		return nil, fmt.Errorf("inmem: address %q already in use", addr)
	}
	ep := &endpoint{net: n, addr: addr, handler: handler, box: newMailbox()}
	n.endpoints[addr] = ep
	n.publishLocked()
	go ep.pump()
	// A late joiner may have store-and-forward traffic waiting.
	flush := n.collectFlushableLocked()
	n.deliverStored(flush)
	return ep, nil
}

// SetPartition splits the community into isolated groups: hosts may only
// reach hosts in their own group. Hosts not listed in any group are
// isolated entirely. Pass no groups to heal the partition. With
// store-and-forward enabled, buffered messages whose recipients became
// reachable are flushed in order.
func (n *Network) SetPartition(groups ...[]proto.Addr) {
	n.mu.Lock()
	if len(groups) == 0 {
		n.partition = nil
	} else {
		n.partition = make(map[proto.Addr]int)
		for i, g := range groups {
			for _, a := range g {
				n.partition[a] = i + 1
			}
		}
	}
	n.publishLocked()
	flush := n.collectFlushableLocked()
	n.mu.Unlock()
	n.deliverStored(flush)
}

// storedDelivery pairs a buffered message with its resolved target.
type storedDelivery struct {
	target *endpoint
	d      delivery
}

// collectFlushableLocked removes and returns every stored message whose
// recipient is now reachable.
func (n *Network) collectFlushableLocked() []storedDelivery {
	if !n.storeAndForward || len(n.stored) == 0 {
		return nil
	}
	var out []storedDelivery
	for key, msgs := range n.stored {
		target, ok := n.endpoints[key.to]
		if !ok || !n.reachableLocked(key.from, key.to) || n.crashed[key.to] {
			continue
		}
		for _, d := range msgs {
			out = append(out, storedDelivery{target: target, d: d})
		}
		delete(n.stored, key)
	}
	return out
}

// deliverStored hands flushed messages to their targets.
func (n *Network) deliverStored(flush []storedDelivery) {
	for _, sd := range flush {
		if !sd.target.box.push(sd.d) {
			n.dropped.Add(envelopeCount(sd.d.env))
			n.framesDropped.Add(1)
		}
	}
}

// Stored returns how many messages are currently buffered awaiting
// reachability (store-and-forward mode only).
func (n *Network) Stored() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, msgs := range n.stored {
		total += len(msgs)
	}
	return total
}

// Messages returns the number of envelopes accepted for transmission.
func (n *Network) Messages() int64 { return n.sent.Load() }

// Delivered returns the number of envelopes handed to handlers.
func (n *Network) Delivered() int64 { return n.delivered.Load() }

// Dropped returns the number of envelopes lost (partition, loss model, or
// missing/closed recipient).
func (n *Network) Dropped() int64 { return n.dropped.Load() }

// Bytes returns the total encoded payload bytes transmitted (0 when
// marshaling is disabled).
func (n *Network) Bytes() int64 { return n.bytes.Load() }

// ResetCounters zeroes the traffic counters (between evaluation runs).
func (n *Network) ResetCounters() {
	n.sent.Store(0)
	n.delivered.Store(0)
	n.dropped.Store(0)
	n.bytes.Store(0)
	n.frames.Store(0)
	n.batches.Store(0)
	n.calls.Store(0)
	n.framesDropped.Store(0)
}

// Close tears down the network and all endpoints.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.done)
	for _, t := range n.faultTimers {
		t.Stop()
	}
	n.faultTimers = nil
	n.publishLocked()
	eps := make([]*endpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.closeLocal()
	}
	for i := range n.linkShards {
		sh := &n.linkShards[i]
		sh.mu.Lock()
		for _, ls := range sh.links {
			ls.mu.Lock()
			if ls.line != nil {
				ls.line.box.close()
			}
			ls.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return nil
}

// encPool recycles encode buffers across sends: the payload must be
// copied out (it is retained until delivery), but the pooled buffer's
// grown backing array is reused, so steady-state broadcast traffic stops
// churning the GC with per-envelope buffer growth.
var encPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// send queues one envelope through the link's write coalescer: an idle
// link transmits it immediately as its own frame (zero added latency when
// the queue has one entry); a busy link queues it for the busy sender to
// flush as part of an EnvelopeBatch frame.
func (n *Network) send(ctx context.Context, from *endpoint, to proto.Addr, env proto.Envelope) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env.From = from.addr
	env.To = to
	ls := n.linkFor(from.addr, to)
	writer, dropped := ls.outbox.Admit(env)
	if dropped {
		// Queue at capacity behind a stalled link: silent loss, like the
		// wireless medium (counted on both sides of the Sent =
		// Delivered + Dropped identity).
		n.sent.Add(1)
		n.dropped.Add(1)
		return nil
	}
	if !writer {
		return nil
	}
	err := n.transmit(from, to, env, ls)
	n.drainOutbox(from, to, &ls.outbox)
	return err
}

// drainOutbox flushes everything queued while the caller was
// transmitting, one EnvelopeBatch frame per flush, until the queue is
// empty. ob must be the coalescer of the from→to link.
func (n *Network) drainOutbox(from *endpoint, to proto.Addr, ob *transport.Coalescer) {
	ls := n.linkFor(from.addr, to)
	ob.Drain(from.addr, to, func(env proto.Envelope) error {
		return n.transmit(from, to, env, ls)
	})
}

// envelopeCount returns how many logical envelopes a frame carries, so
// the sent/delivered/dropped counters stay in envelope units (Sent =
// Delivered + Dropped) whether or not the frame was coalesced.
func envelopeCount(env proto.Envelope) int64 {
	if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
		return int64(len(batch.Envelopes))
	}
	return 1
}

// transmit implements the delivery decision for one frame (a single
// envelope or a coalesced batch). The common case reads only the
// atomic snapshot and the link's own state; the global lock is taken
// only when the snapshot says the recipient is missing or unreachable
// (the store-and-forward / late-joiner slow path, which must consult
// authoritative state so no flush is missed).
func (n *Network) transmit(from *endpoint, to proto.Addr, env proto.Envelope, ls *linkState) error {
	count := envelopeCount(env)
	callCount := int64(0)
	if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
		for _, inner := range batch.Envelopes {
			if proto.IsRequest(inner.Body) {
				callCount++
			}
		}
	} else if proto.IsRequest(env.Body) {
		callCount = 1
	}

	var payload []byte
	size := 0
	if n.marshal {
		buf := encPool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := proto.EncodeTo(buf, env); err != nil {
			encPool.Put(buf)
			return err
		}
		payload = append(make([]byte, 0, buf.Len()), buf.Bytes()...)
		size = len(payload)
		encPool.Put(buf)
	}

	snap := n.snap.Load()
	if snap.closed {
		return fmt.Errorf("inmem: network closed")
	}
	if snap.crashed[from.addr] {
		// A crashed host cannot transmit: the failure is loud on the
		// sender's side (its own Call fails) rather than silent loss.
		return fmt.Errorf("inmem: host %q crashed", from.addr)
	}
	n.sent.Add(count)
	n.frames.Add(1)
	if count > 1 {
		n.batches.Add(1)
	}
	n.calls.Add(callCount)
	n.bytes.Add(int64(size))

	if snap.crashed[to] {
		// Dark recipient: the frame is lost, never stored — a crash is
		// loss, unlike a partition.
		n.dropped.Add(count)
		n.framesDropped.Add(1)
		return nil
	}
	target, ok := snap.endpoints[to]
	epoch := snap.crashEpoch[to]
	if !ok || !snap.reachable(from.addr, to) {
		target, epoch, ok = n.resolveSlow(from.addr, to, env, payload, count)
		if !ok {
			return nil // stored or dropped; already accounted
		}
	}
	return n.deliver(target, to, env, payload, size, count, epoch, ls)
}

// resolveSlow re-checks a recipient the snapshot called missing or
// unreachable against the authoritative state: an endpoint attaching (or
// a partition healing) concurrently with the send must not lose the
// message to a stale snapshot, and store-and-forward buffering must
// append under the same lock the flush runs under, or a buffered message
// could miss its flush forever. Returns ok=false when the message was
// consumed here (stored or counted dropped).
func (n *Network) resolveSlow(from, to proto.Addr, env proto.Envelope, payload []byte, count int64) (*endpoint, uint64, bool) {
	n.mu.Lock()
	if n.crashed[to] {
		n.mu.Unlock()
		n.dropped.Add(count)
		n.framesDropped.Add(1)
		return nil, 0, false
	}
	if target, ok := n.endpoints[to]; ok && n.reachableLocked(from, to) {
		epoch := n.crashEpoch[to]
		n.mu.Unlock()
		return target, epoch, true
	}
	if n.storeAndForward {
		key := linkKey{from, to}
		n.stored[key] = append(n.stored[key], delivery{
			env: env, payload: payload, due: n.clock.Now(),
		})
		n.mu.Unlock()
		return nil, 0, false
	}
	n.mu.Unlock()
	n.dropped.Add(count)
	n.framesDropped.Add(1)
	return nil, 0, false // silent loss, like a wireless medium
}

// deliver runs the link-local half of a transmit: loss draw, latency
// model, and hand-off to the recipient's inbox or the link's delay line.
// Only the link's own lock is held.
func (n *Network) deliver(target *endpoint, to proto.Addr, env proto.Envelope, payload []byte, size int, count int64, epoch uint64, ls *linkState) error {
	ls.mu.Lock()
	if ls.loss > 0 && ls.rng.Float64() < ls.loss {
		ls.mu.Unlock()
		n.dropped.Add(count)
		n.framesDropped.Add(1)
		return nil
	}
	var latency time.Duration
	if n.model != nil {
		var drop bool
		latency, drop = n.model(env.From, to, size, ls.rng)
		if drop {
			ls.mu.Unlock()
			n.dropped.Add(count)
			n.framesDropped.Add(1)
			return nil
		}
	}
	d := delivery{env: env, payload: payload, due: n.clock.Now().Add(latency), epoch: epoch}
	if latency <= 0 {
		ls.mu.Unlock()
		if !target.box.push(d) {
			n.dropped.Add(count)
			n.framesDropped.Add(1)
		}
		return nil
	}
	l := ls.line
	if l == nil {
		l = &link{net: n, target: target, box: newMailbox()}
		ls.line = l
		go l.pump()
	}
	ls.mu.Unlock()
	if !l.box.push(d) {
		n.dropped.Add(count)
		n.framesDropped.Add(1)
	}
	return nil
}

func (n *Network) reachableLocked(from, to proto.Addr) bool {
	if n.partition == nil || from == to {
		return true
	}
	gf, okf := n.partition[from]
	gt, okt := n.partition[to]
	return okf && okt && gf == gt
}

// link is the FIFO delay line for a directed link. Each link has a
// goroutine that holds messages until their due time, preserving
// per-link ordering while letting latencies overlap (propagation is
// concurrent; ordering is not violated because every message on a link
// has the same base model).
type link struct {
	net    *Network
	target *endpoint
	box    *mailbox
}

func (l *link) pump() {
	for {
		d, ok := l.box.pop()
		if !ok {
			return
		}
		if wait := d.due.Sub(l.net.clock.Now()); wait > 0 {
			select {
			case <-l.net.clock.After(wait):
			case <-l.net.done:
				return // network closed: drop in-flight latency waits
			}
		}
		// Re-check at delivery time: a frame is lost if its recipient is
		// dark now, or crashed at any point since the frame was sent (the
		// epoch moved) — a restart never resurrects in-flight traffic.
		// The inbox's own dark flag backstops this check: a push racing a
		// crash is refused by the mailbox itself (see Crash).
		snap := l.net.snap.Load()
		dark := snap.crashed[l.target.addr] || snap.crashEpoch[l.target.addr] != d.epoch
		if dark || !l.target.box.push(d) {
			l.net.dropped.Add(envelopeCount(d.env))
			l.net.framesDropped.Add(1)
		}
	}
}

type delivery struct {
	env     proto.Envelope
	payload []byte
	due     time.Time
	// epoch is the recipient's crash epoch at send time; a mismatch at
	// delivery means the recipient crashed while the frame was in flight.
	epoch uint64
}

// endpoint implements transport.Endpoint.
type endpoint struct {
	net     *Network
	addr    proto.Addr
	handler transport.Handler
	box     *mailbox
}

var _ transport.Endpoint = (*endpoint)(nil)

// Addr implements transport.Endpoint.
func (e *endpoint) Addr() proto.Addr { return e.addr }

// Send implements transport.Endpoint.
func (e *endpoint) Send(ctx context.Context, to proto.Addr, env proto.Envelope) error {
	return e.net.send(ctx, e, to, env)
}

// Close implements transport.Endpoint.
func (e *endpoint) Close() error {
	e.net.mu.Lock()
	delete(e.net.endpoints, e.addr)
	e.net.publishLocked()
	e.net.mu.Unlock()
	e.closeLocal()
	return nil
}

func (e *endpoint) closeLocal() { e.box.close() }

// pump delivers queued messages to the handler, one at a time. Coalesced
// frames are split here: the handler sees only plain envelopes, in the
// order they were queued on the sending side (the per-link FIFO
// guarantee passes through batching intact).
func (e *endpoint) pump() {
	for {
		d, ok := e.box.pop()
		if !ok {
			return
		}
		env := d.env
		if e.net.marshal {
			decoded, err := proto.Decode(d.payload)
			if err != nil {
				e.net.dropped.Add(envelopeCount(d.env))
				e.net.framesDropped.Add(1)
				continue
			}
			env = decoded
		}
		if batch, ok := env.Body.(proto.EnvelopeBatch); ok {
			for _, inner := range batch.Envelopes {
				e.net.delivered.Add(1)
				e.handler(inner)
			}
			continue
		}
		e.net.delivered.Add(1)
		e.handler(env)
	}
}

// mailbox is an unbounded FIFO queue; push never blocks, pop blocks until
// an item arrives or the mailbox closes. A dark mailbox (its host has
// crashed) refuses pushes until Restart lifts the flag: push and crash
// purge serialize on the mailbox's own lock, so no frame can slip into a
// crashed host's inbox behind a stale snapshot.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []delivery
	closed bool
	dark   bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues an item; it reports false if the mailbox is closed or
// dark.
func (m *mailbox) push(d delivery) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.dark {
		return false
	}
	m.items = append(m.items, d)
	m.cond.Signal()
	return true
}

// setDark flips the crash flag. Going dark drops every queued item,
// returning them for loss accounting; the mailbox stays open (a crashed
// host's endpoint survives to be restarted).
func (m *mailbox) setDark(dark bool) []delivery {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dark = dark
	if !dark {
		return nil
	}
	out := m.items
	m.items = nil
	return out
}

// pop dequeues the oldest item, blocking as needed; ok is false once the
// mailbox is closed and drained.
func (m *mailbox) pop() (delivery, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.items) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.items) == 0 {
		return delivery{}, false
	}
	d := m.items[0]
	m.items = m.items[1:]
	return d, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.items = nil
	m.cond.Broadcast()
}
