package host

import (
	"sync"

	"openwf/internal/proto"
)

// DefaultWorkers is the dispatcher's worker-pool bound when the host
// configuration does not set one. Session work is latency-bound (waiting
// on auctions, schedules, and peers), not CPU-bound, so the default is
// deliberately larger than typical core counts.
const DefaultWorkers = 8

// sessionQueue is the pending inbound traffic of one workflow session on
// this host. Envelopes of one workflow are processed strictly in arrival
// order (the per-link FIFO guarantee extends through the dispatcher);
// envelopes of different workflows may be processed concurrently.
type sessionQueue struct {
	id    string
	queue []proto.Envelope
	// scheduled is true while the session is running on a worker or
	// waiting in the runnable list; it is never in both places.
	scheduled bool
}

// dispatcher fans a host's inbound envelopes out to per-workflow session
// workers, bounded by a worker pool. It replaces the single-threaded
// Handle loop: one slow session (a long service invocation, a blocked
// auction) no longer stalls every other workflow on the host, which is
// what lets N concurrent Initiates multiplex over one participant.
//
// Invariants:
//   - per-workflow FIFO: a session's envelopes are handled one at a
//     time, in arrival order;
//   - bounded concurrency: at most `workers` envelopes are being
//     handled at once across all sessions;
//   - at most `workers` goroutines per host: workers start lazily, idle
//     ones park (keeping their grown stacks for the next session), and
//     all exit on close;
//   - retired session records, queue array included, are recycled
//     through a free list of at most `workers` entries, so a stream of
//     one-envelope sessions allocates nothing in steady state.
type dispatcher struct {
	process func(proto.Envelope)
	workers int

	mu       sync.Mutex
	wake     sync.Cond // on mu; signalled per runnable session, broadcast on close
	sessions map[string]*sessionQueue
	runnable []*sessionQueue // FIFO of scheduled sessions awaiting a worker
	free     []*sessionQueue // retired records with empty queues, ≤ workers
	live     int             // workers started and not yet exited
	idle     int             // parked workers no signal has claimed yet
	closed   bool
}

func newDispatcher(process func(proto.Envelope), workers int) *dispatcher {
	if workers <= 0 {
		workers = DefaultWorkers
	}
	d := &dispatcher{
		process:  process,
		workers:  workers,
		sessions: make(map[string]*sessionQueue),
	}
	d.wake.L = &d.mu
	return d
}

// enqueue routes one envelope to its workflow's session, scheduling the
// session on the worker pool if it is not already scheduled. It never
// blocks.
func (d *dispatcher) enqueue(env proto.Envelope) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	s, ok := d.sessions[env.Workflow]
	if !ok {
		if n := len(d.free); n > 0 {
			s = d.free[n-1]
			d.free[n-1] = nil
			d.free = d.free[:n-1]
			s.id = env.Workflow
		} else {
			s = &sessionQueue{id: env.Workflow}
		}
		d.sessions[env.Workflow] = s
	}
	s.queue = append(s.queue, env)
	if !s.scheduled {
		s.scheduled = true
		d.runnable = append(d.runnable, s)
		switch {
		case d.idle > 0:
			// Claim the parked worker now, not when it runs: a second
			// enqueue before it wakes must see it as taken and start
			// another worker rather than signal nobody.
			d.idle--
			d.wake.Signal()
		case d.live < d.workers:
			d.live++
			go d.run()
		}
	}
	d.mu.Unlock()
}

// run is one pool worker: it drains runnable sessions one at a time and
// parks while there are none, until the dispatcher closes.
func (d *dispatcher) run() {
	d.mu.Lock()
	for {
		for len(d.runnable) == 0 && !d.closed {
			d.idle++
			d.wake.Wait()
		}
		if d.closed {
			d.live--
			d.mu.Unlock()
			return
		}
		// Pop by shifting, so later appends reuse the backing array
		// instead of allocating one per session.
		s := d.runnable[0]
		n := copy(d.runnable, d.runnable[1:])
		d.runnable[n] = nil
		d.runnable = d.runnable[:n]
		for len(s.queue) > 0 && !d.closed {
			batch := s.queue
			s.queue = nil
			d.mu.Unlock()
			for _, env := range batch {
				d.process(env)
			}
			clear(batch)
			d.mu.Lock()
			if s.queue == nil {
				// Nothing arrived meanwhile: the drained batch's array
				// becomes the queue again.
				s.queue = batch[:0]
			}
		}
		// Session drained (or the dispatcher is closing): retire it.
		s.scheduled = false
		if len(s.queue) == 0 {
			delete(d.sessions, s.id)
			if len(d.free) < d.workers {
				s.id = ""
				d.free = append(d.free, s)
			}
		}
	}
}

// close stops the dispatcher: queued envelopes are dropped, new ones
// refused, and parked workers woken to exit. In-flight handlers finish
// their current envelope; close does not wait for them (host shutdown
// cancels their contexts).
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.runnable = nil
	for _, s := range d.sessions {
		s.queue = nil
	}
	d.wake.Broadcast()
	d.mu.Unlock()
}

// ActiveSessions returns how many workflow sessions currently have
// queued or in-flight inbound traffic.
func (d *dispatcher) ActiveSessions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sessions)
}
