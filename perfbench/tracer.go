package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"openwf/internal/core"
	"openwf/internal/engine"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/trace"
)

// maxSpans bounds the member turnaround spans a traced run keeps for its
// span file; the per-layer metrics are computed from every op
// regardless.
const maxSpans = 100_000

// turnarounds maps each traced request kind to the reply whose Send
// ends a member's turnaround, and names the span.
var turnarounds = map[string]struct{ reply, span string }{
	"fragment-query":      {"fragment-reply", "fragment.turnaround"},
	"call-for-bids-batch": {"bid-batch", "auction.bid_turnaround"},
}

// tracer is the traced run's recorder. It implements trace.Recorder
// (every message every host sends or receives) and supplies the engine
// Observer, and the benchmark's client loop reports each op's own
// timestamps to it. Everything is kept in memory and written out at the
// end of the run.
type tracer struct {
	mu    sync.Mutex
	start time.Time

	// sent holds Send times awaiting their Recv, first-in-first-out per
	// (sender, receiver, kind, workflow): the in-memory links deliver
	// in order, so the i-th Recv on a key matches its i-th Send.
	sent map[linkKey][]time.Time
	// asked holds a member's request Recv times awaiting its reply
	// Send, keyed from the member's side.
	asked map[linkKey][]time.Time
	// recv counts received envelopes by kind.
	recv map[string]int64

	delivery, turnFragment, turnBid *sampler
	wait, construct, allocate       *sampler
	remove, canCommit               *sampler

	workflows map[string]*wfTrace

	ops                              int
	replans, failedAuctions          int64
	rounds, collected, explored      int64
	workflowTasks, allocatedTasks    int64
	self                             map[string]time.Duration
	metas                            [][]proto.TaskMeta
	spans                            []spanRecord
	nextSpan, nextOp, spansDiscarded int64
}

var _ trace.Recorder = (*tracer)(nil)

type linkKey struct {
	from, to proto.Addr
	kind, wf string
}

// wfTrace is what the hooks saw of one workflow.
type wfTrace struct {
	constructDone, sessionDone time.Time
	turns                      []namedInterval
}

type namedInterval struct {
	name string
	interval
}

// spanRecord is one written span; times are microseconds from the start
// of the traced window.
type spanRecord struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// maxProbePlans bounds how many plans' metas the codec probe keeps.
const maxProbePlans = 16

func newTracer(seed int64) *tracer {
	t := &tracer{}
	t.reset(seed)
	return t
}

// begin clears everything recorded so far (the warm-up ops) and starts
// the traced window.
func (t *tracer) begin(seed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reset(seed)
}

func (t *tracer) reset(seed int64) {
	t.start = time.Now()
	t.sent = make(map[linkKey][]time.Time)
	t.asked = make(map[linkKey][]time.Time)
	t.recv = make(map[string]int64)
	for i, s := range []**sampler{&t.delivery, &t.turnFragment, &t.turnBid, &t.wait, &t.construct, &t.allocate, &t.remove, &t.canCommit} {
		*s = newSampler(seed + int64(i))
	}
	t.workflows = make(map[string]*wfTrace)
	t.ops = 0
	t.replans, t.failedAuctions = 0, 0
	t.rounds, t.collected, t.explored = 0, 0, 0
	t.workflowTasks, t.allocatedTasks = 0, 0
	t.self = make(map[string]time.Duration)
	t.metas = nil
	t.spans = nil
	t.nextSpan, t.nextOp, t.spansDiscarded = 0, 0, 0
}

// Record implements trace.Recorder.
func (t *tracer) Record(e trace.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.Dir {
	case trace.Send:
		k := linkKey{e.Host, e.Peer, e.Kind, e.Workflow}
		t.sent[k] = append(t.sent[k], e.At)
		for req, ta := range turnarounds {
			if ta.reply != e.Kind {
				continue
			}
			at, ok := pop(t.asked, linkKey{e.Host, e.Peer, req, e.Workflow})
			if !ok {
				continue
			}
			d := e.At.Sub(at)
			if req == "fragment-query" {
				t.turnFragment.addDuration(d, time.Microsecond)
			} else {
				t.turnBid.addDuration(d, time.Microsecond)
			}
			w := t.workflow(e.Workflow)
			w.turns = append(w.turns, namedInterval{ta.span, interval{at, e.At}})
		}
	case trace.Recv:
		t.recv[e.Kind]++
		if at, ok := pop(t.sent, linkKey{e.Peer, e.Host, e.Kind, e.Workflow}); ok {
			t.delivery.addDuration(e.At.Sub(at), time.Microsecond)
		}
		if _, ok := turnarounds[e.Kind]; ok {
			k := linkKey{e.Host, e.Peer, e.Kind, e.Workflow}
			t.asked[k] = append(t.asked[k], e.At)
		}
	}
}

// pop removes and returns the oldest time queued under k.
func pop(m map[linkKey][]time.Time, k linkKey) (time.Time, bool) {
	q := m[k]
	if len(q) == 0 {
		return time.Time{}, false
	}
	at := q[0]
	if len(q) == 1 {
		delete(m, k)
	} else {
		m[k] = q[1:]
	}
	return at, true
}

func (t *tracer) workflow(id string) *wfTrace {
	w, ok := t.workflows[id]
	if !ok {
		w = &wfTrace{}
		t.workflows[id] = w
	}
	return w
}

// observer returns the engine hooks of the traced run.
func (t *tracer) observer() engine.Observer {
	return engine.Observer{
		ConstructionDone: func(wf string, r core.Result) {
			now := time.Now()
			t.mu.Lock()
			defer t.mu.Unlock()
			if w := t.workflow(wf); w.constructDone.IsZero() {
				w.constructDone = now
			}
			t.rounds += int64(r.CollectionRounds)
			t.collected += int64(r.FragmentsCollected)
			t.explored += int64(r.Explored)
			if r.Workflow != nil {
				t.workflowTasks += int64(r.Workflow.NumTasks())
			}
		},
		TaskDecided: func(_ string, _ model.TaskID, winner proto.Addr) {
			if winner == "" {
				t.mu.Lock()
				t.failedAuctions++
				t.mu.Unlock()
			}
		},
		Replanned: func(string, int, []model.TaskID) {
			t.mu.Lock()
			t.replans++
			t.mu.Unlock()
		},
		SessionDone: func(wf string, _ error) {
			now := time.Now()
			t.mu.Lock()
			t.workflow(wf).sessionDone = now
			t.mu.Unlock()
		},
	}
}

// noteRelease records one timed CanCommit probe and Remove call.
func (t *tracer) noteRelease(canCommit, remove time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.canCommit.addDuration(canCommit, time.Microsecond)
	t.remove.addDuration(remove, time.Microsecond)
}

// opSpan is one op as the client loop saw it: the front-door call
// [start, end), the check [end, checked) and the release [checked,
// released).
type opSpan struct {
	res                           opResult
	start, end, checked, released time.Time
	ok                            bool
}

// Layers whose self time the traced run reports. For every op they
// partition [start, released): bench is the op's own time outside every
// child span (the check and the client loop's gaps). The metrics are
// each layer's share of the summed op time.
var selfLayers = []string{"daemon", "engine", "fragment", "auction", "schedule", "bench"}

// finishOp joins an op's client timestamps with what the hooks saw of
// its workflow, derives the op's spans and each layer's self time, and
// forgets the workflow.
func (t *tracer) finishOp(op opSpan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := op.res.plan
	if !op.ok || p == nil {
		return
	}
	w := t.workflow(p.WorkflowID)
	delete(t.workflows, p.WorkflowID)
	t.ops++
	t.allocatedTasks += int64(len(p.Allocations))
	if len(t.metas) < maxProbePlans {
		metas := make([]proto.TaskMeta, 0, len(p.Metas))
		for _, m := range p.Metas {
			metas = append(metas, m)
		}
		t.metas = append(t.metas, metas)
	}

	// The engine starts once the daemon hands the request to a worker.
	engineStart := op.start.Add(op.res.wait)
	if op.res.wait > 0 {
		t.wait.addDuration(op.res.wait, time.Microsecond)
	}
	allocStart := engineStart
	var construct interval
	if !w.constructDone.IsZero() {
		construct = interval{engineStart, w.constructDone}
		allocStart = w.constructDone
		t.construct.addDuration(construct.end.Sub(construct.start), time.Millisecond)
	}
	allocEnd := op.end
	if !w.sessionDone.IsZero() {
		allocEnd = w.sessionDone
	}
	alloc := interval{allocStart, allocEnd}
	t.allocate.addDuration(alloc.end.Sub(alloc.start), time.Millisecond)

	var frag, bid []interval
	for _, ti := range w.turns {
		if ti.name == "fragment.turnaround" {
			frag = append(frag, ti.interval)
		} else {
			bid = append(bid, ti.interval)
		}
	}
	fragBusy := covered(construct.start, construct.end, frag)
	bidBusy := covered(alloc.start, alloc.end, bid)
	self := map[string]time.Duration{
		"daemon":   op.res.wait,
		"engine":   construct.end.Sub(construct.start) - fragBusy + alloc.end.Sub(alloc.start) - bidBusy,
		"fragment": fragBusy,
		"auction":  bidBusy,
		"schedule": op.released.Sub(op.checked),
	}
	total := op.released.Sub(op.start)
	rest := total
	for _, d := range self {
		rest -= d
	}
	self["bench"] = rest
	for k, d := range self {
		t.self[k] += d
	}

	// Spans for the span file.
	t.nextOp++
	opID := t.nextOp
	root := t.span(0, opID, "op", interval{op.start, op.released})
	if op.res.wait > 0 {
		t.span(root, opID, "daemon.queue", interval{op.start, engineStart})
	}
	if !construct.start.IsZero() {
		parent := t.span(root, opID, "engine.construct", construct)
		t.memberSpans(parent, opID, "fragment.turnaround", frag)
	}
	parent := t.span(root, opID, "engine.allocate", alloc)
	t.memberSpans(parent, opID, "auction.bid_turnaround", bid)
	t.span(root, opID, "bench.check", interval{op.end, op.checked})
	t.span(root, opID, "schedule.release", interval{op.checked, op.released})
}

// memberSpans records the turnaround spans of the members an op's
// engine span waited on. Op-level spans are always kept; these, a few
// hundred per op on broadcast-wide, only while under maxSpans.
func (t *tracer) memberSpans(parent, op int64, name string, ivs []interval) {
	for _, iv := range ivs {
		if len(t.spans) >= maxSpans {
			t.spansDiscarded++
			continue
		}
		t.span(parent, op, name, iv)
	}
}

// span appends a span record and returns its id.
func (t *tracer) span(parent, op int64, name string, iv interval) int64 {
	t.nextSpan++
	us := func(at time.Time) float64 { return float64(at.Sub(t.start)) / float64(time.Microsecond) }
	t.spans = append(t.spans, spanRecord{ID: t.nextSpan, Parent: parent, Op: op, Name: name, Start: us(iv.start), End: us(iv.end)})
	return t.nextSpan
}

// writeSpans writes the kept spans as JSON lines to path.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
