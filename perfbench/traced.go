package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"openwf/internal/core"
	"openwf/internal/daemon"
	"openwf/internal/model"
	"openwf/internal/proto"
)

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric and workload it is predicted to move (the other
// workloads predict no change).
type layerMetric struct {
	name, unit, better, moves string
}

var msgKinds = []string{
	"fragment-query", "fragment-reply", "feasibility-query", "call-for-bids-batch",
	"bid-batch", "award", "cancel", "advertise",
}

var codecKinds = []string{"fragment-reply", "call-for-bids-batch", "bid-batch"}

// perLayer lists the traced run's metrics in print order; BENCHMARK.json
// declares the same names and units.
var perLayer = func() []layerMetric {
	ms := []layerMetric{
		{"daemon.queue_wait_us_p50", "us", "lower", "latency_p50_ms on plan-deep"},
		{"engine.construct_ms_p50", "ms", "lower", "latency_p50_ms on plan-deep"},
		{"engine.allocate_ms_p50", "ms", "lower", "ops_per_s on allocate-contended"},
		{"engine.replans_per_op", "count", "lower", "latency_p90_ms and ok_frac on allocate-contended"},
		{"engine.failed_auctions_per_op", "count", "lower", "latency_p90_ms and ok_frac on allocate-contended"},
		{"core.construct_us_p50", "us", "lower", "cpu_ms_per_op and latency_p50_ms on plan-deep"},
		{"core.collection_rounds_per_op", "count", "lower", "cpu_ms_per_op and latency_p50_ms on plan-deep"},
		{"core.fragments_collected_per_op", "count", "lower", "cpu_ms_per_op and latency_p50_ms on plan-deep"},
		{"core.explored_per_op", "count", "lower", "cpu_ms_per_op and latency_p50_ms on plan-deep"},
		{"core.useful_ratio", "ratio", "higher", "cpu_ms_per_op and latency_p50_ms on plan-deep"},
		{"fragment.turnaround_us_p50", "us", "lower", "latency_p50_ms on plan-deep and broadcast-wide"},
		{"discovery.hit_ratio", "ratio", "higher", "frames_per_op and latency_p50_ms on plan-deep"},
		{"discovery.select_us_p50", "us", "lower", "frames_per_op and latency_p50_ms on plan-deep"},
		{"auction.bid_turnaround_us_p50", "us", "lower", "ops_per_s and latency_p90_ms on allocate-contended"},
		{"auction.bid_turnaround_us_p90", "us", "lower", "ops_per_s and latency_p90_ms on allocate-contended"},
		{"auction.cfb_per_op", "count", "lower", "ops_per_s and latency_p90_ms on allocate-contended"},
		{"auction.cancels_per_op", "count", "lower", "ops_per_s and latency_p90_ms on allocate-contended"},
		{"auction.awards_per_task", "count", "lower", "ops_per_s and latency_p90_ms on allocate-contended"},
		{"schedule.remove_us_p50", "us", "lower", "ops_per_s on allocate-contended"},
		{"schedule.cancommit_us_p50", "us", "lower", "ops_per_s on allocate-contended"},
		{"schedule.holds_after_drain", "count", "lower", "ok_frac (must be 0)"},
		{"schedule.commits_after_drain", "count", "lower", "ok_frac (must be 0)"},
		{"transport.delivery_us_p50", "us", "lower", "latency_p50_ms and ops_per_s on broadcast-wide"},
		{"transport.delivery_us_p90", "us", "lower", "latency_p50_ms and ops_per_s on broadcast-wide"},
		{"transport.envelopes_per_op", "count", "lower", "frames_per_op"},
		{"transport.calls_per_op", "count", "lower", "frames_per_op"},
		{"transport.coalesce_ratio", "ratio", "higher", "frames_per_op"},
		{"transport.frames_dropped", "count", "lower", "frames_per_op"},
	}
	for _, k := range msgKinds {
		ms = append(ms, layerMetric{"proto.msgs_per_op." + k, "count", "lower",
			"cpu_ms_per_op on plan-deep (replies) and allocate-contended (batches)"})
	}
	for _, k := range codecKinds {
		ms = append(ms, layerMetric{"proto.codec_us." + k, "us", "lower",
			"cpu_ms_per_op on plan-deep (replies) and allocate-contended (batches)"})
	}
	ms = append(ms,
		layerMetric{"runtime.alloc_kb_per_op", "KB", "lower", "cpu_ms_per_op on every workload"},
		layerMetric{"runtime.gc_cpu_frac", "ratio", "lower", "cpu_ms_per_op on every workload"},
		layerMetric{"runtime.mutex_wait_us_per_op", "us", "lower", "ops_per_s on allocate-contended"},
	)
	for _, l := range selfLayers {
		ms = append(ms, layerMetric{"self_frac." + l, "ratio", "lower", "latency_p50_ms where the layer is on the blocking path"})
	}
	return append(ms, layerMetric{"trace.overhead_cpu_ms_per_op", "ms", "lower", "nothing: the traced run's own cost"})
}()

// Probe repetitions: enough timed calls for a steady median, few enough
// to keep the probes a small part of the run.
const (
	probeSpecs = 32
	probeReps  = 20
)

// measureTraced runs the untraced workload for half the window (the
// baseline for the tracing overhead and the runtime counters), then a
// fresh build with the tracer installed for the other half, followed on
// the traced build by timed probes of core, discovery and the codec and
// by the daemon probe.
func measureTraced(ctx context.Context, w workload, seed int64, window time.Duration, spansDir string, out io.Writer) (*result, error) {
	half := window / 2
	e, _, err := setupOnce(ctx, w, seed, nil)
	if err != nil {
		return nil, err
	}
	base := measureWindow(ctx, e, w.clients, half, 0, nil)
	if err := e.close(); err != nil {
		return nil, err
	}

	hooks := newTracer(seed)
	te, _, err := setupOnce(ctx, w, seed, hooks)
	if err != nil {
		return nil, err
	}
	hooks.begin(seed)
	tm := measureWindow(ctx, te, w.clients, half, 0, hooks)
	spansPath := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	fmt.Fprintf(out, "# untraced: window=%.3fs ok=%d cpu_ms_per_op=%.4f; traced: window=%.3fs ok=%d cpu_ms_per_op=%.4f; spans=%s (%d kept, %d over cap)\n",
		base.elapsed.Seconds(), base.ok, perOp(base.cpu.Seconds()*1e3, base.ok),
		tm.elapsed.Seconds(), tm.ok, perOp(tm.cpu.Seconds()*1e3, tm.ok),
		spansPath, len(hooks.spans), hooks.spansDiscarded)
	probes, err := runProbes(te, hooks)
	if err == nil {
		err = hooks.writeSpans(spansPath)
	}
	var values map[string]float64
	var dp *windowResult
	if err == nil {
		values = layerValues(hooks, base, tm, probes)
		dp, err = daemonProbe(ctx, te, hooks, seed, values)
	}
	if cerr := te.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	for _, f := range append(append(base.failures, tm.failures...), dp.failures...) {
		fmt.Fprintln(out, "# failure:", f)
	}
	res := &result{
		Correct:   base.correct() && tm.correct() && dp.correct(),
		Attempted: base.attempted + tm.attempted + dp.attempted,
		Failed:    base.attempted - base.ok + tm.attempted - tm.ok + dp.attempted - dp.ok,
		Metrics:   make(map[string]metricValue, len(perLayer)),
	}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not computed", m.name)
		}
		fmt.Fprintf(out, "%-44s %14.4f %-5s moves %s\n", m.name, v, m.unit, m.moves)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, nil
}

// layerValues derives every per-layer metric from the traced window (tm
// and the tracer), the untraced window (base: runtime counters and the
// overhead baseline) and the probes.
func layerValues(t *tracer, base, tm *windowResult, pr probeResult) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops
	per := func(x int64) float64 { return perOp(float64(x), ops) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v := map[string]float64{
		"daemon.queue_wait_us_p50":        t.wait.p(50),
		"engine.construct_ms_p50":         t.construct.p(50),
		"engine.allocate_ms_p50":          t.allocate.p(50),
		"engine.replans_per_op":           per(t.replans),
		"engine.failed_auctions_per_op":   per(t.failedAuctions),
		"core.construct_us_p50":           percentiles(pr.construct, 50)[0],
		"core.collection_rounds_per_op":   per(t.rounds),
		"core.fragments_collected_per_op": per(t.collected),
		"core.explored_per_op":            per(t.explored),
		"core.useful_ratio":               ratio(float64(t.workflowTasks), float64(t.explored)),
		"fragment.turnaround_us_p50":      t.turnFragment.p(50),
		"discovery.hit_ratio":             ratio(float64(tm.discovery.Hits), float64(tm.discovery.Hits+tm.discovery.Misses)),
		"discovery.select_us_p50":         percentiles(pr.selectUs, 50)[0],
		"auction.bid_turnaround_us_p50":   t.turnBid.p(50),
		"auction.bid_turnaround_us_p90":   t.turnBid.p(90),
		"auction.cfb_per_op":              per(t.recv["call-for-bids-batch"]),
		"auction.cancels_per_op":          per(t.recv["cancel"]),
		"auction.awards_per_task":         ratio(float64(t.recv["award"]), float64(t.allocatedTasks)),
		"schedule.remove_us_p50":          t.remove.p(50),
		"schedule.cancommit_us_p50":       t.canCommit.p(50),
		"schedule.holds_after_drain":      float64(tm.drainHolds),
		"schedule.commits_after_drain":    float64(tm.drainCommits),
		"transport.delivery_us_p50":       t.delivery.p(50),
		"transport.delivery_us_p90":       t.delivery.p(90),
		"transport.envelopes_per_op":      per(tm.transport.Envelopes),
		"transport.calls_per_op":          per(tm.transport.Calls),
		"transport.coalesce_ratio":        ratio(float64(tm.transport.Envelopes), float64(tm.transport.Frames)),
		"transport.frames_dropped":        float64(tm.transport.FramesDropped),
		"runtime.alloc_kb_per_op":         perOp(float64(base.rt.allocBytes)/1024, base.ok),
		"runtime.gc_cpu_frac":             ratio(base.rt.gcCPU, base.rt.totalCPU),
		"runtime.mutex_wait_us_per_op":    perOp(base.rt.mutexWaitSec*1e6, base.ok),
		"trace.overhead_cpu_ms_per_op":    perOp(tm.cpu.Seconds()*1e3, tm.ok) - perOp(base.cpu.Seconds()*1e3, base.ok),
	}
	for _, k := range msgKinds {
		v["proto.msgs_per_op."+k] = per(t.recv[k])
	}
	for _, k := range codecKinds {
		v["proto.codec_us."+k] = percentiles(pr.codec[k], 50)[0]
	}
	var total time.Duration
	for _, d := range t.self {
		total += d
	}
	for _, l := range selfLayers {
		v["self_frac."+l] = ratio(float64(t.self[l]), float64(total))
	}
	return v
}

// daemonProbeOps is how many ops the daemon probe poses.
const daemonProbeOps = 40

// daemonProbe poses daemonProbeOps ops through a daemon server
// (daemon.New(...).Do, openwfd's path) on the traced community after the
// traced window, so every workload reports the daemon's queue wait, and
// allocate-contended, whose own ops construct nothing, reports the
// construction time and fragment turnaround of its knowledge base. It
// overwrites those entries of values.
func daemonProbe(ctx context.Context, e *env, hooks *tracer, seed int64, values map[string]float64) (*windowResult, error) {
	srv, err := daemon.New(e.comm, e.initiator, daemon.Config{})
	if err != nil {
		return nil, err
	}
	pe := *e
	pe.do = daemonDo(srv, e.specs)
	hooks.begin(seed)
	m := measureWindow(ctx, &pe, 1, heapPhaseLimit, daemonProbeOps, hooks)
	hooks.mu.Lock()
	values["daemon.queue_wait_us_p50"] = hooks.wait.p(50)
	if values["engine.construct_ms_p50"] == 0 {
		values["engine.construct_ms_p50"] = hooks.construct.p(50)
	}
	if values["fragment.turnaround_us_p50"] == 0 {
		values["fragment.turnaround_us_p50"] = hooks.turnFragment.p(50)
	}
	hooks.mu.Unlock()
	return m, srv.Close()
}

// probeResult holds the timed-call samples in microseconds.
type probeResult struct {
	construct, selectUs []float64
	codec               map[string][]float64
}

// runProbes times calls into single layers on the traced build, with
// inputs from the workload's own scenario and plans: core.Construct on
// the fully assembled supergraph for the pool's specs, the initiator's
// discovery selection, and the wire codec (EncodeTo + Decode) on a
// fragment reply, a call-for-bids batch and a bid batch.
func runProbes(e *env, t *tracer) (probeResult, error) {
	pr := probeResult{codec: make(map[string][]float64)}
	var all []*model.Fragment
	for _, id := range e.comm.Members() {
		all = append(all, e.knowhow[id]...)
	}
	g, err := core.CollectAll(all)
	if err != nil {
		return pr, err
	}
	members := e.comm.Members()
	initiator := e.host(e.initiator)
	specs := e.specs
	if len(specs) > probeSpecs {
		specs = specs[:probeSpecs]
	}
	var replies []proto.Envelope
	for _, s := range specs {
		var res *core.Result
		for r := 0; r < probeReps; r++ {
			start := time.Now()
			res, err = core.Construct(g, s)
			pr.construct = append(pr.construct, float64(time.Since(start))/float64(time.Microsecond))
			if err != nil {
				return pr, fmt.Errorf("construct probe: %w", err)
			}
		}
		tasks := res.Workflow.TaskIDs()
		for r := 0; r < probeReps; r++ {
			start := time.Now()
			initiator.SelectByLabels(members, s.Triggers)
			initiator.SelectByTasks(members, tasks)
			pr.selectUs = append(pr.selectUs, float64(time.Since(start))/float64(time.Microsecond))
		}
		replies = append(replies, largestReply(e, s.Triggers, res.Workflow))
	}

	t.mu.Lock()
	metas := t.metas
	t.mu.Unlock()
	envs := map[string][]proto.Envelope{"fragment-reply": replies}
	deadline := time.Now().Add(time.Second)
	for _, ms := range metas {
		bids := proto.BidBatch{}
		for _, m := range ms {
			bids.Bids = append(bids.Bids, proto.Bid{Task: m.Task, ServicesOffered: len(ms), Specialization: 0.5, Deadline: deadline})
		}
		envs["call-for-bids-batch"] = append(envs["call-for-bids-batch"],
			proto.Envelope{From: e.initiator, To: members[len(members)-1], ReqID: 1, Workflow: "probe/1", Body: proto.CallForBidsBatch{Metas: ms}})
		envs["bid-batch"] = append(envs["bid-batch"],
			proto.Envelope{From: members[len(members)-1], To: e.initiator, ReqID: 1, Workflow: "probe/1", Body: bids})
	}
	var buf bytes.Buffer
	for _, kind := range codecKinds {
		for _, env := range envs[kind] {
			for r := 0; r < probeReps; r++ {
				buf.Reset()
				start := time.Now()
				if err := proto.EncodeTo(&buf, env); err != nil {
					return pr, fmt.Errorf("codec probe %s: %w", kind, err)
				}
				if _, err := proto.Decode(buf.Bytes()); err != nil {
					return pr, fmt.Errorf("codec probe %s: %w", kind, err)
				}
				pr.codec[kind] = append(pr.codec[kind], float64(time.Since(start))/float64(time.Microsecond))
			}
		}
	}
	return pr, nil
}

// largestReply builds the biggest fragment reply any member would send
// while a construction for this spec collects knowledge: the member's
// fragments consuming a label the construction reaches (the triggers
// and every label the workflow touches).
func largestReply(e *env, triggers []model.LabelID, w *model.Workflow) proto.Envelope {
	labels := make(map[model.LabelID]bool)
	for _, l := range triggers {
		labels[l] = true
	}
	for _, task := range w.Tasks() {
		for _, l := range task.Inputs {
			labels[l] = true
		}
		for _, l := range task.Outputs {
			labels[l] = true
		}
	}
	best := proto.Envelope{Body: proto.FragmentReply{}}
	bestN := -1
	for _, id := range e.comm.Members() {
		var frags []*model.Fragment
		for _, f := range e.knowhow[id] {
			if consumesAny(f, labels) {
				frags = append(frags, f)
			}
		}
		if len(frags) > bestN {
			bestN = len(frags)
			best = proto.Envelope{From: id, To: e.initiator, ReqID: 1, Workflow: "probe/1", Body: proto.FragmentReply{Fragments: frags}}
		}
	}
	return best
}

func consumesAny(f *model.Fragment, labels map[model.LabelID]bool) bool {
	for _, t := range f.Tasks {
		for _, in := range t.Inputs {
			if labels[in] {
				return true
			}
		}
	}
	return false
}
