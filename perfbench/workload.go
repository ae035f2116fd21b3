package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"openwf/internal/backlog"
	"openwf/internal/community"
	"openwf/internal/core"
	"openwf/internal/daemon"
	"openwf/internal/engine"
	"openwf/internal/evalgen"
	"openwf/internal/host"
	"openwf/internal/model"
	"openwf/internal/proto"
	"openwf/internal/service"
	"openwf/internal/spec"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median.
const setupReps = 7

// warmOps is how many checked ops each build runs before it counts as
// set up, so lazily built state is in place before timing starts.
const warmOps = 20

// workload is one seeded benchmark scenario.
type workload struct {
	name string
	// clients is the number of closed-loop client goroutines (at most
	// nproc = 2 on the reference box).
	clients int
	// heapOps is how many ops the heap phase runs before live_heap_mb
	// is read: a fixed count the reference box completes in about two
	// seconds, well inside the engine's 10 s call timeout.
	heapOps int64
	build   func(ctx context.Context, seed int64, hooks *tracer) (*env, error)
}

var workloads = []workload{
	{name: "plan-deep", clients: 1, heapOps: 400, build: buildPlanDeep},
	{name: "allocate-contended", clients: 2, heapOps: 4000, build: buildAllocateContended},
	{name: "broadcast-wide", clients: 1, heapOps: 120, build: buildBroadcastWide},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is a built workload: a running community, the generated inputs,
// and the front-door call an op goes through.
type env struct {
	comm      *community.Community
	initiator proto.Addr
	// offers is the generated service layout: which tasks each host
	// was given. The per-op check uses it, not the program's own
	// service managers.
	offers map[proto.Addr]map[model.TaskID]bool
	// knowhow is the generated fragment layout per host.
	knowhow map[proto.Addr][]*model.Fragment
	specs   []spec.Spec
	// do runs op i of a client through the workload's front door.
	do    func(ctx context.Context, client, i int) opResult
	close func() error
}

// opResult is what one front-door call returned.
type opResult struct {
	spec spec.Spec
	plan *engine.Plan
	// wait is the daemon's queue wait (zero off the daemon path).
	wait time.Duration
	err  error
}

// host returns a community member (the layout guarantees it exists).
func (e *env) host(id proto.Addr) *host.Host {
	h, _ := e.comm.Host(id)
	return h
}

// specFor spreads a client's ops over the spec pool: client c's op i
// takes entry i*clients+c, so concurrent clients pose different specs.
func specFor(pool []spec.Spec, clients, client, i int) int {
	return (i*clients + client) % len(pool)
}

// setupOnce builds the workload and runs its warm-up ops; the returned
// time covers both, not the drain wait that follows them. A forced GC
// first keeps garbage left by earlier phases out of the timing.
func setupOnce(ctx context.Context, w workload, seed int64, hooks *tracer) (*env, float64, error) {
	runtime.GC()
	start := time.Now()
	e, err := w.build(ctx, seed, hooks)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: build: %w", w.name, err)
	}
	ck := newChecker()
	for i := 0; i < warmOps; i++ {
		r := e.do(ctx, 0, i)
		if err := ck.check(e, r); err != nil {
			_ = e.close()
			return nil, 0, fmt.Errorf("%s: warm-up op %d: %w", w.name, i, err)
		}
		ck.release(e, r.plan, nil)
	}
	secs := time.Since(start).Seconds()
	if err := waitDrained(e.comm); err != nil {
		_ = e.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return e, secs, nil
}

// communityOptions is the configuration every workload shares: wall
// clock (the default), instant in-memory links, marshalling on, and the
// tracer's recorder and observer when the run is traced.
func communityOptions(seed int64, eng engine.Config, hooks *tracer) community.Options {
	opts := community.Options{Seed: seed}
	if hooks != nil {
		opts.Trace = hooks
		eng.Observer = hooks.observer()
	}
	opts.Engine = &eng
	return opts
}

func hostAddr(i int) proto.Addr { return proto.Addr(fmt.Sprintf("host%03d", i)) }

// layoutOf indexes the generated host specs for the per-op checks.
func layoutOf(specs []community.HostSpec) (map[proto.Addr]map[model.TaskID]bool, map[proto.Addr][]*model.Fragment) {
	offers := make(map[proto.Addr]map[model.TaskID]bool, len(specs))
	knowhow := make(map[proto.Addr][]*model.Fragment, len(specs))
	for _, hs := range specs {
		set := make(map[model.TaskID]bool, len(hs.Services))
		for _, reg := range hs.Services {
			set[reg.Descriptor.Task] = true
		}
		offers[hs.ID] = set
		knowhow[hs.ID] = hs.Fragments
	}
	return offers, knowhow
}

func registration(t model.TaskID) service.Registration {
	return service.Registration{Descriptor: service.Descriptor{Task: t, Specialization: 0.5}}
}

// samplePool draws n specifications whose shortest solution has length
// tasks.
func samplePool(sc *evalgen.Scenario, n, length int, rng *rand.Rand) ([]spec.Spec, error) {
	pool := make([]spec.Spec, 0, n)
	for len(pool) < n {
		s, ok := sc.SamplePath(length, rng)
		if !ok {
			return nil, fmt.Errorf("scenario of %d tasks has no path of length %d", sc.NumTasks(), length)
		}
		pool = append(pool, s)
	}
	return pool, nil
}

// plan-deep: a 500-task knowledge base over 12 hosts, capability index
// on and warmed, one client submitting length-10 specs through the
// daemon (openwfd's path). Incremental knowledge collection and
// construction dominate; every task has a single provider, so calendars
// and auctions are nearly idle.
const (
	planDeepTasks  = 500
	planDeepHosts  = 12
	planDeepLength = 10
	planDeepPool   = 256
)

func buildPlanDeep(ctx context.Context, seed int64, hooks *tracer) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	sc, err := evalgen.Generate(planDeepTasks, rng)
	if err != nil {
		return nil, err
	}
	frags, err := sc.DistributeFragments(planDeepHosts, rng)
	if err != nil {
		return nil, err
	}
	svcs, err := sc.DistributeServices(planDeepHosts, rng)
	if err != nil {
		return nil, err
	}
	pool, err := samplePool(sc, planDeepPool, planDeepLength, rng)
	if err != nil {
		return nil, err
	}
	specs := make([]community.HostSpec, planDeepHosts)
	for i := range specs {
		specs[i] = community.HostSpec{ID: hostAddr(i), Fragments: frags[i], Services: svcs[i]}
	}
	opts := communityOptions(seed, evalgen.EvalEngineConfig(), hooks)
	// A TTL longer than any run keeps the advertisers quiet during the
	// measured window, so frames_per_op counts only the ops' traffic.
	opts.Discovery = &host.DiscoveryConfig{TTL: time.Hour}
	comm, err := community.New(opts, specs...)
	if err != nil {
		return nil, err
	}
	initiator := specs[0].ID
	if err := comm.WarmDiscovery(ctx, initiator); err != nil {
		_ = comm.Close()
		return nil, err
	}
	srv, err := daemon.New(comm, initiator, daemon.Config{})
	if err != nil {
		_ = comm.Close()
		return nil, err
	}
	offers, knowhow := layoutOf(specs)
	return &env{
		comm: comm, initiator: initiator, offers: offers, knowhow: knowhow, specs: pool,
		do: daemonDo(srv, pool),
		close: func() error {
			err := srv.Close()
			if cerr := comm.Close(); err == nil {
				err = cerr
			}
			return err
		},
	}, nil
}

// daemonDo is the daemon front door (openwfd's path): op i of a client
// submits a pool spec and waits for its result.
func daemonDo(srv *daemon.Server, pool []spec.Spec) func(ctx context.Context, client, i int) opResult {
	return func(ctx context.Context, client, i int) opResult {
		s := pool[specFor(pool, 1, client, i)]
		r, err := srv.Do(ctx, daemon.Request{Spec: s, Class: backlog.Normal})
		if err != nil {
			return opResult{spec: s, err: err}
		}
		return opResult{spec: s, plan: r.Plan, wait: r.Wait, err: r.Err}
	}
}

// allocate-contended: the static-workflow (CiAN) baseline. Length-12
// workflows are constructed in setup; two clients allocate them through
// one initiator against 4 providers that each offer every service, so
// auction and calendar (HoldBatch under first-hold-wins conflicts and
// window retries) are the whole critical path and core does nothing.
const (
	contendedTasks     = 300
	contendedProviders = 4
	contendedLength    = 12
	contendedPool      = 64
)

func buildAllocateContended(ctx context.Context, seed int64, hooks *tracer) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	sc, err := evalgen.Generate(contendedTasks, rng)
	if err != nil {
		return nil, err
	}
	pool, err := samplePool(sc, contendedPool, contendedLength, rng)
	if err != nil {
		return nil, err
	}
	frags, err := sc.Fragments()
	if err != nil {
		return nil, err
	}
	g, err := core.CollectAll(frags)
	if err != nil {
		return nil, err
	}
	workflows := make([]*model.Workflow, len(pool))
	for i, s := range pool {
		res, err := core.Construct(g, s)
		if err != nil {
			return nil, fmt.Errorf("pre-building workflow %d: %w", i, err)
		}
		workflows[i] = res.Workflow
	}
	regs := make([]service.Registration, sc.NumTasks())
	for i := range regs {
		regs[i] = registration(sc.Task(i).ID)
	}
	specs := make([]community.HostSpec, 1+contendedProviders)
	specs[0] = community.HostSpec{ID: hostAddr(0), Fragments: frags}
	for i := 1; i < len(specs); i++ {
		specs[i] = community.HostSpec{ID: hostAddr(i), Services: regs}
	}
	eng := evalgen.EvalEngineConfig()
	// Contended sessions postpone windows instead of giving up: the
	// workload measures arbitration, and no op should fail.
	eng.WindowRetries = 8
	comm, err := community.New(communityOptions(seed, eng, hooks), specs...)
	if err != nil {
		return nil, err
	}
	initiator := specs[0].ID
	h, _ := comm.Host(initiator)
	offers, knowhow := layoutOf(specs)
	const clients = 2
	return &env{
		comm: comm, initiator: initiator, offers: offers, knowhow: knowhow, specs: pool,
		do: func(ctx context.Context, client, i int) opResult {
			k := specFor(pool, clients, client, i)
			plan, err := h.Engine.AllocateWorkflow(ctx, workflows[k], pool[k])
			return opResult{spec: pool[k], plan: plan, err: err}
		},
		close: comm.Close,
	}, nil
}

// broadcast-wide: 200 hosts in the default deployment (index off).
// Five providers serve the chain problems and hold their knowhow; 194
// bystanders hold unrelated knowhow and services. Every sweep fans out
// to 199 members, so the in-memory send path, mailboxes, coalescer,
// host dispatch and small-message codec do the work.
const (
	broadcastHosts     = 200
	broadcastProviders = 5
	broadcastChains    = 4
	broadcastLength    = 6
)

func buildBroadcastWide(ctx context.Context, seed int64, hooks *tracer) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	var chainFrags []*model.Fragment
	var regs []service.Registration
	pool := make([]spec.Spec, 0, broadcastChains)
	for c := 0; c < broadcastChains; c++ {
		label := func(i int) model.LabelID { return model.LabelID(fmt.Sprintf("c%d-l%02d", c, i)) }
		for i := 0; i < broadcastLength; i++ {
			t := model.Task{
				ID:      model.TaskID(fmt.Sprintf("c%d-t%02d", c, i)),
				Mode:    model.Conjunctive,
				Inputs:  []model.LabelID{label(i)},
				Outputs: []model.LabelID{label(i + 1)},
			}
			f, err := model.NewFragment(fmt.Sprintf("know-c%d-%02d", c, i), t)
			if err != nil {
				return nil, err
			}
			chainFrags = append(chainFrags, f)
			regs = append(regs, registration(t.ID))
		}
		s, err := spec.New([]model.LabelID{label(0)}, []model.LabelID{label(broadcastLength)})
		if err != nil {
			return nil, err
		}
		pool = append(pool, s)
	}

	// Providers sit at seeded places in the member order (which sets
	// the solicitation order); the chains' knowhow is dealt among them.
	providers := rng.Perm(broadcastHosts - 1)[:broadcastProviders]
	specs := make([]community.HostSpec, broadcastHosts)
	for i := range specs {
		specs[i].ID = hostAddr(i)
	}
	for _, p := range providers {
		specs[p+1].Services = regs
	}
	for _, k := range rng.Perm(len(chainFrags)) {
		p := providers[k%broadcastProviders] + 1
		specs[p].Fragments = append(specs[p].Fragments, chainFrags[k])
	}
	for i := 1; i < broadcastHosts; i++ {
		if specs[i].Services != nil {
			continue
		}
		jt := model.Task{
			ID:      model.TaskID(fmt.Sprintf("junk-t%04d", i)),
			Mode:    model.Conjunctive,
			Inputs:  []model.LabelID{model.LabelID(fmt.Sprintf("junk-l%04d", i))},
			Outputs: []model.LabelID{model.LabelID(fmt.Sprintf("junk-m%04d", i))},
		}
		jf, err := model.NewFragment(fmt.Sprintf("junk-know-%04d", i), jt)
		if err != nil {
			return nil, err
		}
		specs[i].Fragments = []*model.Fragment{jf}
		specs[i].Services = []service.Registration{registration(jt.ID)}
	}

	eng := evalgen.EvalEngineConfig()
	eng.ParallelQuery = true
	comm, err := community.New(communityOptions(seed, eng, hooks), specs...)
	if err != nil {
		return nil, err
	}
	initiator := specs[0].ID
	offers, knowhow := layoutOf(specs)
	return &env{
		comm: comm, initiator: initiator, offers: offers, knowhow: knowhow, specs: pool,
		do: func(ctx context.Context, client, i int) opResult {
			s := pool[specFor(pool, 1, client, i)]
			plan, err := comm.Initiate(ctx, initiator, s)
			return opResult{spec: s, plan: plan, err: err}
		},
		close: comm.Close,
	}, nil
}
