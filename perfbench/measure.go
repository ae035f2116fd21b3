package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"openwf/internal/discovery"
	"openwf/internal/transport"
)

// maxFailures bounds how many failure descriptions a window keeps for
// printing.
const maxFailures = 5

// windowResult is what one measured window observed.
type windowResult struct {
	attempted, ok int
	// wrong counts returned plans that failed their check: incorrect
	// output, as opposed to an op that ended in an error.
	wrong int
	// latencyMs holds the front-door latency of every ok op.
	latencyMs []float64
	elapsed   time.Duration
	// cpu is the process's user+sys CPU time over the window.
	cpu        time.Duration
	transport  transport.Stats
	discovery  discovery.Stats
	rt         runtimeDelta
	liveHeapMB float64
	// drainHolds and drainCommits are what the calendars held after the
	// drain wait; both must be 0.
	drainHolds, drainCommits int
	drainErr                 error
	failures                 []string
}

// correct reports whether every returned plan checked and the calendars
// drained.
func (m *windowResult) correct() bool {
	return m.wrong == 0 && m.drainErr == nil
}

// measureWindow runs the workload's clients in a closed loop — each
// client poses its next op only after the previous one returned and was
// checked and released — until the window has elapsed or, with maxOps
// above 0, that many ops were started; then it forces a GC, reads the
// live heap and waits for the calendars to drain. With hooks set the
// ops are traced.
func measureWindow(ctx context.Context, e *env, clients int, window time.Duration, maxOps int64, hooks *tracer) *windowResult {
	ck := newChecker()
	m := &windowResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var started atomic.Int64

	runtime.GC()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	tr0 := e.comm.TransportStats()
	disc0 := e.comm.DiscoveryStats()
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := warmOps; time.Now().Before(deadline) && (maxOps == 0 || started.Add(1) <= maxOps); i++ {
				t0 := time.Now()
				r := e.do(ctx, client, i)
				t1 := time.Now()
				err := ck.check(e, r)
				t2 := time.Now()
				ck.release(e, r.plan, hooks)
				if hooks != nil {
					hooks.finishOp(opSpan{res: r, start: t0, end: t1, checked: t2, released: time.Now(), ok: err == nil})
				}
				mu.Lock()
				m.attempted++
				if err == nil {
					m.ok++
					m.latencyMs = append(m.latencyMs, float64(t1.Sub(t0))/float64(time.Millisecond))
				} else {
					if r.err == nil {
						m.wrong++
					}
					if len(m.failures) < maxFailures {
						m.failures = append(m.failures, err.Error())
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.cpu = cpuTime() - cpu0
	m.rt = readRuntime().sub(rt0)
	m.transport = subTransport(e.comm.TransportStats(), tr0)
	m.discovery = subDiscovery(e.comm.DiscoveryStats(), disc0)

	runtime.GC()
	m.liveHeapMB = float64(readRuntime().heapLive) / (1 << 20)
	m.drainErr = waitDrained(e.comm)
	m.drainHolds, m.drainCommits = e.comm.TotalHolds(), e.comm.TotalCommitments()
	if m.drainErr != nil {
		m.failures = append(m.failures, m.drainErr.Error())
	}
	return m
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta holds the Go runtime counters the per-layer run reports.
type runtimeDelta struct {
	allocBytes   uint64
	gcCPU        float64
	totalCPU     float64
	mutexWaitSec float64
	heapLive     uint64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: u(0), gcCPU: f(1), totalCPU: f(2), mutexWaitSec: f(3), heapLive: u(4)}
}

// sub returns the counter deltas r - o (heapLive stays r's reading).
func (r runtimeDelta) sub(o runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes:   r.allocBytes - o.allocBytes,
		gcCPU:        r.gcCPU - o.gcCPU,
		totalCPU:     r.totalCPU - o.totalCPU,
		mutexWaitSec: r.mutexWaitSec - o.mutexWaitSec,
		heapLive:     r.heapLive,
	}
}

func subTransport(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		Envelopes:     a.Envelopes - b.Envelopes,
		Frames:        a.Frames - b.Frames,
		Batches:       a.Batches - b.Batches,
		Calls:         a.Calls - b.Calls,
		FramesDropped: a.FramesDropped - b.FramesDropped,
	}
}

func subDiscovery(a, b discovery.Stats) discovery.Stats {
	return discovery.Stats{
		Hits:     a.Hits - b.Hits,
		Misses:   a.Misses - b.Misses,
		Excluded: a.Excluded - b.Excluded,
		Ads:      a.Ads - b.Ads,
		Partials: a.Partials - b.Partials,
	}
}
