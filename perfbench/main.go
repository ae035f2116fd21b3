// Command perfbench is the openwf benchmark: it drives one seeded
// workload in a closed loop for a fixed wall-clock window, checks every
// operation's plan, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a traced run) as a single JSON
// object on the last line of standard output.
//
// An operation ("op") is one request turned into a checked, fully
// allocated plan. Every workload runs on the wall clock over instant
// in-memory links with wire marshalling on, so latency is processor time
// only; link cost is carried by the exact count frames_per_op instead.
//
// Usage (normally through run.py, which builds this program first):
//
//	perfbench --workload plan-deep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the end-to-end metrics in print order; BENCHMARK.json
// declares the same names and units (TestBenchmarkJSONMatchesTables).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"frames_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"ok_frac", "ratio"},
	{"setup_s", "s"},
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: plan-deep, allocate-contended or broadcast-wide")
	seed := fs.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := fs.Int("seconds", 20, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	// Stamp the run so figures from different boxes or settings are
	// never compared silently.
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d go=%s nproc=%d gomaxprocs=%d clients=%d loop=closed\n",
		w.name, *seed, *seconds, *traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), w.clients)

	ctx := context.Background()
	window := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = measureTraced(ctx, w, *seed, window, *spans, stdout)
	} else {
		res, err = measureEndToEnd(ctx, w, *seed, window, stdout)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// heapPhaseLimit bounds the heap phase on a box too slow to finish its
// ops in time.
const heapPhaseLimit = 30 * time.Second

// measureEndToEnd sets the workload up, runs the heap phase, measures
// one untraced window with no hooks installed, and then sets the
// workload up again setupReps-1 times: setup_s is the median of all
// set-ups. The extra builds come last because the program keeps closed
// communities reachable from pending lease timers, and live_heap_mb
// must see only the measured one.
//
// live_heap_mb is read after a fixed number of ops rather than at the
// end of the timed window: the program keeps a timer per call (10 s
// call timeout) and per award (5 min commitment lease), and those
// dominate the heap, so a reading after a fixed time would grow with
// throughput and a faster build would read as a memory regression.
func measureEndToEnd(ctx context.Context, w workload, seed int64, window time.Duration, out io.Writer) (*result, error) {
	e, first, err := setupOnce(ctx, w, seed, nil)
	if err != nil {
		return nil, err
	}
	heap := measureWindow(ctx, e, w.clients, heapPhaseLimit, w.heapOps, nil)
	m := measureWindow(ctx, e, w.clients, window, 0, nil)
	if err := e.close(); err != nil {
		return nil, err
	}
	setups := []float64{first}
	for len(setups) < setupReps {
		e, secs, err := setupOnce(ctx, w, seed, nil)
		if err != nil {
			return nil, err
		}
		if err := e.close(); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	setup := percentiles(setups, 50)[0]
	lat := percentiles(m.latencyMs, 50, 90, 99)
	values := map[string]float64{
		"latency_p50_ms": lat[0],
		"latency_p90_ms": lat[1],
		"ops_per_s":      float64(m.ok) / m.elapsed.Seconds(),
		"cpu_ms_per_op":  perOp(m.cpu.Seconds()*1e3, m.ok),
		"frames_per_op":  perOp(float64(m.transport.Frames), m.ok),
		"live_heap_mb":   heap.liveHeapMB,
		"ok_frac":        float64(m.ok) / float64(m.attempted),
		"setup_s":        setup,
	}
	fmt.Fprintf(out, "# heap phase: %d ops in %.3fs; window=%.3fs attempted=%d ok=%d latency_p99_ms=%.4f (information only) drain_holds=%d drain_commitments=%d\n",
		heap.attempted, heap.elapsed.Seconds(), m.elapsed.Seconds(), m.attempted, m.ok, lat[2], m.drainHolds, m.drainCommits)
	for _, f := range append(heap.failures, m.failures...) {
		fmt.Fprintln(out, "# failure:", f)
	}
	samples := map[string]int{
		"latency_p50_ms": len(m.latencyMs), "latency_p90_ms": len(m.latencyMs),
		"setup_s": setupReps, "live_heap_mb": 1,
	}
	res := &result{
		Correct:   heap.correct() && m.correct(),
		Attempted: heap.attempted + m.attempted,
		Failed:    heap.attempted - heap.ok + m.attempted - m.ok,
		Metrics:   make(map[string]metricValue, len(endToEnd)),
	}
	for _, d := range endToEnd {
		n, ok := samples[d.name]
		if !ok {
			n = m.ok
		}
		fmt.Fprintf(out, "%-16s %14.4f %-6s n=%d\n", d.name, values[d.name], d.unit, n)
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

// perOp divides a window total by the op count (0 when nothing
// completed).
func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}
