package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs each workload briefly at seed 1 and asserts
// that every op checks (failed_frac == 0) and the calendars drain.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three communities")
	}
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, _, err := setupOnce(ctx, w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := e.close(); err != nil {
					t.Error(err)
				}
			}()
			m := measureWindow(ctx, e, w.clients, 500*time.Millisecond, 0, nil)
			if m.attempted == 0 {
				t.Fatal("no op attempted")
			}
			if m.ok != m.attempted {
				t.Errorf("%d of %d ops failed: %v", m.attempted-m.ok, m.attempted, m.failures)
			}
			if m.drainErr != nil {
				t.Error(m.drainErr)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program prints %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		p := perLayer[i]
		if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
			t.Errorf("per_layer[%d] = %s %s %s, program prints %s %s %s", i, m.Name, m.Unit, m.Better, p.name, p.unit, p.better)
		}
	}
}
