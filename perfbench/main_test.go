package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWorkloadsSelfTest runs every workload once at minimum length, untraced
// and traced, and requires the output checks to pass and every metric of
// BENCHMARK.json to be printed with its unit.
func TestWorkloadsSelfTest(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cfg := runConfig{workload: name, seed: paperSeed, spans: filepath.Join(t.TempDir(), "spans.jsonl")}

			res, err := runTimed(ctx, cfg)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			requireMetrics(t, res, endToEnd, true)

			res, err = runTraced(ctx, cfg)
			if err != nil {
				t.Fatalf("traced run: %v", err)
			}
			requireMetrics(t, res, perLayer, false)
			if res.Metrics["dist.tasks_from_cache"].Value != 0 {
				t.Errorf("dist.tasks_from_cache = %v, want 0", res.Metrics["dist.tasks_from_cache"].Value)
			}
			if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
				t.Errorf("span file not written: %v", err)
			}
		})
	}
}

func requireMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.name)
		case m.Unit != d.unit:
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		case nonZero && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", d.name, m.Value)
		}
	}
}

// TestCheckFailureIsReported corrupts a reference and requires the pass to
// fail its output check rather than be measured.
func TestCheckFailureIsReported(t *testing.T) {
	ctx := context.Background()
	w, err := newWorkload("tcas-sweep", paperSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(ctx); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(ctx); err != nil {
		t.Fatal(err)
	}
	w.(*tcasSweep).plainCanon = "not the reference"
	_, err = measure(ctx, w, nil)
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("measure with a corrupted reference: %v, want a check failure", err)
	}
}

// TestBenchmarkJSONMatchesCode requires BENCHMARK.json to declare exactly
// the metrics the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	compare("end_to_end", bench.EndToEnd, endToEnd, true)
	compare("per_layer", bench.PerLayer, perLayer, false)
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", got, want)
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the code", n)
		}
	}
}

// TestSelfTimes checks self-time attribution with overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "cluster", Start: 10, End: 60},
		{ID: 3, Parent: 1, Layer: "cluster", Start: 40, End: 90},
		{ID: 4, Parent: 2, Layer: "checker", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	// bench: 100 minus the union [10,90]; cluster: 50-10 + 50.
	if self["bench"] != 20 || self["cluster"] != 90 || self["checker"] != 10 {
		t.Errorf("self times %v", self)
	}
}
