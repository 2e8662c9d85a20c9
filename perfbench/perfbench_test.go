package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{1009, 0.99, true, 999},
		{20, 0.5, true, 10},
		{19, 0.5, false, 0},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

func TestLagCountsFromDueTimePlusHorizon(t *testing.T) {
	ts0 := 5 * time.Second
	for _, c := range []struct {
		deliver, end, horizon time.Duration
		speed                 float64
		want                  float64
	}{
		// END at +100ms activity time is due at 5ms wall; the 50ms
		// horizon adds 2.5ms at 20×; delivered at 10ms: 2.5ms late.
		{10 * time.Millisecond, ts0 + 100*time.Millisecond, 50 * time.Millisecond, 20, 2.5},
		// Real time, no horizon: the lag is delivery minus END.
		{300 * time.Millisecond, ts0 + 250*time.Millisecond, 0, 1, 50},
		// Delivered exactly when decidable.
		{150 * time.Millisecond, ts0 + 2*time.Second, time.Second, 20, 0},
	} {
		if got := lagMs(c.deliver, c.end, ts0, c.horizon, c.speed); got != c.want {
			t.Errorf("lagMs(%v, %v, %v, %v, %v) = %v, want %v", c.deliver, c.end, ts0, c.horizon, c.speed, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer(true)
	p := tr.record("parent", 0, 0, 100, 1, false)
	tr.record("child", p, 10, 40, 1, false)
	tr.record("child", p, 30, 50, 1, false) // overlaps the first
	acc := tr.accumUnder(p, 60)
	acc.add("acc", 10, 5)
	acc.add("acc", 20, 5) // laid out after the first: 70..90
	tot := tr.totals()
	if got := tot["parent"].self; got != 100-40-30 {
		t.Errorf("parent self = %v, want 30ns", got)
	}
	if got := tot["acc"]; got.self != 30 || got.items != 10 || got.spans != 2 {
		t.Errorf("acc totals = %+v", got)
	}
}

// TestWorkloadsSmoke runs every workload at a tiny scale, untraced and
// traced, and requires its correctness gate to pass.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take a few seconds each")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := run(w, 7, 0.01, 200*time.Millisecond, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !o.gate.ok() || o.gate.failed != 0 || o.gate.attempted == 0 {
				t.Fatalf("%s traced=%v: gate attempted=%d failed=%d problems=%v",
					w.name, traced, o.gate.attempted, o.gate.failed, o.gate.problems)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			// Lag percentiles need more CAGs than a tiny run makes.
			for _, m := range o.rep.missing(want) {
				if m != "emit_lag_p50_ms" && m != "emit_lag_p99_ms" {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, m)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's names in step with
// the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return out
	}
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	for _, c := range []struct {
		what      string
		spec, got []string
	}{
		{"workloads", names(spec.Workloads), ws},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.spec, c.got) {
			t.Errorf("%s: BENCHMARK.json lists %v, the code %v", c.what, c.spec, c.got)
		}
	}
}
