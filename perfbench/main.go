// Command perfbench is PreciseTracer's benchmark. It generates one
// workload's RUBiS input from a seed, runs the system on it from this
// process, checks every output against the ground truth, and prints each
// metric by name with its unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones and writes its spans
// under .bench_build. See README.md for the workloads and metrics.
//
//	go run . -workload offline-logs -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Run shape shared by the workloads.
const (
	benchDir    = ".bench_build"       // temporary logs and span files, under the checkout
	setupRounds = 5                    // least set-ups per run; setup_s is their median
	setupTime   = 2 * time.Second      // least time spent setting up, over all rounds
	minPasses   = 3                    // least timed passes per configuration
	heapEvery   = 2 * time.Millisecond // live-heap sampling period
	pacedShare  = 0.65                 // share of -seconds spent in paced replays
)

// endToEnd and perLayer are the metric names each mode reports; they
// match BENCHMARK.json.
var (
	endToEnd = []string{
		"setup_s", "acts_per_s", "acts_per_s_1p", "cpu_us_per_act",
		"peak_heap_mb", "emit_lag_p50_ms", "emit_lag_p99_ms",
	}
	perLayer = []string{
		"activity.parse_ns_per_rec", "activity.encode_ns_per_rec", "activity.decode_ns_per_rec",
		"activity.classify_ns_per_act", "flow.add_ns_per_act", "flow.merges", "core.shards",
		"core.push_ns_per_act", "core.tick_ns_per_act", "core.close_wait_s",
		"ranker.rank_ns_per_act", "ranker.noise_drop_share", "ranker.peak_buffered",
		"engine.handle_ns_per_act", "engine.peak_resident_vertices", "analysis.report_ns_per_graph",
		"ingest.block_ms", "live.consume_ns_per_graph", "core.forced_seals", "core.late_links",
		"gc.cpu_share", "gc.cycles", "alloc_bytes_per_act", "allocs_per_act",
		"gen.late_p99_ms", "gen.late_max_ms", "gen.offered_per_s", "trace.overhead_share",
	}
)

type metric struct {
	name, unit string
	value      float64
	n          int // samples behind the value
}

// report collects a run's metrics in the order they were measured.
type report struct{ metrics []metric }

func (r *report) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, n: n})
}

// addLags reports the median and p99 emission lag: each pass's
// percentile, where its sample supports it, and the median of those over
// the passes.
func (r *report) addLags(passes [][]float64) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"emit_lag_p50_ms", 0.5}, {"emit_lag_p99_ms", 0.99}} {
		var per []float64
		n := 0
		for _, lags := range passes {
			if v, ok := percentile(lags, q.q); ok {
				per = append(per, v)
				n += len(lags)
			}
		}
		if len(per) > 0 {
			r.add(q.name, "ms", median(per), n)
		}
	}
}

// outcome is one run's verdict and metrics.
type outcome struct {
	gate *gate
	rep  *report
}

// run generates the workload's input at scale and measures it.
func run(w workload, seed int64, scale float64, budget time.Duration, traced bool, workdir string) (*outcome, error) {
	tmp, err := runDir(filepath.Join(workdir, "tmp"))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	in, err := generate(w, seed, scale, tmp)
	if err != nil {
		return nil, err
	}
	o := &outcome{gate: &gate{in: in}, rep: &report{}}
	switch {
	case traced:
		spans := filepath.Join(workdir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		err = runTraced(in, o.gate, o.rep, tmp, spans)
	case w.kind == livePaced:
		err = runLiveWorkload(in, o.gate, o.rep, budget)
	default:
		err = runOffline(in, o.gate, o.rep, budget)
	}
	return o, err
}

// missing returns the names in want that the report lacks.
func (r *report) missing(want []string) []string {
	have := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		have[m.name] = true
	}
	var out []string
	for _, n := range want {
		if !have[n] {
			out = append(out, n)
		}
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: offline-logs, offline-noisy or live-paced")
	seed := fs.Int64("seed", 1, "RUBiS workload seed")
	seconds := fs.Int("seconds", 10, "seconds of timed passes, with the checks between them")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run with per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}

	fmt.Printf("perfbench: workload %s, seed %d, trace %d, GOMAXPROCS=Workers=%d\n", w.name, *seed, *trace, runtime.NumCPU())
	o, err := run(w, *seed, w.scale, time.Duration(*seconds)*time.Second, *trace == 1, benchDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var inv errInvalid
		if errors.As(err, &inv) {
			return 3
		}
		return 1
	}
	want := endToEnd
	if *trace == 1 {
		want = perLayer
	}
	if miss := o.rep.missing(want); len(miss) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: too few samples for %v\n", miss)
		return 1
	}

	res := jsonResult{Correct: o.gate.ok(), Attempted: o.gate.attempted, Failed: o.gate.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range o.rep.metrics {
		fmt.Printf("%-32s %14.6g %-7s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	share := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-32s %14.6g %-7s n=%d\n", "failed_request_share", share, "ratio", res.Attempted)
	for _, p := range o.gate.problems {
		fmt.Println("MISMATCH:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
