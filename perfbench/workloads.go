package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/groundtruth"
	"repro/internal/rubis"
)

// kind is the job a workload times.
type kind int

const (
	offlineLogs  kind = iota // CorrelateDir over per-host text logs, then analysis.Report
	offlineTrace             // in-memory CorrelateTrace, then analysis.Report
	livePaced                // open-loop binary-framed replay into core.Ingest + live.Monitor
)

// workload is one generated input and the job run on it. Its scale is
// the RUBiS run-length multiplier (1.0 = the paper's 10.5-minute run).
type workload struct {
	name   string
	kind   kind
	scale  float64
	config func(seed int64, scale float64) rubis.Config
}

var workloads = []workload{
	{name: "offline-logs", kind: offlineLogs, scale: 0.15, config: cleanConfig},
	{name: "offline-noisy", kind: offlineTrace, scale: 0.1, config: noisyConfig},
	{name: "live-paced", kind: livePaced, scale: 0.2, config: cleanConfig},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// cleanConfig is RUBiS Browse_Only with 300 clients, no noise, no skew.
func cleanConfig(seed int64, scale float64) rubis.Config {
	cfg := rubis.DefaultConfig(300)
	cfg.Scale = scale
	cfg.Seed = seed
	return cfg
}

// noisyConfig is the read-write Default mix with the §5.3.3 noise
// generators and 5 ms of maximum clock skew (§5.2).
func noisyConfig(seed int64, scale float64) rubis.Config {
	cfg := cleanConfig(seed, scale)
	cfg.Mix = rubis.Default
	cfg.Noise = true
	cfg.NoiseSessions = 16
	cfg.Skew.MaxSkew = 5 * time.Millisecond
	return cfg
}

// input is what the program under test sees of one generated run. For
// offline-logs that is a directory of per-host text logs written once;
// the records are re-read from it only where the benchmark itself needs
// them (ground truth, the layer-by-layer pass).
type input struct {
	kind     kind
	hosts    []string
	perHost  map[string][]*activity.Activity // nil for offline-logs until loaded
	merged   []*activity.Activity            // perHost in arrival (timestamp) order
	ipToHost map[string]string               // nil for offline-logs: CorrelateDir infers it
	dir      string                          // offline-logs only
}

// generate runs the RUBiS simulation for w at seed and prepares the
// program's input. Logs go under tmp.
func generate(w workload, seed int64, scale float64, tmp string) (*input, error) {
	res, err := rubis.Run(w.config(seed, scale))
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.name, err)
	}
	in := &input{kind: w.kind}
	for h := range res.PerHost {
		in.hosts = append(in.hosts, h)
	}
	sort.Strings(in.hosts)
	if w.kind == offlineLogs {
		in.dir = filepath.Join(tmp, "logs")
		// The ground-truth tags ride in each line's comment, as
		// rubisgen -truth writes them; the correlator ignores them.
		if err := activity.WriteHostLogs(in.dir, res.PerHost, true, false); err != nil {
			return nil, fmt.Errorf("write logs: %w", err)
		}
		return in, nil
	}
	in.perHost = res.PerHost
	in.ipToHost = res.IPToHost
	in.merged = arrivalOrder(res.Trace)
	return in, nil
}

// load reads offline-logs' records back from the logs with the same
// record IDs CorrelateDir assigns. It is a no-op for other kinds.
func (in *input) load() error {
	if in.perHost != nil {
		return nil
	}
	perHost, err := activity.ReadHostLogs(in.dir)
	if err != nil {
		return fmt.Errorf("read logs: %w", err)
	}
	in.setRecords(perHost)
	return nil
}

func (in *input) setRecords(perHost map[string][]*activity.Activity) {
	in.perHost = perHost
	in.merged = arrivalOrder(activity.Merge(perHost))
	in.ipToHost = activity.InferIPToHost(in.merged)
}

// unload drops offline-logs' in-memory records again, so that timed
// passes see only the logs on disk.
func (in *input) unload() {
	if in.kind == offlineLogs {
		in.perHost, in.merged, in.ipToHost = nil, nil, nil
	}
}

// truth builds the §5.2 ground-truth table from the input's request tags.
func (in *input) truth() (*groundtruth.Truth, error) {
	if in.perHost != nil {
		return groundtruth.FromTrace(in.merged), nil
	}
	if err := in.load(); err != nil {
		return nil, err
	}
	t := groundtruth.FromTrace(in.merged)
	in.unload()
	return t, nil
}

// arrivalOrder returns the records sorted by timestamp, keeping each
// host's own order for equal stamps.
func arrivalOrder(trace []*activity.Activity) []*activity.Activity {
	out := append([]*activity.Activity(nil), trace...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

// runDir makes a fresh directory for one run under base.
func runDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
