package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/groundtruth"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

func fastRun(t *testing.T, clients int, mutate func(*rubis.Config)) *rubis.Result {
	t.Helper()
	cfg := rubis.DefaultConfig(clients)
	cfg.Scale = 0.01
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func options(res *rubis.Result) Options {
	return Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
	}
}

func TestCorrelateTraceFullAccuracy(t *testing.T) {
	res := fastRun(t, 80, nil)
	out, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("accuracy = %v (%v)", rep.PathAccuracy(), rep)
	}
	if rep.FalsePositives() != 0 || rep.FalseNegatives() != 0 {
		t.Fatalf("false positives/negatives: %v", rep)
	}
	if out.Unfinished() != 0 {
		t.Fatalf("unfinished CAGs: %d", out.Unfinished())
	}
	for _, g := range out.Graphs {
		if err := g.Validate(); err != nil {
			t.Fatalf("invalid CAG: %v\n%s", err, cag.Dump(g))
		}
	}
}

func TestCorrelatorIgnoresGroundTruthTags(t *testing.T) {
	// Strip the hidden request tags before correlating: results must be
	// structurally identical — the algorithm is truly black-box.
	res := fastRun(t, 40, nil)
	tagged, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	untagged := make([]*activity.Activity, len(res.Trace))
	for i, a := range res.Trace {
		cp := a.CloneUntagged()
		cp.ID = a.ID
		untagged[i] = cp
	}
	blind, err := New(options(res)).CorrelateTrace(untagged)
	if err != nil {
		t.Fatal(err)
	}
	if len(blind.Graphs) != len(tagged.Graphs) {
		t.Fatalf("CAG count changed without tags: %d vs %d", len(blind.Graphs), len(tagged.Graphs))
	}
	for i := range blind.Graphs {
		if cag.Signature(blind.Graphs[i]) != cag.Signature(tagged.Graphs[i]) {
			t.Fatalf("CAG %d shape changed without tags", i)
		}
	}
}

func TestAccuracyUnderSkewAndWindowSweep(t *testing.T) {
	// §5.2's grid: window 1ms..10s x skew 1ms..500ms, plus noise.
	res := fastRun(t, 60, func(c *rubis.Config) {
		c.Noise = true
		c.Skew.MaxSkew = 500 * time.Millisecond
		c.Skew.DriftPPM = 80
	})
	for _, w := range []time.Duration{time.Millisecond, 100 * time.Millisecond, 10 * time.Second} {
		opts := options(res)
		opts.Window = w
		out, err := New(opts).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Truth.Evaluate(out.Graphs)
		if rep.PathAccuracy() != 1.0 {
			t.Fatalf("window %v: %v", w, rep)
		}
	}
}

func TestNoEntryPortsRejected(t *testing.T) {
	res := fastRun(t, 20, nil)
	_, err := New(Options{Window: time.Millisecond}).CorrelateTrace(res.Trace)
	if err == nil {
		t.Fatal("expected ErrNoEntryPorts")
	}
}

// TestCorrelateTraceLeavesInputUnmodified: CorrelateTrace classifies and
// binds its own copies. An unbound trace (hand-built records carry no
// dense keys) must come back exactly as it went in, field for field —
// including through the early-close safety scan, which reads every
// record.
func TestCorrelateTraceLeavesInputUnmodified(t *testing.T) {
	res := fastRun(t, 20, nil)
	trace := make([]*activity.Activity, len(res.Trace))
	want := make([]activity.Activity, len(res.Trace))
	for i, a := range res.Trace {
		cp := *a
		cp.CtxK, cp.ChanK = activity.CtxKey{}, activity.ChanKey{}
		trace[i], want[i] = &cp, cp
	}
	out, err := New(options(res)).CorrelateTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != res.Truth.Requests() {
		t.Fatalf("graphs = %d, want %d", len(out.Graphs), res.Truth.Requests())
	}
	changed := 0
	for i, a := range trace {
		if *a != want[i] {
			changed++
		}
	}
	if changed > 0 {
		t.Fatalf("CorrelateTrace modified %d of %d input records (first: %v)", changed, len(trace), trace[0])
	}
}

func TestStreamingOutput(t *testing.T) {
	res := fastRun(t, 40, nil)
	var streamed int
	opts := options(res)
	opts.Sinks = []GraphSink{GraphSinkFunc(func(*cag.Graph) { streamed++ })}
	out, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Graphs) != 0 {
		t.Fatal("accumulator should be empty when streaming")
	}
	if streamed != res.Truth.Requests() {
		t.Fatalf("streamed %d, want %d", streamed, res.Truth.Requests())
	}
}

func TestFilterIntegration(t *testing.T) {
	res := fastRun(t, 40, func(c *rubis.Config) { c.Noise = true })
	opts := options(res)
	opts.Filter = ranker.AttributeFilter{
		DenyPrograms: map[string]bool{"sshd": true, "rlogind": true},
	}.Func()
	out, err := New(opts).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ranker.FilterDropped == 0 {
		t.Fatal("attribute filter never fired on ssh/rlogin noise")
	}
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("accuracy with filtering: %v", rep)
	}
}

func TestResultAccounting(t *testing.T) {
	res := fastRun(t, 40, nil)
	out, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if out.Activities != len(res.Trace) {
		t.Fatalf("Activities = %d, want %d", out.Activities, len(res.Trace))
	}
	if out.CorrelationTime <= 0 {
		t.Fatal("correlation time not measured")
	}
	if out.PeakBufferedActivities <= 0 || out.PeakResidentVertices <= 0 {
		t.Fatalf("peak accounting missing: %d %d", out.PeakBufferedActivities, out.PeakResidentVertices)
	}
	if out.EstimatedBytes() <= 0 {
		t.Fatal("memory estimate missing")
	}
}

func TestLargerWindowBuffersMore(t *testing.T) {
	res := fastRun(t, 150, nil)
	small, err := New(Options{Window: time.Millisecond, EntryPorts: []int{80}, IPToHost: res.IPToHost}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(Options{Window: 5 * time.Second, EntryPorts: []int{80}, IPToHost: res.IPToHost}).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if big.PeakBufferedActivities <= small.PeakBufferedActivities {
		t.Fatalf("bigger window should buffer more: %d (1ms) vs %d (5s)",
			small.PeakBufferedActivities, big.PeakBufferedActivities)
	}
}

func TestDefaultWindowApplied(t *testing.T) {
	c := New(Options{EntryPorts: []int{80}})
	if c.opts.Window != 10*time.Millisecond {
		t.Fatalf("default window = %v", c.opts.Window)
	}
}

func TestCorrelateDirStreamsFromDisk(t *testing.T) {
	res := fastRun(t, 60, func(c *rubis.Config) { c.Noise = true })
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		if err := activity.WriteHostLogs(dir, res.PerHost, true, gz); err != nil {
			t.Fatal(err)
		}
		var streamed int
		opts := options(res)
		opts.IPToHost = nil // force topology inference
		opts.Sinks = []GraphSink{GraphSinkFunc(func(*cag.Graph) { streamed++ })}
		out, err := New(opts).CorrelateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if streamed != res.Truth.Requests() {
			t.Fatalf("gz=%v: streamed %d CAGs, want %d", gz, streamed, res.Truth.Requests())
		}
		if out.Activities != len(res.Trace) {
			t.Fatalf("gz=%v: activities = %d, want %d", gz, out.Activities, len(res.Trace))
		}
		// The streaming pass keeps only the window resident.
		if out.PeakBufferedActivities > len(res.Trace)/4 {
			t.Fatalf("gz=%v: streaming buffered %d of %d activities", gz,
				out.PeakBufferedActivities, len(res.Trace))
		}
	}
}

func TestCorrelateDirAccuracyMatchesInMemory(t *testing.T) {
	res := fastRun(t, 40, nil)
	dir := t.TempDir()
	if err := activity.WriteHostLogs(dir, res.PerHost, true, false); err != nil {
		t.Fatal(err)
	}
	opts := options(res)
	opts.IPToHost = nil
	out, err := New(opts).CorrelateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild truth from the files (IDs are reassigned by read order).
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	truth := groundtruth.FromTrace(activity.Merge(perHost))
	rep := truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("dir accuracy: %v", rep)
	}
}

// TestCorrelateDirMatchesTrace: CorrelateDir's timestamp merge of the
// host logs (ties to the host whose file sorts first) is the arrival
// order of the logs' merged records, so with or without a seal horizon
// the directory pass must equal CorrelateTrace over that order graph for
// graph — the same forced seals and late links included, since both
// replays drain on the same record cadence.
func TestCorrelateDirMatchesTrace(t *testing.T) {
	res := rubisTrace(t, 60, 0.02, 4)
	dir := t.TempDir()
	if err := activity.WriteHostLogs(dir, res.PerHost, true, false); err != nil {
		t.Fatal(err)
	}
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	trace := arrivalOrder(activity.Merge(perHost))
	for _, seal := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		opts := options(res)
		opts.SealAfter = seal
		want, err := New(opts).CorrelateTrace(trace)
		if err != nil {
			t.Fatal(err)
		}
		got, err := New(opts).CorrelateDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		label := "sealafter=" + seal.String()
		assertSameGraphs(t, label, want, got)
		if got.ForcedSeals != want.ForcedSeals || got.LateLinks != want.LateLinks || got.Activities != want.Activities {
			t.Fatalf("%s: dir forced/late/activities %d/%d/%d, trace %d/%d/%d", label,
				got.ForcedSeals, got.LateLinks, got.Activities, want.ForcedSeals, want.LateLinks, want.Activities)
		}
		if (seal > 0) != (got.ForcedSeals > 0) {
			t.Fatalf("%s: %d forced seals", label, got.ForcedSeals)
		}
		t.Logf("%s: %d graphs, %d forced seals, %d late links", label, len(got.Graphs), got.ForcedSeals, got.LateLinks)
	}
}

// TestCorrelateDirDecodeError: a corrupt line is reported with its host
// and line number, by the correlation pass when IPToHost is given and by
// the topology scan when it is inferred.
func TestCorrelateDirDecodeError(t *testing.T) {
	dir := t.TempDir()
	perHost := map[string][]*activity.Activity{"web1": {}, "app1": {}}
	for i := 0; i < 3; i++ {
		ts := time.Duration(i) * time.Millisecond
		perHost["web1"] = append(perHost["web1"], mkRaw(int64(i), activity.Send, ts, "web1", "httpd", 1, "10.0.0.1", "10.0.0.2", 4000, 8009))
		perHost["app1"] = append(perHost["app1"], mkRaw(int64(i), activity.Receive, ts+time.Microsecond, "app1", "java", 1, "10.0.0.1", "10.0.0.2", 4000, 8009))
	}
	if err := activity.WriteHostLogs(dir, perHost, false, false); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "app1.trace"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a record\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const bad = `line 4: record has 3 fields, want 8: "not a record"`
	opts := Options{EntryPorts: []int{80}, IPToHost: map[string]string{"10.0.0.1": "web1", "10.0.0.2": "app1"}}
	if _, err := New(opts).CorrelateDir(dir); err == nil || err.Error() != "core: app1: "+bad {
		t.Fatalf("CorrelateDir error = %v, want %q", err, "core: app1: "+bad)
	}
	opts.IPToHost = nil
	if _, err := New(opts).CorrelateDir(dir); err == nil || err.Error() != "core: infer topology from app1.trace: "+bad {
		t.Fatalf("inferred CorrelateDir error = %v", err)
	}
}

func TestCorrelateDirErrors(t *testing.T) {
	if _, err := New(Options{EntryPorts: []int{80}}).CorrelateDir(t.TempDir()); err == nil {
		t.Fatal("empty dir should fail")
	}
	if _, err := New(Options{}).CorrelateDir(t.TempDir()); err == nil {
		t.Fatal("missing entry ports should fail")
	}
}
