package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/groundtruth"
	"repro/internal/live"
	"repro/internal/report"
	"repro/internal/rubis"
)

// TestEndToEndWorkflow walks the full user journey once: generate a
// workload, persist per-host logs, stream-correlate from disk, classify,
// analyse, detect an injected fault, and render the HTML report.
func TestEndToEndWorkflow(t *testing.T) {
	dir := t.TempDir()

	// 1. Healthy run, persisted like a real collection (per-host, gzip).
	cfg := rubis.DefaultConfig(120)
	cfg.Scale = 0.01
	cfg.Noise = true
	cfg.Skew.MaxSkew = 300 * time.Millisecond
	healthy, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := activity.WriteHostLogs(dir, healthy.PerHost, true, true); err != nil {
		t.Fatal(err)
	}

	// 2. Stream-correlate from disk with inferred topology.
	out, err := core.New(core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
	}).CorrelateDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	truth := groundtruth.FromTrace(activity.Merge(perHost))
	if rep := truth.Evaluate(out.Graphs); rep.PathAccuracy() != 1.0 {
		t.Fatalf("disk round-trip accuracy: %v", rep)
	}

	// 3. Analysis layer: node clocks are 300ms apart, so detector-grade
	// percentages need the skew estimator first.
	est := analysis.EstimateOffsets(out.Graphs, "web1")
	healthyRep, err := analysis.DominantPatternCorrected(out.Graphs, 3, est)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Faulty run (EJB delay) and automated diagnosis.
	cfg.Faults.EJBDelay = 40 * time.Millisecond
	cfg.Noise = false
	faulty, err := rubis.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fOut, err := core.New(core.Options{
		Window: 10 * time.Millisecond, EntryPorts: []int{rubis.EntryPort}, IPToHost: faulty.IPToHost,
	}).CorrelateTrace(faulty.Trace)
	if err != nil {
		t.Fatal(err)
	}
	fEst := analysis.EstimateOffsets(fOut.Graphs, "web1")
	faultyRep, err := analysis.DominantPatternCorrected(fOut.Graphs, 3, fEst)
	if err != nil {
		t.Fatal(err)
	}
	findings := analysis.Detector{}.Diagnose(healthyRep, faultyRep)
	if len(findings) == 0 || findings[0].Category != "java2java" {
		t.Fatalf("diagnosis failed: %v", findings)
	}

	// 5. HTML report to disk.
	reports, err := analysis.Report(fOut.Graphs)
	if err != nil {
		t.Fatal(err)
	}
	htmlPath := filepath.Join(dir, "report.html")
	f, err := os.Create(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.Render(f, report.Build("integration", fOut, reports, findings)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	html, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "java2java") {
		t.Fatal("report missing the finding")
	}
}

// TestOnlineWorkflow streams a fault onset through Session + Monitor and
// checks it is caught within the faulty region.
func TestOnlineWorkflow(t *testing.T) {
	mk := func(faults rubis.Faults) *rubis.Result {
		cfg := rubis.DefaultConfig(150)
		cfg.Scale = 0.01
		cfg.Faults = faults
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := mk(rubis.Faults{})
	faulty := mk(rubis.Faults{DBLock: true, DBLockHold: 5 * time.Millisecond})

	monitor := live.NewMonitor(live.Config{
		Interval: 2 * time.Second, BaselineIntervals: 1, MinRequests: 5,
	})
	var shift time.Duration
	stream := func(res *rubis.Result) {
		var hosts []string
		for h := range res.PerHost {
			hosts = append(hosts, h)
		}
		sess, err := core.NewSession(core.Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
			Sinks: []core.GraphSink{core.GraphSinkFunc(func(g *cag.Graph) {
				for _, v := range g.Vertices() {
					v.Timestamp += shift
				}
				monitor.Ingest(g)
			})},
		}, hosts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Trace {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		sess.Close()
		shift += res.Trace[len(res.Trace)-1].Timestamp + time.Second
	}
	stream(healthy)
	stream(faulty)
	monitor.Flush()

	caught := false
	for _, a := range monitor.Stats().Alerts {
		if a.Finding.Category == "mysqld2mysqld" {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("DB lock onset not caught:\n%s", monitor.Summary())
	}
}
