package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// Traced-run sizes: untimed job passes behind the runtime counters, and
// the wall-clock schedule of the live replay on the offline workloads.
const (
	counterPasses = 3
	prefixWall    = 3 * time.Second
)

// runTraced is the separate traced run: it reports per-layer metrics from
// spans recorded around the benchmark's calls into each layer's public
// API, and writes the spans to spansPath.
func runTraced(in *input, g *gate, rep *report, tmp, spansPath string) error {
	nproc := runtime.NumCPU()
	off := newTracer(false)

	// Runtime counters over the workload's own job, untraced.
	job, err := counterWindow(in, g)
	if err != nil {
		return err
	}

	// Text decode: the workload's logs (offline-logs reads the logs the
	// job reads; the others are written out as text first).
	tr := newTracer(true)
	dir := in.dir
	if in.kind != offlineLogs {
		dir = filepath.Join(tmp, "text")
		if err := activity.WriteHostLogs(dir, in.perHost, true, false); err != nil {
			return fmt.Errorf("write text logs: %w", err)
		}
	}
	s := tr.now()
	perHost, err := activity.ReadHostLogs(dir)
	if err != nil {
		return fmt.Errorf("read logs: %w", err)
	}
	tr.record("activity.ReadHostLogs", 0, s, tr.now(), len(activity.Merge(perHost)), false)
	if in.kind == offlineLogs {
		in.setRecords(perHost)
	}

	// The layer suite after one warm-up, untraced and traced in the order
	// U T T U: the difference is the tracing overhead.
	var plain, traced time.Duration
	var lp layerOut
	var sessGraphs []*cag.Graph
	for i, t := range []*tracer{off, off, tr, tr, off} {
		runtime.GC()
		start := time.Now()
		lp = layerPass(in, t, 0)
		sessGraphs, err = sessionReplay(in, t, 0)
		d := time.Since(start)
		if err != nil {
			return fmt.Errorf("session replay: %w", err)
		}
		if lp.err != nil {
			g.opErr("layer-by-layer report", lp.err)
		}
		switch {
		case i == 0:
		case t.on:
			traced += d
		default:
			plain += d
		}
	}
	if in.kind == livePaced {
		// The live job's reference is a continuous replay; these two
		// close-driven passes may differ from it and are held to the
		// ground truth instead.
		g.check("layer-by-layer pass", lp.graphs)
		g.check("session replay", sessGraphs)
	} else {
		g.same("layer-by-layer pass vs pipeline", digest(lp.graphs), g.refHash)
		g.same("session replay vs pipeline", digest(sessGraphs), g.refHash)
	}

	// The live path, traced: the whole paced replay on live-paced, the
	// first prefixWall of the schedule on the offline workloads.
	rp := replay{speed: liveSpeed, workers: nproc}
	if in.kind != livePaced {
		rp.limit = prefixWall
	}
	runtime.GC()
	lr, err := pacedReplay(in, rp, tr, 0)
	if err != nil {
		return err
	}
	if in.kind == livePaced {
		g.repeat("traced paced replay", lr.graphs)
	}
	lateP99, lateMax, _ := lr.lateness()
	in.unload()

	t := tr.totals()
	addPer := func(metric, span string) {
		lt := t[span]
		rep.add(metric, "ns", float64(lt.self.Nanoseconds())/float64(max(lt.items, 1)), lt.items)
	}
	addPer("activity.parse_ns_per_rec", "activity.ReadHostLogs")
	addPer("activity.encode_ns_per_rec", "activity.AppendBinary")
	addPer("activity.decode_ns_per_rec", "activity.DecodeBinaryInto")
	addPer("activity.classify_ns_per_act", "activity.Classify")
	addPer("flow.add_ns_per_act", "flow.Add")
	rep.add("flow.merges", "count", float64(lp.merges), 1)
	rep.add("core.shards", "count", float64(job.shards), 1)
	addPer("core.push_ns_per_act", "core.Session.Push")
	addPer("core.tick_ns_per_act", "core.Session.Tick")
	closes := t["core.Session.Close"]
	rep.add("core.close_wait_s", "s", closes.self.Seconds()/float64(max(closes.spans, 1)), closes.spans)
	addPer("ranker.rank_ns_per_act", "ranker.Rank")
	rs := lp.rankerStats
	rep.add("ranker.noise_drop_share", "ratio", float64(rs.NoiseDropped)/float64(max(rs.Fetched, 1)), int(rs.Fetched))
	rep.add("ranker.peak_buffered", "count", float64(rs.PeakBuffered), 1)
	addPer("engine.handle_ns_per_act", "engine.Handle")
	rep.add("engine.peak_resident_vertices", "count", float64(lp.peakVertices), 1)
	addPer("analysis.report_ns_per_graph", "analysis.Report")
	pb := t["core.Ingest.PushBatch"]
	rep.add("ingest.block_ms", "ms", ms(pb.self), pb.spans)
	addPer("live.consume_ns_per_graph", "live.Monitor.ConsumeGraph")
	rep.add("core.forced_seals", "count", float64(lr.res.ForcedSeals), 1)
	rep.add("core.late_links", "count", float64(lr.res.LateLinks), 1)
	rc, acts, passes := job.counters, float64(job.acts), job.passes
	rep.add("gc.cpu_share", "ratio", rc.gcCPU/job.cpu.Seconds(), passes)
	rep.add("gc.cycles", "count", float64(rc.gcCycles)/float64(passes), passes)
	rep.add("alloc_bytes_per_act", "B", float64(rc.allocBytes)/acts, passes)
	rep.add("allocs_per_act", "count", float64(rc.allocObjects)/acts, passes)
	rep.add("gen.late_p99_ms", "ms", lateP99, len(lr.late))
	rep.add("gen.late_max_ms", "ms", lateMax, len(lr.late))
	rep.add("gen.offered_per_s", "acts/s", lr.offered, 1)
	rep.add("trace.overhead_share", "ratio", traced.Seconds()/plain.Seconds()-1, 2)
	return tr.write(spansPath)
}

// jobWindow is what counterWindow measured.
type jobWindow struct {
	counters runtimeCounters
	cpu      time.Duration // process CPU inside the passes
	acts     int
	passes   int
	shards   int // flow components the job correlated
}

// counterWindow runs the workload's job untraced — counterPasses offline
// passes, or one paced replay — and accumulates the runtime counters and
// process CPU time inside the passes only.
func counterWindow(in *input, g *gate) (jobWindow, error) {
	var w jobWindow
	if in.kind == livePaced {
		off := newTracer(false)
		warm, err := runLive(in, replay{workers: runtime.NumCPU()}, off, 0)
		if err != nil {
			return w, fmt.Errorf("warm-up: %w", err)
		}
		g.check("warm-up replay", warm.graphs)
		runtime.GC()
		before, c0 := readCounters(), cpuTime()
		out, err := pacedReplay(in, replay{speed: liveSpeed, workers: runtime.NumCPU()}, off, 0)
		if err != nil {
			return w, err
		}
		w.cpu = cpuTime() - c0
		w.counters = w.counters.plusSince(before, readCounters())
		g.repeat("paced replay", out.graphs)
		w.acts, w.passes, w.shards = out.acts, 1, out.res.Shards
		return w, nil
	}
	sys, _, err := setupOffline(in, g, 1, 0)
	if err != nil {
		return w, err
	}
	for i := 0; i < counterPasses; i++ {
		runtime.GC()
		before, c0 := readCounters(), cpuTime()
		p, err := sys.pass(sys.multi)
		if err != nil {
			return w, err
		}
		w.cpu += cpuTime() - c0
		w.counters = w.counters.plusSince(before, readCounters())
		w.acts += p.acts
		w.passes++
		w.shards = p.shards
		g.repeat("pipeline pass", p.graphs)
	}
	return w, nil
}
