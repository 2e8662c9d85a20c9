package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

// layerBatch is how many per-record calls one span covers.
const layerBatch = 256

// layerOut is what the layer-by-layer sequential pass produced.
type layerOut struct {
	graphs       []*cag.Graph
	merges       int
	rankerStats  ranker.Stats
	peakVertices int
	err          error
}

// layerPass drives the layers one by one through their public APIs on
// the input, as one sequential pass: classify every record, partition
// the arrival stream with flow.Incremental, rank and handle every host's
// classified records with one ranker+engine pair (the global pass
// internal/core's equivalence tests hold the pipeline to), and report.
// With a live tracer every call is timed, per batch of layerBatch
// records; Rank and Handle interleave per record, so their times are
// accumulated within each batch.
func layerPass(in *input, tr *tracer, parent int) layerOut {
	root := tr.open("layers", parent)
	defer tr.close(root, len(in.merged))

	// Classify shallow copies, as the correlator does, keeping per-host
	// order for the ranker's sources.
	cls := activity.NewClassifier(rubis.EntryPort)
	slab := make([]activity.Activity, len(in.merged))
	perHost := make(map[string][]*activity.Activity, len(in.hosts))
	classified := make([]*activity.Activity, len(in.merged))
	for i := 0; i < len(in.merged); i += layerBatch {
		s := tr.now()
		for k := i; k < min(i+layerBatch, len(in.merged)); k++ {
			a := in.merged[k]
			slab[k] = *a
			slab[k].Type = cls.Classify(a)
			classified[k] = &slab[k]
		}
		tr.record("activity.Classify", root, s, tr.now(), min(layerBatch, len(in.merged)-i), false)
	}
	for _, a := range classified {
		perHost[a.Ctx.Host] = append(perHost[a.Ctx.Host], a)
	}

	var out layerOut
	inc := flow.NewIncremental(flow.ModeFlow, func(_, _ int32) { out.merges++ })
	for i := 0; i < len(classified); i += layerBatch {
		s := tr.now()
		for _, a := range classified[i:min(i+layerBatch, len(classified))] {
			inc.Add(a)
		}
		tr.record("flow.Add", root, s, tr.now(), min(layerBatch, len(classified)-i), false)
	}

	sources := make([]ranker.Source, 0, len(in.hosts))
	for _, h := range in.hosts {
		sources = append(sources, ranker.NewSliceSource(h, perHost[h]))
	}
	eng := engine.New()
	rk := ranker.New(ranker.Config{Window: 10 * time.Millisecond, IPToHost: in.ipToHost}, eng, sources)
	if tr.on {
		rankHandleTraced(rk, eng, tr, root)
	} else {
		for a := rk.Rank(); a != nil; a = rk.Rank() {
			eng.Handle(a)
		}
	}
	out.graphs = eng.Outputs()
	out.rankerStats = rk.Stats()
	out.peakVertices = eng.PeakResidentVertices()

	s := tr.now()
	_, out.err = analysis.Report(out.graphs)
	tr.record("analysis.Report", root, s, tr.now(), len(out.graphs), false)
	return out
}

// rankHandleTraced is the Rank/Handle loop with each call timed. A span
// per layerBatch candidates holds the accumulated Rank and Handle time.
func rankHandleTraced(rk *ranker.Ranker, eng *engine.Engine, tr *tracer, parent int) {
	for done := false; !done; {
		batchStart := tr.now()
		var rankT, handleT time.Duration
		n := 0
		t := time.Now()
		for n < layerBatch {
			a := rk.Rank()
			t1 := time.Now()
			rankT += t1.Sub(t)
			if a == nil {
				done = true
				break
			}
			eng.Handle(a)
			t = time.Now()
			handleT += t.Sub(t1)
			n++
		}
		batch := tr.record("ranker+engine", parent, batchStart, tr.now(), n, false)
		acc := tr.accumUnder(batch, batchStart)
		acc.add("ranker.Rank", rankT, n)
		acc.add("engine.Handle", handleT, n)
	}
}

// sessionReplay pushes the input through a close-driven core.Session in
// arrival order at nproc workers, ticking every layerBatch records and
// timing Push, Tick, CloseHost and Close.
func sessionReplay(in *input, tr *tracer, parent int) ([]*cag.Graph, error) {
	root := tr.open("session", parent)
	defer tr.close(root, len(in.merged))
	col := &core.Collect{}
	sess, err := core.NewSession(correlatorOptions(in, runtime.NumCPU(), col), in.hosts)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(in.merged); i += layerBatch {
		s := tr.now()
		batch := in.merged[i:min(i+layerBatch, len(in.merged))]
		for _, a := range batch {
			if err := sess.Push(a); err != nil {
				return nil, fmt.Errorf("push: %w", err)
			}
		}
		pushed := tr.now()
		sess.Tick()
		tr.record("core.Session.Push", root, s, pushed, len(batch), false)
		tr.record("core.Session.Tick", root, pushed, tr.now(), len(batch), false)
	}
	for _, h := range in.hosts {
		s := tr.now()
		if err := sess.CloseHost(h); err != nil {
			return nil, fmt.Errorf("close host %s: %w", h, err)
		}
		tr.record("core.Session.CloseHost", root, s, tr.now(), 1, false)
	}
	s := tr.now()
	sess.Close()
	tr.record("core.Session.Close", root, s, tr.now(), 1, false)
	return col.Graphs, nil
}
