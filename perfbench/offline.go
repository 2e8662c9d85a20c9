package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/rubis"
)

// deliverySink collects a pass's CAGs with their delivery offsets from
// the pass's start.
type deliverySink struct {
	start  time.Time
	graphs []*cag.Graph
	at     []time.Duration
}

func (s *deliverySink) ConsumeGraph(g *cag.Graph) {
	s.graphs = append(s.graphs, g)
	s.at = append(s.at, time.Since(s.start))
}

func (s *deliverySink) reset() {
	s.start = time.Now()
	s.graphs, s.at = nil, nil
}

// offlineSys is the offline system under test: one Correlator at nproc
// workers, one at a single worker, both streaming into one sink.
type offlineSys struct {
	in            *input
	sink          *deliverySink
	multi, single *core.Correlator
}

func correlatorOptions(in *input, workers int, sinks ...core.GraphSink) core.Options {
	return core.Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   in.ipToHost,
		Workers:    workers,
		Sinks:      sinks,
	}
}

func newOfflineSys(in *input) *offlineSys {
	s := &offlineSys{in: in, sink: &deliverySink{}}
	s.multi = core.New(correlatorOptions(in, runtime.NumCPU(), s.sink))
	s.single = core.New(correlatorOptions(in, 1, s.sink))
	return s
}

// offlinePass is one timed offline job.
type offlinePass struct {
	wall   time.Duration
	acts   int
	shards int
	graphs []*cag.Graph
	at     []time.Duration
}

// pass runs the whole offline job once: correlate, then report.
func (s *offlineSys) pass(c *core.Correlator) (offlinePass, error) {
	s.sink.reset()
	var res *core.Result
	var err error
	if s.in.kind == offlineLogs {
		res, err = c.CorrelateDir(s.in.dir)
	} else {
		res, err = c.CorrelateTrace(s.in.merged)
	}
	if err != nil {
		return offlinePass{}, fmt.Errorf("correlate: %w", err)
	}
	if _, err := analysis.Report(s.sink.graphs); err != nil {
		return offlinePass{}, fmt.Errorf("report: %w", err)
	}
	return offlinePass{wall: time.Since(s.sink.start), acts: res.Activities, shards: res.Shards, graphs: s.sink.graphs, at: s.sink.at}, nil
}

// setupOffline builds the system and runs its untimed warm-up pass, at
// least rounds times and for at least minTime, and returns the last
// system with every round's set-up time. The first warm-up pass sets the
// gate's reference.
func setupOffline(in *input, g *gate, rounds int, minTime time.Duration) (*offlineSys, []float64, error) {
	var sys *offlineSys
	var times []float64
	for begin := time.Now(); len(times) < rounds || time.Since(begin) < minTime; {
		start := time.Now()
		sys = newOfflineSys(in)
		p, err := sys.pass(sys.multi)
		if err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) == 1 {
			g.check("warm-up pass", p.graphs)
		}
	}
	return sys, times, nil
}

// runOffline measures an offline workload's end-to-end metrics.
func runOffline(in *input, g *gate, rep *report, budget time.Duration) error {
	sys, setups, err := setupOffline(in, g, setupRounds, setupTime)
	if err != nil {
		return err
	}
	rep.add("setup_s", "s", median(setups), len(setups))

	nproc := runtime.NumCPU()
	var multi, single, cpuPerAct, heaps []float64
	var lags [][]float64
	start := time.Now()
	for i := 0; time.Since(start) < budget || len(single) < minPasses; i++ {
		one := i%2 == 1
		c := sys.multi
		if one {
			c = sys.single
			runtime.GOMAXPROCS(1)
		}
		runtime.GC()
		hs := sampleHeap(heapEvery)
		c0 := cpuTime()
		p, err := sys.pass(c)
		cpu := cpuTime() - c0
		peak := hs.finish()
		runtime.GOMAXPROCS(nproc)
		if err != nil {
			return fmt.Errorf("timed pass: %w", err)
		}
		rate := float64(p.acts) / p.wall.Seconds()
		switch {
		case i == 1:
			g.same("acts_per_s_1p pass vs pipeline", g.check("1p pass", p.graphs), g.refHash)
		case i == 0:
			g.check("pipeline pass", p.graphs)
		default:
			g.repeat("timed pass", p.graphs)
		}
		if one {
			single = append(single, rate)
			continue
		}
		multi = append(multi, rate)
		cpuPerAct = append(cpuPerAct, float64(cpu.Microseconds())/float64(p.acts))
		heaps = append(heaps, peak)
		lag := make([]float64, len(p.at))
		for n, at := range p.at {
			lag[n] = ms(at)
		}
		lags = append(lags, lag)
	}

	// The layer-by-layer sequential pass must agree with the pipeline.
	if err := in.load(); err != nil {
		g.opErr("load records", err)
	} else {
		lp := layerPass(in, newTracer(false), 0)
		if lp.err != nil {
			g.opErr("layer-by-layer report", lp.err)
		}
		g.same("layer-by-layer pass vs pipeline", digest(lp.graphs), g.refHash)
		in.unload()
	}

	rep.add("acts_per_s", "acts/s", median(multi), len(multi))
	rep.add("acts_per_s_1p", "acts/s", median(single), len(single))
	rep.add("cpu_us_per_act", "us", median(cpuPerAct), len(cpuPerAct))
	rep.add("peak_heap_mb", "MiB", median(heaps), len(heaps))
	rep.addLags(lags)
	return nil
}
