package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/core"
	"repro/internal/live"
)

// The live deployment: livemon -listen's ingest cadence, a seal horizon
// at which path accuracy stays 1.0, and a replay at 20× activity time.
const (
	liveSpeed      = 20.0
	liveHorizon    = 50 * time.Millisecond
	liveDrainEvery = 256
	liveFlush      = 250 * time.Millisecond
	// stepMax caps the records one generator step sends: an unpaced
	// replay's step, or a paced one catching up after a stall.
	stepMax = 256
)

// A paced replay is invalid, and is not reported, when its generator
// pushed records later than these bounds after they were due.
const (
	maxLateP99 = 25 * time.Millisecond
	maxLateMax = 250 * time.Millisecond
)

// replay configures one pass of the live path.
type replay struct {
	speed   float64       // activity time per wall time; 0 = unpaced (flat out)
	limit   time.Duration // stop after this much wall-clock schedule; 0 = whole trace
	workers int
}

// liveOut is what one replay measured.
type liveOut struct {
	wall    time.Duration // first push to the monitor's final flush
	acts    int
	graphs  []*cag.Graph
	lags    []float64     // ms, CAGs decided by the horizon during the schedule
	tail    int           // CAGs decided only by the final host closes
	late    []float64     // ms, per record: push time minus due time (paced only)
	cpu     time.Duration // process CPU from the first due record to the last push
	offered float64       // records per second of schedule
	res     *core.Result
}

// lagSink stamps each CAG's delivery with its wall offset from the
// schedule's origin. It runs on the ingest goroutine.
type lagSink struct {
	t0     time.Time
	graphs []*cag.Graph
	at     []time.Duration
}

func (s *lagSink) ConsumeGraph(g *cag.Graph) {
	s.at = append(s.at, time.Since(s.t0))
	s.graphs = append(s.graphs, g)
}

// timedSink times a downstream sink per graph, accumulating the time
// into one span per timedSinkBatch graphs.
type timedSink struct {
	next  core.GraphSink
	name  string
	acc   *accum
	sum   time.Duration
	count int
}

const timedSinkBatch = 64

func (s *timedSink) ConsumeGraph(g *cag.Graph) {
	start := time.Now()
	s.next.ConsumeGraph(g)
	s.sum += time.Since(start)
	if s.count++; s.count == timedSinkBatch {
		s.flush()
	}
}

func (s *timedSink) flush() {
	if s.count > 0 {
		s.acc.add(s.name, s.sum, s.count)
	}
	s.sum, s.count = 0, 0
}

// runLive replays the input through the collector's path without the
// socket: one generator goroutine (the caller) frames the due records
// with the binary codec, decodes them into pooled records and hands them
// to core.Ingest, which drives a continuous Session feeding a latency
// sink and a live.Monitor. The schedule is open loop: records
// are due at fixed wall offsets whatever the system does.
func runLive(in *input, rp replay, tr *tracer, parent int) (*liveOut, error) {
	recs := in.merged
	if len(recs) == 0 {
		return nil, fmt.Errorf("live: empty input")
	}
	ts0 := recs[0].Timestamp
	last := len(recs)
	if rp.limit > 0 && rp.speed > 0 {
		cut := ts0 + time.Duration(float64(rp.limit)*rp.speed)
		last = sort.Search(len(recs), func(i int) bool { return recs[i].Timestamp > cut })
	}
	due := func(i int) time.Duration {
		if rp.speed == 0 {
			return 0
		}
		return time.Duration(float64(recs[i].Timestamp-ts0) / rp.speed)
	}

	root := tr.open("live.replay", parent)
	monRoot := tr.open("live.Monitor", root)
	mon := live.NewMonitor(live.Config{Interval: 5 * time.Second})
	lag := &lagSink{}
	var monSink core.GraphSink = mon
	var timed *timedSink
	if tr.on {
		timed = &timedSink{next: mon, name: "live.Monitor.ConsumeGraph", acc: tr.accumUnder(monRoot, tr.now())}
		monSink = timed
	}
	opts := correlatorOptions(in, rp.workers)
	opts.SealAfter = liveHorizon
	sess, err := core.NewSession(opts, in.hosts)
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	ing := core.NewIngest(sess, core.IngestOptions{
		DrainEvery:    liveDrainEvery,
		FlushInterval: liveFlush,
		OnApplied:     mon.ObserveDelivery,
		Release:       activity.ReleaseRecord,
		Sinks:         []core.GraphSink{lag, monSink},
	})

	out := &liveOut{acts: last}
	if rp.speed > 0 {
		out.late = make([]float64, 0, last)
	}
	// Each step's batch is a window of one slice the ingest takes over.
	batches := make([]*activity.Activity, last)
	var buf []byte
	var pushErr error
	// Paced steps carry a few dozen records, so the generator's per-call
	// times are accumulated over windows of at least layerBatch records.
	var win struct {
		start          time.Duration
		n              int
		enc, dec, push time.Duration
	}
	flush := func() {
		if win.n > 0 {
			id := tr.record("live.generator", root, win.start, tr.now(), win.n, false)
			acc := tr.accumUnder(id, win.start)
			acc.add("activity.AppendBinary", win.enc, win.n)
			acc.add("activity.DecodeBinaryInto", win.dec, win.n)
			acc.add("core.Ingest.PushBatch", win.push, win.n)
		}
		win.n, win.enc, win.dec, win.push = 0, 0, 0, 0
	}
	push := func(k0, k1 int, t0 time.Time) {
		s := time.Now()
		if win.n == 0 {
			win.start = tr.now()
		}
		buf = buf[:0]
		for _, a := range recs[k0:k1] {
			buf = activity.AppendBinary(buf, a)
		}
		encEnd := time.Now()
		batch := batches[k0:k1:k1]
		off := 0
		for n := range batch {
			a := activity.NewRecord()
			m, err := activity.DecodeBinaryInto(a, buf[off:])
			if err != nil && pushErr == nil {
				pushErr = fmt.Errorf("decode: %w", err)
			}
			off += m
			batch[n] = a
		}
		decEnd := time.Now()
		if rp.speed > 0 {
			at := decEnd.Sub(t0)
			for k := k0; k < k1; k++ {
				out.late = append(out.late, ms(at-due(k)))
			}
		}
		if err := ing.PushBatch(batch); err != nil && pushErr == nil {
			pushErr = fmt.Errorf("push: %w", err)
		}
		pushEnd := time.Now()
		win.enc += encEnd.Sub(s)
		win.dec += decEnd.Sub(encEnd)
		win.push += pushEnd.Sub(decEnd)
		if win.n += k1 - k0; win.n >= layerBatch {
			flush()
		}
	}

	// Each step sends every due record, at most stepMax, as one batch in
	// timestamp order: no host ever runs ahead of another, so the stream
	// honours the sender-liveness bound a seal horizon assumes.
	t0, cpu0 := time.Now(), cpuTime()
	lag.t0 = t0
	for i := 0; i < last; {
		now := time.Since(t0)
		if d := due(i); d > now {
			time.Sleep(d - now)
			continue
		}
		j := i + 1
		for j < last && j-i < stepMax && due(j) <= now {
			j++
		}
		push(i, j, t0)
		i = j
	}
	flush()
	schedEnd := time.Since(t0)
	out.cpu = cpuTime() - cpu0
	for _, h := range in.hosts {
		s := tr.now()
		if err := ing.CloseHost(h); err != nil && pushErr == nil {
			pushErr = fmt.Errorf("close host %s: %w", h, err)
		}
		tr.record("core.Ingest.CloseHost", root, s, tr.now(), 1, false)
	}
	s := tr.now()
	out.res = ing.Close()
	mon.Flush()
	tr.record("core.Ingest.Close", root, s, tr.now(), 1, false)
	out.wall = time.Since(t0)
	if timed != nil {
		timed.flush()
	}
	tr.close(monRoot, len(lag.graphs))
	tr.close(root, last)
	if pushErr != nil {
		return nil, pushErr
	}

	out.graphs = lag.graphs
	out.offered = float64(last) / schedEnd.Seconds()
	lastTs := recs[last-1].Timestamp
	for n, g := range lag.graphs {
		end := g.End().Timestamp
		if rp.speed == 0 || end+liveHorizon > lastTs {
			out.tail++
			continue
		}
		out.lags = append(out.lags, lagMs(lag.at[n], end, ts0, liveHorizon, rp.speed))
	}
	return out, nil
}

// lateness returns a paced replay's p99 and maximum generator lateness,
// and whether they stay within the validity bounds.
func (o *liveOut) lateness() (p99, worst float64, valid bool) {
	for _, l := range o.late {
		worst = max(worst, l)
	}
	p99, ok := percentile(append([]float64(nil), o.late...), 0.99)
	valid = ok && p99 <= ms(maxLateP99) && worst <= ms(maxLateMax)
	return p99, worst, valid
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pacedAttempts bounds how often a late (invalid) paced replay is re-run
// before the whole run is declared invalid.
const pacedAttempts = 3

// errInvalid reports a run whose open-loop generator could not keep its
// schedule; its latency is not reported.
type errInvalid struct{ p99, worst float64 }

func (e errInvalid) Error() string {
	return fmt.Sprintf("invalid run: the generator ran late (p99 %.2f ms, max %.2f ms; bounds %v, %v)",
		e.p99, e.worst, maxLateP99, maxLateMax)
}

// pacedReplay runs one valid paced replay, re-running a late one.
func pacedReplay(in *input, rp replay, tr *tracer, parent int) (*liveOut, error) {
	for attempt := 1; ; attempt++ {
		out, err := runLive(in, rp, tr, parent)
		if err != nil {
			return nil, err
		}
		p99, worst, valid := out.lateness()
		if valid {
			return out, nil
		}
		if attempt == pacedAttempts {
			return nil, errInvalid{p99, worst}
		}
	}
}

// runLiveWorkload measures live-paced's end-to-end metrics.
func runLiveWorkload(in *input, g *gate, rep *report, budget time.Duration) error {
	nproc := runtime.NumCPU()
	off := newTracer(false)
	var setups []float64
	for begin := time.Now(); len(setups) < setupRounds || time.Since(begin) < setupTime; {
		start := time.Now()
		out, err := runLive(in, replay{workers: nproc}, off, 0)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if len(setups) == 1 {
			g.check("warm-up replay", out.graphs)
		}
	}
	rep.add("setup_s", "s", median(setups), len(setups))

	// Unpaced replays, alternating nproc and one core, fill the first
	// 1-pacedShare of the budget.
	var multi, single []float64
	start := time.Now()
	for i := 0; time.Since(start) < time.Duration(float64(budget)*(1-pacedShare)) || len(single) < minPasses; i++ {
		one := i%2 == 1
		workers := nproc
		if one {
			workers = 1
			runtime.GOMAXPROCS(1)
		}
		runtime.GC()
		out, err := runLive(in, replay{workers: workers}, off, 0)
		runtime.GOMAXPROCS(nproc)
		if err != nil {
			return fmt.Errorf("unpaced replay: %w", err)
		}
		g.repeat("unpaced replay", out.graphs)
		rate := float64(out.acts) / out.wall.Seconds()
		if one {
			single = append(single, rate)
		} else {
			multi = append(multi, rate)
		}
	}

	// Paced replays fill the rest of the budget, at least one.
	var heaps []float64
	var lags [][]float64
	var cpu time.Duration
	var acts int
	start = time.Now()
	var last time.Duration
	for len(heaps) == 0 || time.Since(start)+last <= time.Duration(float64(budget)*pacedShare) {
		runtime.GC()
		hs := sampleHeap(heapEvery)
		out, err := pacedReplay(in, replay{speed: liveSpeed, workers: nproc}, off, 0)
		peak := hs.finish()
		if err != nil {
			return err
		}
		last = out.wall
		g.repeat("paced replay", out.graphs)
		cpu += out.cpu
		acts += out.acts
		heaps = append(heaps, peak)
		lags = append(lags, out.lags)
		p99, worst, _ := out.lateness()
		fmt.Printf("paced replay: %d records at %.0f/s, %d CAGs (%d decided at close), generator late p99 %.3f ms max %.3f ms, %v\n",
			out.acts, out.offered, len(out.graphs), out.tail, p99, worst, out.wall.Round(time.Millisecond))
	}

	rep.add("acts_per_s", "acts/s", median(multi), len(multi))
	rep.add("acts_per_s_1p", "acts/s", median(single), len(single))
	rep.add("cpu_us_per_act", "us", float64(cpu.Microseconds())/float64(acts), len(heaps))
	rep.add("peak_heap_mb", "MiB", median(heaps), len(heaps))
	rep.addLags(lags)
	return nil
}
