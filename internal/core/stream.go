package core

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
)

// Session is the one streaming correlation engine. Every execution mode
// is a configuration of it — there is no other path: online callers push
// live records into it, the offline Correlate calls replay a recorded
// input through it (replay.go), Workers sizes its correlation pool (1 =
// the sequential configuration), and seal horizons (global or per host)
// turn it continuous. That includes the PaperExactNoise ablation: the
// Fig. 5 predicate's pending-SEND question is answered from each shard's
// own window buffer, which the channel-closure invariant makes equal to
// the global answer — every SEND that could match a RECEIVE shares its
// ChanKey and therefore its component (see ranker.matchingSendVisible,
// and assertChanClosure below for the debug check).
//
// Pipeline:
//
//	Push ──> incremental flow partition (internal/flow.Incremental):
//	         every activity joins a component as it arrives; components
//	         fuse when a TCP connection or context epoch links them.
//	CloseHost / seal horizon ──> sealing: a component seals when no open
//	         host can extend it (the completion watermark), or — with a
//	         horizon configured — when it has idled past the largest
//	         horizon of the hosts that could still extend it.
//	jobs channel ──> a worker pool runs the unmodified sequential
//	         ranker+engine pass (Correlator.drive) over each sealed
//	         component, no shared state, and appends the shard result to
//	         colBuf under colMu; stage 1 absorbs it at Tick/Drain/Close.
//	Drain/Close ──> the watermark emitter releases finished CAGs in
//	         deterministic END-timestamp order, holding back any graph
//	         that a still-open stream or still-pending component could
//	         yet precede.
//
// The result is byte-identical to the historical sequential correlator
// for the same per-host input order on well-formed traces
// (TestParallelSessionEquivalence, TestParallelEquivalence): the
// per-component passes are exact because components are closed under the
// engine's two lookup relations, and the emitter's order is the
// sequential completion order.
//
// With a seal horizon the session additionally runs continuously: Drain
// force-seals components idle past their horizon (against the activity
// clock, never wall time), the watermark treats quiet open streams as
// bounded by their own host horizons, and dispatched components' flow
// bookkeeping is tombstoned then pruned — memory stays bounded by
// recently-active components even if CloseHost is never called.
// Per-host horizons (Options.SealAfterByHost) let one chronically
// lagging agent extend only its own components' deadlines; Heartbeat
// lets an idle-but-healthy agent advance the watermark without traffic.
// See Options.SealAfter for the no-guess tradeoff this accepts.
//
// Contributor tracking relies on Options.IPToHost covering every declared
// host's addresses (the same map the ranker's noise reasoning needs): an
// activity can only extend a component from a host owning one of the
// component's channel endpoints. Unresolvable endpoints are treated as
// untraced, exactly like the ranker treats them.
//
// Identity handling: records are bound (activity.Bind) on the way in, so
// every internal table — host streams, component buffers, endpoint
// resolution — keys on dense symbols and packed keys, never on strings.
// Host names reappear only where output order or reporting needs them
// (correlateComponent's sorted sources, error messages).

// slabSize is how many buffered-copy records one slab block holds.
const slabSize = 512

// copyRec copies one record into the session's slab. The returned copy
// is owned by the session (component buffers, then CAG vertices).
func (s *Session) copyRec(a *activity.Activity) *activity.Activity {
	if len(s.slab) == 0 {
		s.slab = make([]activity.Activity, slabSize)
	}
	cp := &s.slab[0]
	s.slab = s.slab[1:]
	*cp = *a
	return cp
}

// sessHost is one declared host's stream state.
type sessHost struct {
	name    string // interned canonical name, for errors and source labels
	open    bool
	any     bool // has pushed or heartbeated at least once
	last    time.Duration
	seq     uint64
	horizon time.Duration // effective seal horizon; 0 = close-driven only
}

// pushRec pairs an activity with its per-host push sequence number, so
// component fusion can interleave equal-timestamp records in push order —
// the order the per-host input streams preserve.
type pushRec struct {
	a   *activity.Activity
	seq uint64
}

// hostRun is one host's (timestamp, push-sequence)-ordered buffer within
// a component. Components touch a handful of hosts, so a flat slice with
// linear host lookup beats a map: no per-component map allocation, and
// the runs are iterated far more often than they are searched.
type hostRun struct {
	host activity.Sym
	recs []pushRec
}

// sessComponent is one growing flow component of the online partition.
type sessComponent struct {
	id      int // creation order: deterministic ordering fallback
	minTs   time.Duration
	maxTs   time.Duration // newest member: the staleness measure
	size    int
	runs    []hostRun      // buffered records, one run per contributing host
	contrib []activity.Sym // declared hosts that may still extend it
	sealed  bool
	forced  bool  // sealed by a horizon, not by host closure
	late    bool  // received a straggler that late-linked off a sealed shard
	root    int32 // current union-find root

	// runs0 and contrib0 are inline backing storage: most components
	// touch one or two hosts, so the slices usually never leave the
	// struct (same trick as cag.Vertex's inline record storage).
	runs0    [2]hostRun
	contrib0 [4]activity.Sym
}

func newSessComponent(id int, ts time.Duration, root int32) *sessComponent {
	c := &sessComponent{id: id, minTs: ts, maxTs: ts, root: root}
	c.runs = c.runs0[:0]
	c.contrib = c.contrib0[:0]
	return c
}

// appendRec buffers one record on the host's run.
func (c *sessComponent) appendRec(h activity.Sym, r pushRec) {
	for i := range c.runs {
		if c.runs[i].host == h {
			c.runs[i].recs = append(c.runs[i].recs, r)
			return
		}
	}
	c.runs = append(c.runs, hostRun{host: h, recs: append(make([]pushRec, 0, 4), r)})
}

// noteHost marks a declared host as a possible future contributor.
func (c *sessComponent) noteHost(h activity.Sym) {
	for _, x := range c.contrib {
		if x == h {
			return
		}
	}
	c.contrib = append(c.contrib, h)
}

// sessShardResult is one sealed component's correlation output.
type sessShardResult struct {
	comp         *sessComponent
	graphs       []*cag.Graph
	rstats       ranker.Stats
	estats       engine.Stats
	peakResident int
}

// taggedGraph is one finished CAG tagged with its deterministic
// provenance (component ordering key, emission position within the
// shard) for the watermark emitter.
type taggedGraph struct {
	g    *cag.Graph
	comp int
	pos  int
}

// sortTagged restores the sequential emission order: global
// END-timestamp order. Ties reproduce the sequential ranker's behaviour
// too: equal-timestamp ENDs on different hosts are delivered in sorted
// host order (Rule 2 keeps the first queue on a tie; queues are built in
// sorted host order), and within one host in log order, which record IDs
// preserve (every trace producer assigns IDs in per-host log order).
// Component/position order is the final fallback for ID-less hand-built
// traces.
func sortTagged(tagged []taggedGraph) {
	sort.Slice(tagged, func(i, j int) bool {
		ei, ej := tagged[i].g.End(), tagged[j].g.End()
		if ei.Timestamp != ej.Timestamp {
			return ei.Timestamp < ej.Timestamp
		}
		if ei.Ctx.Host != ej.Ctx.Host {
			return ei.Ctx.Host < ej.Ctx.Host
		}
		if a, b := ei.Records[0].ID, ej.Records[0].ID; a != b {
			return a < b
		}
		if tagged[i].comp != tagged[j].comp {
			return tagged[i].comp < tagged[j].comp
		}
		return tagged[i].pos < tagged[j].pos
	})
}

// newSession builds a session and starts its worker pool. NewSession
// validates the options first; the offline replays call it directly.
func newSession(opts Options, hosts []string) *Session {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	drvOpts := opts
	drvOpts.Workers = 0
	drvOpts.Sinks = nil
	// The jobs channel is deep enough that a burst of seals (one drain
	// can retire hundreds of components) dispatches without stalling
	// stage 1.
	jobsCap := 8 * workers
	if jobsCap < 64 {
		jobsCap = 64
	}
	s := &Session{
		opts:       opts,
		drv:        New(drvOpts),
		cls:        activity.NewClassifier(opts.EntryPorts...),
		hosts:      make(map[activity.Sym]*sessHost, len(hosts)),
		comps:      make(map[int32]*sessComponent),
		jobs:       make(chan *sessComponent, jobsCap),
		continuous: opts.continuousConfigured(),
		maxHorizon: opts.maxHorizon(),
	}
	s.colReady.L = &s.colMu
	// The session owns its sink list: AddSink appends to it, and the
	// caller's slice must not alias it.
	s.opts.Sinks = slices.Clone(opts.Sinks)
	s.inc = flow.NewIncremental(opts.ShardBy.flowMode(), s.mergeComponents)
	if s.continuous {
		// Continuous mode retires dispatched components; the close-driven
		// mode never prunes and skips the reverse-index tracking cost.
		s.inc.EnablePruning()
	}
	for _, h := range hosts {
		sym := activity.Syms.Intern(h)
		if s.hosts[sym] == nil {
			s.hosts[sym] = &sessHost{
				name:    activity.Syms.Name(sym),
				open:    true,
				horizon: opts.horizonFor(h),
			}
		}
	}
	if len(opts.IPToHost) > 0 {
		s.ipHost = make(map[activity.Sym]activity.Sym, len(opts.IPToHost))
		for ip, hn := range opts.IPToHost {
			s.ipHost[activity.Syms.Intern(ip)] = activity.Syms.Intern(hn)
		}
	}
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker()
	}
	return s
}

// worker correlates sealed components until Close closes jobs, landing
// each shard result in colBuf for stage 1 to absorb.
func (s *Session) worker() {
	defer s.wg.Done()
	sc := newShardScratch(s.drv)
	for c := range s.jobs {
		r := s.correlateComponent(sc, c)
		s.colMu.Lock()
		s.colBuf = append(s.colBuf, r)
		s.collected++
		s.colReady.Broadcast()
		s.colMu.Unlock()
	}
}

// shardScratch is one worker's reusable correlation machinery: a
// ranker+engine pair reset per component, plus the source-building
// buffers. A worker correlates components strictly one after another, so
// everything here is single-owner; only the result's graphs escape (the
// engine drops, never reuses, its outputs slice on Reset).
type shardScratch struct {
	rk   *ranker.Ranker
	eng  *engine.Engine
	runs []namedRun
	srcs []ranker.SliceSource
	refs []ranker.Source
	acts []*activity.Activity
}

// namedRun pairs one host's buffered run with its name for the
// deterministic source sort.
type namedRun struct {
	name string
	recs []pushRec
}

func newShardScratch(drv *Correlator) *shardScratch {
	eng := engine.New()
	return &shardScratch{
		eng: eng,
		rk:  ranker.New(drv.rankerConfig(), eng, nil),
	}
}

// correlateComponent runs the unmodified sequential pass over one sealed
// component. Sources are built in sorted host-name order — the order the
// global pass uses, which the deterministic tie-breaks rely on. (Symbol
// numeric order depends on interning order, so it is never used for
// anything output-visible.)
func (s *Session) correlateComponent(sc *shardScratch, c *sessComponent) sessShardResult {
	sc.runs = sc.runs[:0]
	total := 0
	for _, r := range c.runs {
		sc.runs = append(sc.runs, namedRun{name: activity.Syms.Name(r.host), recs: r.recs})
		total += len(r.recs)
	}
	// Components span a handful of hosts; insertion sort keeps this
	// per-seal path free of the sort.Slice closure allocations.
	for i := 1; i < len(sc.runs); i++ {
		for j := i; j > 0 && sc.runs[j].name < sc.runs[j-1].name; j-- {
			sc.runs[j], sc.runs[j-1] = sc.runs[j-1], sc.runs[j]
		}
	}
	// Size acts up front: the per-run source windows alias its backing
	// array, so it must not reallocate while they are being cut.
	if cap(sc.acts) < total {
		sc.acts = make([]*activity.Activity, 0, total)
	}
	sc.acts = sc.acts[:0]
	if cap(sc.srcs) < len(sc.runs) {
		sc.srcs = make([]ranker.SliceSource, len(sc.runs))
	}
	sc.srcs = sc.srcs[:len(sc.runs)]
	sc.refs = sc.refs[:0]
	for i, r := range sc.runs {
		start := len(sc.acts)
		for _, pr := range r.recs {
			sc.acts = append(sc.acts, pr.a)
		}
		sc.srcs[i].Reset(r.name, sc.acts[start:len(sc.acts):len(sc.acts)])
		sc.refs = append(sc.refs, &sc.srcs[i])
	}
	s.drv.driveOn(sc.rk, sc.eng, sc.refs)
	return sessShardResult{
		comp:         c,
		graphs:       sc.eng.Outputs(),
		rstats:       sc.rk.Stats(),
		estats:       sc.eng.Stats(),
		peakResident: sc.eng.PeakResidentVertices(),
	}
}

// Push feeds one raw TCP_TRACE record (classification happens inside).
// Records of one host must arrive in that host's local-clock order; hosts
// interleave arbitrarily. The record is bound in place (idempotent) so
// the host lookup and all downstream bookkeeping run on dense keys; the
// session buffers its own slab copy, never the caller's record.
func (s *Session) Push(a *activity.Activity) error {
	if s.closed {
		return fmt.Errorf("core: push on closed session")
	}
	if !a.CtxK.Bound() {
		activity.Bind(a)
	}
	h, ok := s.hosts[a.CtxK.Host]
	if !ok {
		return fmt.Errorf("core: unknown host %q (declare it in NewSession)", a.Ctx.Host)
	}
	if !h.open {
		return fmt.Errorf("core: push on closed source %s", a.Ctx.Host)
	}
	if h.any && a.Timestamp < h.last {
		return fmt.Errorf("core: %s timestamp regressed (%v after %v)", a.Ctx.Host, a.Timestamp, h.last)
	}
	cp := s.copyRec(a)
	cp.Type = s.cls.Classify(a)
	s.ingest(cp, h)
	return nil
}

// replayPush is the offline replay's ingest path: the record is already
// copied/owned and classified, and the replay — which controls every
// stream — skips the online contract checks (the historical sequential
// pass accepted per-host disorder too, producing whatever the ranker
// makes of it).
func (s *Session) replayPush(cp *activity.Activity) {
	if !cp.CtxK.Bound() {
		activity.Bind(cp)
	}
	h := s.hosts[cp.CtxK.Host]
	if h == nil {
		// A source whose records carry an undeclared host name: declare it
		// on the fly; the replay closes every host before draining.
		h = &sessHost{name: cp.Ctx.Host, open: true, horizon: s.opts.horizonFor(cp.Ctx.Host)}
		s.hosts[cp.CtxK.Host] = h
	}
	s.ingest(cp, h)
}

// debugShardClosure turns on assertChanClosure in every Session:
// the per-push check that no ChanKey ever resolves to two live
// components — the invariant the shard-aware Fig. 5 predicate rests on
// (ranker.matchingSendVisible). Tests flip it directly; set
// CORE_DEBUG_SHARD_CLOSURE=1 to enable it in a normal build.
var debugShardClosure = os.Getenv("CORE_DEBUG_SHARD_CLOSURE") != ""

// assertChanClosure checks, after cp was assigned to root, that cp's
// connection has not escaped the component it first filed under. The one
// legitimate divergence is a dispatched owner: a sealed component's
// straggler is detached onto a fresh root by design (a late link), so the
// previous owner must then be sealed or already retired — never live and
// growing.
func (s *Session) assertChanClosure(cp *activity.Activity, root int32) {
	if s.chanOwner == nil {
		s.chanOwner = make(map[activity.ChanKey]int32)
	}
	key := cp.ChanK
	n, ok := s.chanOwner[key]
	if !ok {
		if rn, rok := s.chanOwner[key.Reverse()]; rok {
			key, n, ok = key.Reverse(), rn, true
		}
	}
	if !ok {
		s.chanOwner[key] = root
		return
	}
	prev := s.inc.Root(n)
	if prev == root {
		return
	}
	if c := s.comps[prev]; c == nil || c.sealed {
		s.chanOwner[key] = root // previous owner dispatched: late-link detach
		return
	}
	panic(fmt.Sprintf("core: ChanKey split across two live components (roots %d and %d) — channel-closure invariant violated", prev, root))
}

// ingest assigns one classified activity to its flow component and
// buffers it in per-host push order. The caller owns cp, which must be
// bound.
func (s *Session) ingest(cp *activity.Activity, h *sessHost) {
	lateBefore := s.inc.LateLinks()
	root := s.inc.Add(cp)
	if debugShardClosure {
		s.assertChanClosure(cp, root)
	}
	c := s.comps[root]
	if c == nil || c.sealed {
		// sealed here means a late link reached an already-dispatched
		// component (possible only with an incomplete IPToHost map);
		// start a fresh shard rather than touching in-flight buffers.
		c = newSessComponent(s.nextCompID, cp.Timestamp, root)
		s.nextCompID++
		s.comps[root] = c
	}
	if s.inc.LateLinks() > lateBefore {
		// This record genuinely linked to a tombstoned component and was
		// detached onto this one: its graphs may be split fragments of a
		// dispatched request — tag the provenance for downstream sinks.
		c.late = true
	}
	c.appendRec(cp.CtxK.Host, pushRec{a: cp, seq: h.seq})
	if cp.Timestamp < c.minTs {
		c.minTs = cp.Timestamp
	}
	if cp.Timestamp > c.maxTs {
		c.maxTs = cp.Timestamp
	}
	if cp.Timestamp > s.maxTs {
		s.maxTs = cp.Timestamp
	}
	c.size++
	c.noteHost(cp.CtxK.Host)
	s.noteEndpoint(c, cp.ChanK.SrcIP)
	s.noteEndpoint(c, cp.ChanK.DstIP)
	h.seq++
	if cp.Timestamp > h.last || !h.any {
		h.last = cp.Timestamp
	}
	h.any = true
	s.pushed++
	s.pendingActs++
}

// Heartbeat records a liveness assertion from one host's agent: the host
// is alive and will never deliver an activity with a timestamp older
// than ts. It advances the watermark past quiet-but-healthy streams —
// without it, an idle host with no horizon holds back every emission,
// and an idle host with a long horizon delays them by that horizon. A
// heartbeat also advances the activity clock that seal horizons measure
// against, so correlation keeps flowing through traffic lulls. Stale
// assertions (ts older than the host's newest record) are ignored.
//
// Like pushed timestamps, heartbeats are activity-time, never wall
// clock: replaying the same push/heartbeat/drain sequence reproduces the
// same output.
func (s *Session) Heartbeat(host string, ts time.Duration) error {
	if s.closed {
		return fmt.Errorf("core: heartbeat on closed session")
	}
	h, ok := s.hosts[activity.Syms.Intern(host)]
	if !ok {
		return fmt.Errorf("core: unknown host %q (declare it in NewSession)", host)
	}
	if !h.open {
		return fmt.Errorf("core: heartbeat on closed source %s", host)
	}
	if ts > h.last || !h.any {
		h.last = ts
	}
	h.any = true
	if ts > s.maxTs {
		s.maxTs = ts
	}
	return nil
}

// noteEndpoint records a channel endpoint's owning host as a possible
// future contributor to the component.
func (s *Session) noteEndpoint(c *sessComponent, ip activity.Sym) {
	if hn, ok := s.ipHost[ip]; ok {
		if _, declared := s.hosts[hn]; declared {
			c.noteHost(hn)
		}
	}
}

// mergeComponents is the flow.Incremental merge callback: the loser
// root's buffers fold into the winner root's.
func (s *Session) mergeComponents(winner, loser int32) {
	cw, cl := s.comps[winner], s.comps[loser]
	if cl != nil {
		delete(s.comps, loser)
	}
	switch {
	case cl == nil:
		return // the loser root had no buffered activities yet
	case cw == nil:
		cl.root = winner
		s.comps[winner] = cl
	default:
		if fused := s.fuse(cw, cl, winner); fused != nil {
			s.comps[winner] = fused
		} else {
			delete(s.comps, winner)
		}
	}
}

// fuse merges two component buffers (the larger absorbs the smaller).
func (s *Session) fuse(a, b *sessComponent, root int32) *sessComponent {
	// A sealed component is already owned by the worker pool; its buffers
	// must not be touched. Reaching one here is only possible when
	// IPToHost fails to cover a declared host — degrade to under-merged
	// shards instead of a data race, mirroring how the ranker degrades on
	// the same misconfiguration.
	if a.sealed || b.sealed {
		live := a
		if a.sealed {
			live = b
		}
		if live.sealed {
			return nil // both in flight: nothing left to buffer into
		}
		live.root = root
		return live
	}
	if b.size > a.size {
		a, b = b, a
	}
	for i := range b.runs {
		br := &b.runs[i]
		merged := false
		for j := range a.runs {
			if a.runs[j].host == br.host {
				a.runs[j].recs = mergeRuns(a.runs[j].recs, br.recs)
				merged = true
				break
			}
		}
		if !merged {
			a.runs = append(a.runs, *br)
		}
	}
	for _, h := range b.contrib {
		a.noteHost(h)
	}
	if b.minTs < a.minTs {
		a.minTs = b.minTs
	}
	if b.maxTs > a.maxTs {
		a.maxTs = b.maxTs
	}
	if b.id < a.id {
		a.id = b.id
	}
	if b.late {
		a.late = true
	}
	a.size += b.size
	a.root = root
	return a
}

// mergeRuns interleaves two (timestamp, push-sequence)-sorted host runs.
func mergeRuns(x, y []pushRec) []pushRec {
	if len(x) == 0 {
		return y
	}
	if len(y) == 0 {
		return x
	}
	out := make([]pushRec, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if y[j].a.Timestamp < x[i].a.Timestamp ||
			(y[j].a.Timestamp == x[i].a.Timestamp && y[j].seq < x[i].seq) {
			out = append(out, y[j])
			j++
		} else {
			out = append(out, x[i])
			i++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

// CloseHost marks one host's stream complete (its agent shut down). This
// is what seals components absent a horizon: a flow component whose every
// contributing host has closed can no longer grow and is handed to the
// worker pool.
func (s *Session) CloseHost(host string) error {
	h, ok := s.hosts[activity.Syms.Intern(host)]
	if !ok {
		return fmt.Errorf("core: unknown host %q", host)
	}
	start := time.Now()
	if h.open {
		h.open = false
		s.sealCompleted()
	}
	s.harvest()
	s.workTime += time.Since(start)
	return nil
}

// sealCompleted seals every component that no open host can extend and
// queues it for the worker pool, in deterministic creation order.
func (s *Session) sealCompleted() {
	ready := s.sealReady[:0]
	for _, c := range s.comps {
		if c.sealed || s.growable(c) {
			continue
		}
		ready = append(ready, c)
	}
	s.enqueue(ready)
	s.sealReady = ready[:0]
}

// compHorizon returns the component's effective seal horizon: the
// largest horizon among the open declared hosts that may still extend
// it — a component a lagging host can touch inherits that host's longer
// deadline; components it cannot touch keep the shorter default. Closed
// streams deliver nothing, so (like growable) they bound nothing: a
// horizon-less host stops pinning its components open the moment it
// closes. 0 means unbounded: some open contributing host has no
// horizon, so only closure can seal the component.
func (s *Session) compHorizon(c *sessComponent) time.Duration {
	var horizon time.Duration
	for _, hn := range c.contrib {
		hh := s.hosts[hn]
		if hh == nil || !hh.open {
			continue
		}
		if hh.horizon <= 0 {
			return 0
		}
		if hh.horizon > horizon {
			horizon = hh.horizon
		}
	}
	return horizon
}

// sealStale force-seals every component whose newest activity has fallen
// more than its own horizon behind the activity clock — the continuous-
// emission rule. Evaluated at Drain, against pushed/heartbeated
// timestamps only, so replaying the same push/drain sequence reproduces
// the same seals.
func (s *Session) sealStale() {
	if !s.continuous {
		return
	}
	ready := s.sealReady[:0]
	for _, c := range s.comps {
		if c.sealed {
			continue
		}
		horizon := s.compHorizon(c)
		if horizon <= 0 || c.maxTs >= s.maxTs-horizon {
			continue
		}
		c.forced = true
		ready = append(ready, c)
	}
	s.forcedSeals += len(ready)
	s.enqueue(ready)
	s.sealReady = ready[:0]
}

// enqueue seals the given components and dispatches them to the worker
// pool in deterministic creation order. In continuous mode the flow
// partition tombstones each root, so a straggler activity becomes a
// counted late link on a fresh component instead of touching dispatched
// buffers — and the flow-bookkeeping prune is scheduled here, at seal
// time, where maxTs is a deterministic function of the event stream
// (absorption timing is pipelined and therefore not deterministic).
func (s *Session) enqueue(ready []*sessComponent) {
	// Ready batches are small (the components one drain retires);
	// insertion sort spares the per-drain sort.Slice closures.
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0 && ready[j].id < ready[j-1].id; j-- {
			ready[j], ready[j-1] = ready[j-1], ready[j]
		}
	}
	for _, c := range ready {
		c.sealed = true
		if s.continuous {
			s.inc.Seal(c.root)
			// Keep late-link detection alive exactly as long as the
			// liveness bounds admit stragglers, then prune.
			lag := s.compHorizon(c)
			if lag <= 0 {
				lag = s.maxHorizon
			}
			s.inc.SchedulePrune(c.root, s.maxTs+lag)
		}
	}
	// A blocking send is safe here: workers always drain jobs and hold
	// colMu only to append, and stage 1 holds no locks — a full channel
	// is backpressure, not deadlock. Close closes jobs only after sealing
	// every component, so no send can follow it (TestSessionAfterClose).
	for _, c := range ready {
		s.jobs <- c
	}
	s.shards += len(ready)
}

// growable reports whether any still-open declared host could push an
// activity joining this component.
func (s *Session) growable(c *sessComponent) bool {
	for _, hn := range c.contrib {
		if hh := s.hosts[hn]; hh != nil && hh.open {
			return true
		}
	}
	return false
}

// harvest folds every shard result the workers have landed into the
// session, without waiting for in-flight shards — the non-blocking half
// of the stage-1/worker handshake. The two buffers ping-pong so the
// steady state allocates nothing.
func (s *Session) harvest() {
	s.colMu.Lock()
	batch := s.colBuf
	s.colBuf = s.colScratch[:0]
	s.colMu.Unlock()
	if len(batch) == 0 {
		s.colScratch = batch
		return
	}
	for i := range batch {
		s.absorb(batch[i])
		batch[i] = sessShardResult{}
	}
	s.colScratch = batch[:0]
}

// settle waits until every dispatched shard has landed, then absorbs
// the lot — the full barrier Drain and Close rely on. Waiting cannot
// deadlock: workers drain jobs unconditionally, so every dispatched
// component's result reaches collected.
func (s *Session) settle() {
	s.colMu.Lock()
	for s.collected < s.shards {
		s.colReady.Wait()
	}
	s.colMu.Unlock()
	s.harvest()
}

// absorb folds one shard result into the session aggregates. Runs on
// stage 1 only (via harvest/settle), so the comps map and aggregates
// stay single-owner.
func (s *Session) absorb(r sessShardResult) {
	s.pendingActs -= r.comp.size
	s.uncounted += int(r.rstats.Delivered)
	addRankerStats(&s.rstats, r.rstats)
	addEngineStats(&s.estats, r.estats)
	if r.peakResident > s.peakVert {
		s.peakVert = r.peakResident
	}
	for pos, g := range r.graphs {
		if r.comp.forced || r.comp.late {
			g.SetProvenance(r.comp.forced, r.comp.late)
		}
		s.finished = append(s.finished, taggedGraph{g: g, comp: r.comp.id, pos: pos})
	}
	if len(r.graphs) > 0 {
		s.unsorted = true
	}
	if s.comps[r.comp.root] == r.comp {
		delete(s.comps, r.comp.root)
	}
}

// watermark returns the END-timestamp bound below which no future graph
// can appear: a pending component's future graphs end at or after its
// earliest member, and an open host can only push at or after its last
// local timestamp (a host that never pushed nor heartbeated bounds
// nothing, so nothing may be released). bounded is false when no
// component is pending and no host is open — everything may go.
//
// With a seal horizon an open host's bound is raised to its own
// sender-liveness floor maxTs−horizon(host): a quiet-but-open stream is
// presumed to hold nothing older than its horizon, so it no longer
// blocks emission forever. A push violating that presumption is the same
// late-link event the forced seal accepts, and can regress the emitted
// order (surfaced downstream via live.Monitor.OutOfOrder).
func (s *Session) watermark() (time.Duration, bool) {
	var wm time.Duration
	bounded := false
	note := func(t time.Duration) {
		if !bounded || t < wm {
			wm, bounded = t, true
		}
	}
	for _, c := range s.comps {
		note(c.minTs)
	}
	for _, h := range s.hosts {
		if !h.open {
			continue
		}
		b := time.Duration(math.MinInt64) // no lower bound yet
		if h.any {
			b = h.last
		}
		if h.horizon > 0 {
			if floor := s.maxTs - h.horizon; floor > b {
				b = floor
			}
		}
		note(b)
	}
	return wm, bounded
}

// emit releases finished graphs in deterministic END-timestamp order up
// to (strictly below) the watermark; all=true releases everything.
// Strict inequality makes cross-batch ties impossible: any graph arriving
// later comes from a component whose minimum timestamp was at or above
// every watermark used before, so the released stream is globally sorted.
func (s *Session) emit(all bool) {
	if len(s.finished) == 0 {
		return
	}
	// A released prefix leaves the remainder sorted, so an idle Drain
	// (no shard absorbed since) skips the re-sort of the held backlog.
	if s.unsorted {
		sortTagged(s.finished)
		s.unsorted = false
	}
	cut := len(s.finished)
	if !all {
		wm, bounded := s.watermark()
		if bounded {
			cut = sort.Search(len(s.finished), func(i int) bool {
				return s.finished[i].g.End().Timestamp >= wm
			})
		}
	}
	if cut == 0 {
		return
	}
	for _, t := range s.finished[:cut] {
		if len(s.opts.Sinks) == 0 {
			s.emitted = append(s.emitted, t.g)
		}
		for _, k := range s.opts.Sinks {
			k.ConsumeGraph(t.g)
		}
	}
	s.finished = append(s.finished[:0:0], s.finished[cut:]...)
}

// Drain runs the correlator until no further candidate is safely
// decidable, returning the number of activities processed this call: it
// force-seals components idle past their horizon (continuous mode), waits
// for every dispatched component to finish correlating, and releases the
// graphs the watermark permits.
func (s *Session) Drain() int {
	start := time.Now()
	s.sealStale()
	s.settle()
	if s.continuous {
		s.inc.PruneBefore(s.maxTs)
	}
	s.emit(false)
	s.workTime += time.Since(start)
	n := s.uncounted
	s.uncounted = 0
	return n
}

// Tick is the non-blocking Drain: it makes the same deterministic seal
// decisions at the same point in the event stream (sealStale with the
// same maxTs), but releases only the graphs whose components the worker
// pool has already finished, instead of waiting for the in-flight ones —
// the pipelined cadence a live ingest front uses so pushing and
// correlating overlap. Emission stays safe: a sealed-but-in-flight
// component is still in the comps map, so its earliest timestamp bounds
// the watermark and nothing that could precede its graphs is released.
// Graphs emerge in the same deterministic order as under Drain; a Tick
// cadence only shifts *when* each graph is released, never what it
// contains or its order. A final Drain or Close delivers whatever Tick
// left in flight.
func (s *Session) Tick() int {
	start := time.Now()
	s.sealStale()
	s.harvest()
	if s.continuous {
		s.inc.PruneBefore(s.maxTs)
	}
	s.emit(false)
	s.workTime += time.Since(start)
	n := s.uncounted
	s.uncounted = 0
	return n
}

// Close marks every stream complete, drains the remainder and returns the
// final result. Closing twice returns the same result.
func (s *Session) Close() *Result {
	if s.closed {
		return s.final
	}
	start := time.Now()
	for _, h := range s.hosts {
		h.open = false
	}
	s.sealCompleted()
	s.settle()
	close(s.jobs)
	s.wg.Wait()
	s.emit(true)
	s.workTime += time.Since(start)
	s.closed = true
	s.final = &Result{
		Graphs:                 s.emitted,
		CorrelationTime:        s.workTime,
		Activities:             s.pushed,
		Ranker:                 s.rstats,
		Engine:                 s.estats,
		PeakBufferedActivities: s.rstats.PeakBuffered,
		PeakResidentVertices:   s.peakVert,
		Shards:                 s.shards,
		ForcedSeals:            s.forcedSeals,
		LateLinks:              s.inc.LateLinks(),
	}
	return s.final
}

// AddSink appends one sink to the session's emission chain (see
// Options.Sinks). It must be called before the first Push: the chain is
// extended in place and is not synchronized against in-flight emission.
// Registering any sink switches the session to streaming —
// Result.Graphs stays empty.
func (s *Session) AddSink(sink GraphSink) {
	s.opts.Sinks = append(s.opts.Sinks, sink)
}

// Graphs returns the CAGs completed so far (when no sink is registered).
func (s *Session) Graphs() []*cag.Graph { return s.emitted }

// Pending returns the number of activities buffered but not yet
// correlated by a finished shard.
func (s *Session) Pending() int { return s.pendingActs }

// addRankerStats accumulates shard counters. Counter fields sum across
// shards; PeakBuffered is aggregated separately (the Result reports the
// largest single-shard peak — the Fig. 11 global-buffer figure is a
// global-pass concept).
func addRankerStats(dst *ranker.Stats, s ranker.Stats) {
	dst.Fetched += s.Fetched
	dst.Delivered += s.Delivered
	dst.FilterDropped += s.FilterDropped
	dst.NoiseDropped += s.NoiseDropped
	dst.Swaps += s.Swaps
	dst.Extensions += s.Extensions
	dst.ForcedPops += s.ForcedPops
	if s.PeakBuffered > dst.PeakBuffered {
		dst.PeakBuffered = s.PeakBuffered
	}
}

func addEngineStats(dst *engine.Stats, s engine.Stats) {
	dst.Begins += s.Begins
	dst.Finished += s.Finished
	dst.MergedSends += s.MergedSends
	dst.MergedBegins += s.MergedBegins
	dst.MergedEnds += s.MergedEnds
	dst.PartialReceives += s.PartialReceives
	dst.Receives += s.Receives
	dst.Sends += s.Sends
	dst.DiscardedSends += s.DiscardedSends
	dst.DiscardedReceives += s.DiscardedReceives
	dst.DiscardedEnds += s.DiscardedEnds
	dst.OverrunReceives += s.OverrunReceives
	dst.ReplacedSends += s.ReplacedSends
	dst.ThreadReuseBreaks += s.ThreadReuseBreaks
}
