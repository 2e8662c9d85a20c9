package core

import (
	"sort"
	"time"

	"repro/internal/activity"
)

// Offline correlation is a deterministic replay into the streaming
// engine: push every activity, close every host, drain. That makes the
// watermark-based session the single implementation of the pipeline —
// the offline paths add no correlation logic of their own, so batch and
// online results cannot drift apart (they ARE the same code).
//
// Determinism: the engine's output depends only on each host's record
// order (components buffer per host; cross-host interleaving never
// reaches the per-component rankers) plus, in continuous mode, on where
// the drains fall. The replay preserves the input's per-host order and
// drains on a fixed record cadence, so the same input always reproduces
// the same output — including the forced seals, splits and late links a
// continuous deployment would have produced.

// replayDrainEvery is the fixed drain cadence of a continuous-mode
// replay (records between drains). Close-driven replays drain only at
// the end — mid-replay drains would be pure overhead, since nothing
// seals before the hosts close.
const replayDrainEvery = 1024

// replayTrace correlates a merged, classified-on-the-fly trace by
// replaying it through the streaming engine in trace order.
//
// Close-driven replays overlap partition with correlation: when every
// record passes earlyCloseSafe, each host is closed right after its last
// record, so completed components seal and dispatch to the worker pool
// mid-replay instead of all at once at Close — the serial partition
// phase and the parallel correlation phase run concurrently. Continuous
// replays keep the close-at-end shape: closing a host early would shrink
// components' seal horizons mid-replay and change which seals are
// forced.
func (c *Correlator) replayTrace(trace []*activity.Activity) (*Result, error) {
	start := time.Now()
	// One pass over the input finds every host's last record and runs
	// the early-close test.
	last := make(map[string]int)
	early := !c.opts.continuousConfigured()
	for i, a := range trace {
		last[a.Ctx.Host] = i
		early = early && earlyCloseSafe(c.opts.IPToHost, a)
	}
	if len(last) == 0 {
		return &Result{Activities: len(trace), CorrelationTime: time.Since(start)}, nil
	}
	hosts := make([]string, 0, len(last))
	var ends []int // trace positions to close a host after, ascending
	for h, i := range last {
		hosts = append(hosts, h)
		ends = append(ends, i)
	}
	sort.Strings(hosts)
	sort.Ints(ends)

	s := newSession(c.opts, hosts)
	for i, a := range trace {
		s.replayIngest(a)
		if early && ends[0] == i {
			ends = ends[1:]
			if err := s.CloseHost(a.Ctx.Host); err != nil {
				return nil, err
			}
		}
	}
	return c.finishReplay(s, len(trace), start), nil
}

// earlyCloseSafe reports whether record a allows a close-driven replay to
// close each host at its last record without changing a single seal
// grouping; a trace allows it when every record does. A record does when
// its pushing host owns at least one resolvable endpoint of the record's
// own connection. Then any component whose contributing hosts have all
// closed really is complete — a later record that could join it shares
// one of its connections, and that connection's still-open side resolved
// into the component's contributor set when the connection was first
// seen, so the component was not sealable. An unresolvable own-side
// endpoint means IPToHost misses a traced host's address; sealing early
// there could split what close-at-end would have joined, so the replay
// degrades to the close-at-end shape (exactly like the ranker degrades
// its noise reasoning on the same misconfiguration). The test reads the
// identity strings, not the dense keys, so the caller's unbound records
// are never bound (written) here.
func earlyCloseSafe(ipToHost map[string]string, a *activity.Activity) bool {
	if hn, ok := ipToHost[a.Chan.Src.IP]; ok && hn == a.Ctx.Host {
		return true
	}
	hn, ok := ipToHost[a.Chan.Dst.IP]
	return ok && hn == a.Ctx.Host
}

// replayIngest is the offline replays' one ingest step: it copies the
// record into the session's slab (the input is never modified),
// classifies and binds the copy, and pushes it. The replay controls
// every stream, so it skips Push's online contract checks (the
// historical sequential pass accepted per-host disorder too, producing
// whatever the ranker makes of it) and declares a host it has not met on
// the fly — finishReplay closes every host before the final drain. A
// continuous-mode replay drains every replayDrainEvery records.
func (s *Session) replayIngest(a *activity.Activity) {
	cp := s.copyRec(a)
	cp.Type = s.cls.Classify(cp)
	if !cp.CtxK.Bound() {
		activity.Bind(cp)
	}
	h := s.hosts[cp.CtxK.Host]
	if h == nil {
		h = &sessHost{name: cp.Ctx.Host, open: true, horizon: s.opts.horizonFor(cp.Ctx.Host)}
		s.hosts[cp.CtxK.Host] = h
	}
	s.ingest(cp, h)
	if s.continuous && s.pushed%replayDrainEvery == 0 {
		s.Drain()
	}
}

// finishReplay ends every stream (Close seals and drains the remainder)
// and normalises the Result's replay-wide accounting (the engine's own
// CorrelationTime only covers time blocked on shard work; a batch caller
// cares about the whole pass, partition included — the quantity
// Fig. 9/10/14 plot).
func (c *Correlator) finishReplay(s *Session, total int, start time.Time) *Result {
	res := s.Close()
	res.Activities = total
	res.CorrelationTime = time.Since(start)
	return res
}
