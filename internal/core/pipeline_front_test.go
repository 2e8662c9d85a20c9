package core

import (
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/rubis"
)

// replaySession pushes a rubis trace through an online continuous
// session in global timestamp order, calling advance every cadence
// records, and returns the sink emission sequence plus the final
// result. The advance function is the knob under test: Drain (the full
// barrier) versus Tick (the pipelined, non-blocking cadence).
func replaySession(t *testing.T, res *rubis.Result, workers int, advance func(*Session), cadence int) ([]string, *Result) {
	t.Helper()
	hosts := make([]string, 0, len(res.PerHost))
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	arr := make([]*activity.Activity, len(res.Trace))
	copy(arr, res.Trace)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Timestamp < arr[j].Timestamp })
	var got []string
	sess, err := NewSession(Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    workers,
		SealAfter:  40 * time.Millisecond,
		Sinks:      []GraphSink{GraphSinkFunc(func(g *cag.Graph) { got = append(got, fingerprint(g)) })},
	}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%cadence == 0 {
			advance(sess)
		}
	}
	return got, sess.Close()
}

// TestSessionTickMatchesDrainCadence is the pipelined front's
// equivalence gate: replaying the same continuous stream with Tick at
// the drain cadence must produce the same graphs in the same emission
// order as the blocking Drain cadence — Tick shifts only the moment a
// graph is released (what is already finished when the tick runs),
// never its content, its order, or the seal/late-link accounting.
func TestSessionTickMatchesDrainCadence(t *testing.T) {
	res := rubisTrace(t, 120, 0.05, 3)
	for _, workers := range []int{1, 4} {
		drained, dres := replaySession(t, res, workers, func(s *Session) { s.Drain() }, 256)
		ticked, tres := replaySession(t, res, workers, func(s *Session) { s.Tick() }, 256)
		if len(drained) == 0 {
			t.Fatal("no graphs emitted")
		}
		if len(ticked) != len(drained) {
			t.Fatalf("workers=%d: tick cadence emitted %d graphs, drain cadence %d", workers, len(ticked), len(drained))
		}
		for i := range drained {
			if ticked[i] != drained[i] {
				t.Fatalf("workers=%d: graph %d differs between tick and drain cadence", workers, i)
			}
		}
		if tres.ForcedSeals != dres.ForcedSeals || tres.LateLinks != dres.LateLinks || tres.Shards != dres.Shards {
			t.Fatalf("workers=%d: accounting differs: tick seals/late/shards %d/%d/%d, drain %d/%d/%d",
				workers, tres.ForcedSeals, tres.LateLinks, tres.Shards, dres.ForcedSeals, dres.LateLinks, dres.Shards)
		}
	}
}

// TestTickNonBlockingDelivery pins Tick's contract on a close-driven
// session: ticks between pushes are legal no-ops (nothing seals before
// hosts close), never block, and the final Close still delivers
// everything exactly once.
func TestTickNonBlockingDelivery(t *testing.T) {
	res := rubisTrace(t, 80, 0.02, 0)
	want := correlate(t, res, 1, ShardByFlow)
	hosts := make([]string, 0, len(res.PerHost))
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	arr := make([]*activity.Activity, len(res.Trace))
	copy(arr, res.Trace)
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Timestamp < arr[j].Timestamp })
	sess, err := NewSession(Options{
		Window:     10 * time.Millisecond,
		EntryPorts: []int{rubis.EntryPort},
		IPToHost:   res.IPToHost,
		Workers:    2,
	}, hosts)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arr {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%128 == 0 {
			sess.Tick()
		}
	}
	got := sess.Close()
	assertSameGraphs(t, "tick-cadence close-driven session vs offline", want, got)
}

// TestEarlyCloseSafeGate pins the replay early-close precondition: safe
// exactly when every record's pushing host resolves one of its own
// connection endpoints through IPToHost. The rubis generator maps every
// traced host's address, so its traces qualify; dropping one host's
// mapping (or all mappings) must disqualify the trace and fall back to
// the close-at-end replay.
func TestEarlyCloseSafeGate(t *testing.T) {
	res := rubisTrace(t, 40, 0.02, 2)
	safe := func(ipToHost map[string]string) bool {
		for _, a := range res.Trace {
			if !earlyCloseSafe(ipToHost, a) {
				return false
			}
		}
		return true
	}
	if !safe(res.IPToHost) {
		t.Fatal("fully resolved rubis trace should allow early close")
	}

	// Remove one traced host's address mapping: its records' own-side
	// endpoints stop resolving, so early close must be refused.
	partial := map[string]string{}
	var dropped string
	for ip, h := range res.IPToHost {
		if dropped == "" || h == dropped {
			dropped = h
			continue
		}
		partial[ip] = h
	}
	if safe(partial) {
		t.Fatalf("trace with host %q unmapped should refuse early close", dropped)
	}

	// No resolution at all: refuse outright.
	if safe(nil) {
		t.Fatal("trace without IPToHost should refuse early close")
	}
}

// TestReplayEarlyCloseMatchesLateClose replays the same fully resolved
// trace through CorrelateTrace (which closes each host at its last
// record to overlap partition with correlation) and through a session
// that closes every host only at the end, and demands byte-identical
// graphs — the early closes must not change one seal grouping.
func TestReplayEarlyCloseMatchesLateClose(t *testing.T) {
	res := rubisTrace(t, 120, 0.05, 4)
	for _, workers := range []int{1, 4} {
		early := correlate(t, res, workers, ShardByFlow)
		hosts := make([]string, 0, len(res.PerHost))
		for h := range res.PerHost {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		sess, err := NewSession(Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
			Workers:    workers,
		}, hosts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range res.Trace {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
		}
		late := sess.Close()
		assertSameGraphs(t, "early-close replay vs close-at-end session", early, late)
	}
}
