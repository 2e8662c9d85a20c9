package core

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/rubis"
)

// arrivalOrder returns the trace in global timestamp order — an
// approximation of how records reach an online collector.
func arrivalOrder(trace []*activity.Activity) []*activity.Activity {
	out := make([]*activity.Activity, len(trace))
	copy(out, trace)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Timestamp < out[j].Timestamp })
	return out
}

func hostsOf(res *rubis.Result) []string {
	var hosts []string
	for h := range res.PerHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	return hosts
}

func TestSessionMatchesOffline(t *testing.T) {
	res := fastRun(t, 60, func(c *rubis.Config) {
		c.Skew.MaxSkew = 200 * time.Millisecond
	})
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	// Push in per-host local order (interleaved chunks), draining as we go.
	perHostPos := map[string]int{}
	pushed := 0
	for pushed < len(res.Trace) {
		for _, h := range hostsOf(res) {
			log := res.PerHost[h]
			pos := perHostPos[h]
			for i := 0; i < 50 && pos < len(log); i++ {
				if err := sess.Push(log[pos]); err != nil {
					t.Fatal(err)
				}
				pos++
				pushed++
			}
			perHostPos[h] = pos
		}
		sess.Drain()
	}
	out := sess.Close()
	rep := res.Truth.Evaluate(out.Graphs)
	if rep.PathAccuracy() != 1.0 {
		t.Fatalf("online accuracy: %v", rep)
	}
	if out.Activities != len(res.Trace) {
		t.Fatalf("activities = %d, want %d", out.Activities, len(res.Trace))
	}
	if out.Ranker.ForcedPops != 0 {
		t.Fatalf("online session forced pops: %+v", out.Ranker)
	}
}

func TestSessionEmitsBeforeClose(t *testing.T) {
	// CAGs must stream out while input is still flowing — not only at
	// Close. Emission is seal-driven: configure an activity-time horizon
	// (the always-on deployment's configuration) and expect output while
	// every stream is still open; the close-driven session holds the same
	// input back until streams end.
	res := fastRun(t, 60, nil)
	opts := options(res)
	opts.SealAfter = 200 * time.Millisecond
	sess, err := NewSession(opts, hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range arrivalOrder(res.Trace) {
		if err := sess.Push(a); err != nil {
			t.Fatal(err)
		}
		if (i+1)%64 == 0 {
			sess.Drain()
		}
	}
	sess.Drain()
	if len(sess.Graphs()) == 0 {
		t.Fatal("no CAGs emitted mid-stream")
	}
	mid := len(sess.Graphs())
	out := sess.Close()
	if len(out.Graphs) < mid {
		t.Fatalf("close lost graphs: %d < %d", len(out.Graphs), mid)
	}
}

func TestSessionNoGuessingWhileOpen(t *testing.T) {
	// A lone RECEIVE whose SEND has not arrived yet must stay pending
	// while the sender's stream is open: its flow component can still
	// grow, so it is neither correlated nor dropped as noise — and once
	// every stream closes it resolves (here: provably noise) without
	// having been guessed at.
	res := fastRun(t, 10, nil)
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	var recv *activity.Activity
	for _, a := range res.Trace {
		if a.Type == activity.Receive && a.Ctx.Host == "app1" {
			recv = a
			break
		}
	}
	if recv == nil {
		t.Fatal("test setup: no app1 RECEIVE found")
	}
	if err := sess.Push(recv); err != nil {
		t.Fatal(err)
	}
	if n := sess.Drain(); n != 0 {
		t.Fatalf("session decided %d activities while the sender's stream was open", n)
	}
	if len(sess.Graphs()) != 0 {
		t.Fatal("session emitted a graph from an undecidable RECEIVE")
	}
	if sess.Pending() == 0 {
		t.Fatal("the RECEIVE should be buffered")
	}
	out := sess.Close()
	if resolved := out.Ranker.Delivered + out.Ranker.NoiseDropped; resolved == 0 {
		t.Fatalf("held RECEIVE never resolved after close: %+v", out.Ranker)
	}
}

// TestSessionDrainIdleButOpen pins Drain's fixed point: with streams
// open but nothing (or nothing decidable) buffered, Drain returns 0, is
// idempotent, and leaves the session fully usable — and the held-back
// work completes once the streams close.
func TestSessionDrainIdleButOpen(t *testing.T) {
	res := fastRun(t, 10, nil)
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	// Totally idle: nothing pushed, every stream open.
	for i := 0; i < 3; i++ {
		if n := sess.Drain(); n != 0 {
			t.Fatalf("idle drain %d processed %d activities", i, n)
		}
	}
	// Idle-but-buffered: a lone cross-node RECEIVE is undecidable while
	// the sender's stream is open — its component never seals — so
	// repeated Drains must spin zero work (blocked, not drained).
	var recv *activity.Activity
	for _, a := range res.Trace {
		if a.Type == activity.Receive && a.Ctx.Host == "app1" {
			recv = a
			break
		}
	}
	if recv == nil {
		t.Fatal("fixture has no app1 RECEIVE")
	}
	if err := sess.Push(recv); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n := sess.Drain(); n != 0 {
			t.Fatalf("blocked drain %d processed %d activities", i, n)
		}
		if sess.Pending() == 0 {
			t.Fatal("undecidable RECEIVE no longer pending")
		}
	}
	// Closing every stream seals the component: the final Close resolves
	// the held activity (here: provably noise, its SEND can no longer
	// arrive) without having guessed early.
	out := sess.Close()
	if out.Activities != 1 {
		t.Fatalf("activities = %d, want 1", out.Activities)
	}
	if resolved := out.Ranker.Delivered + out.Ranker.NoiseDropped + out.Ranker.ForcedPops; resolved == 0 {
		t.Fatalf("held RECEIVE never resolved after close: %+v", out.Ranker)
	}
	if sess.Pending() != 0 {
		t.Fatalf("pending = %d after close", sess.Pending())
	}
}

func TestSessionErrors(t *testing.T) {
	res := fastRun(t, 10, nil)
	if _, err := NewSession(Options{}, hostsOf(res)); err == nil {
		t.Fatal("missing entry ports should fail")
	}
	if _, err := NewSession(options(res), nil); err == nil {
		t.Fatal("no hosts should fail")
	}
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	bad := *res.Trace[0]
	bad.Ctx.Host = "unknown-host"
	if err := sess.Push(&bad); err == nil {
		t.Fatal("unknown host should fail")
	}
	if err := sess.CloseHost("nope"); err == nil {
		t.Fatal("unknown CloseHost should fail")
	}
	sess.Close()
	if err := sess.Push(res.Trace[0]); err == nil {
		t.Fatal("push after close should fail")
	}
}

func TestSessionOutOfOrderPushRejected(t *testing.T) {
	res := fastRun(t, 10, nil)
	sess, err := NewSession(options(res), hostsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	log := res.PerHost["web1"]
	if err := sess.Push(log[1]); err != nil {
		t.Fatal(err)
	}
	if log[0].Timestamp < log[1].Timestamp {
		if err := sess.Push(log[0]); err == nil {
			t.Fatal("timestamp regression should be rejected")
		}
	}
}

// TestSessionAfterClose pins what every Session method does once Close
// has run, in both seal modes and at both pool sizes: no panic, no hang,
// and fixed return values. Close closes the worker pool's jobs channel,
// so the test also proves no post-Close call can reach a dispatch — a
// send there would panic, and a dropped dispatch would leave a later
// settle waiting forever.
func TestSessionAfterClose(t *testing.T) {
	late := func() *activity.Activity {
		return mkRaw(1<<20, activity.Receive, time.Hour, "web1", "httpd", 1, "10.9.9.9", "10.0.0.1", 1, 80)
	}
	// Each call runs one method on a closed session. unreported is the
	// delivered count Close absorbed without a Drain reporting it: the
	// first Drain or Tick after Close returns it, the next one 0.
	calls := []struct {
		name string
		call func(sess *Session, unreported int) error
	}{
		{"Push", func(sess *Session, _ int) error {
			if sess.Push(late()) == nil {
				return fmt.Errorf("succeeded")
			}
			return nil
		}},
		{"Heartbeat", func(sess *Session, _ int) error {
			if sess.Heartbeat("web2", time.Hour) == nil {
				return fmt.Errorf("succeeded")
			}
			return nil
		}},
		{"CloseHost", func(sess *Session, _ int) error {
			return sess.CloseHost("web1")
		}},
		{"Drain", func(sess *Session, unreported int) error {
			if n, m := sess.Drain(), sess.Drain(); n != unreported || m != 0 {
				return fmt.Errorf("returned %d then %d, want %d then 0", n, m, unreported)
			}
			return nil
		}},
		{"Tick", func(sess *Session, unreported int) error {
			if n, m := sess.Tick(), sess.Tick(); n != unreported || m != 0 {
				return fmt.Errorf("returned %d then %d, want %d then 0", n, m, unreported)
			}
			return nil
		}},
		{"Close", func(*Session, int) error { return nil }}, // checked below, like every case
	}
	for _, mode := range []struct {
		name      string
		sealAfter time.Duration
	}{{"close-driven", 0}, {"seal-after", 30 * time.Millisecond}} {
		for _, workers := range []int{1, 4} {
			for _, c := range calls {
				t.Run(fmt.Sprintf("%s/workers=%d/%s", mode.name, workers, c.name), func(t *testing.T) {
					sess, err := NewSession(foreverOpts(workers, mode.sealAfter), []string{"web1", "web2"})
					if err != nil {
						t.Fatal(err)
					}
					reported := 0
					for k := 0; k < 8; k++ {
						pushRequest(t, sess, k, time.Duration(k)*10*time.Millisecond)
						reported += sess.Drain()
					}
					res := sess.Close()
					if len(res.Graphs) != 8 {
						t.Fatalf("Close emitted %d graphs, want 8", len(res.Graphs))
					}

					done := make(chan error, 1)
					go func() {
						defer func() {
							if p := recover(); p != nil {
								done <- fmt.Errorf("panicked: %v", p)
							}
						}()
						done <- c.call(sess, int(res.Ranker.Delivered)-reported)
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("%s after Close: %v", c.name, err)
						}
					case <-time.After(10 * time.Second):
						t.Fatalf("%s after Close hung", c.name)
					}

					if again := sess.Close(); again != res {
						t.Fatal("Close after Close returned a different result")
					}
					if len(res.Graphs) != 8 || sess.Pending() != 0 {
						t.Fatalf("closed session changed: %d graphs, %d pending", len(res.Graphs), sess.Pending())
					}
				})
			}
		}
	}
}
