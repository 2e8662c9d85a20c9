package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/cag"
)

// TestSessionEmitOrderRandomized is the emitter-ordering property test:
// across seeded random interleavings of drains, host closures, pool sizes
// and seal-horizon configurations, the sink stream must always be
// non-decreasing in END timestamp and must deliver exactly the offline
// reference set — no duplicates, no drops.
//
// The horizons are chosen comfortably above the longest request span, so
// forced seals only ever hit completed components (a mid-request seal
// would legitimately split a CAG and change the set — that tradeoff is
// pinned separately in TestSessionGlobalHorizonSplits).
func TestSessionEmitOrderRandomized(t *testing.T) {
	res := fastRun(t, 40, nil)
	hosts := hostsOf(res)
	ref, err := New(options(res)).CorrelateTrace(res.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Graphs) == 0 {
		t.Fatal("reference run produced no graphs")
	}
	want := make(map[string]int, len(ref.Graphs))
	var maxSpan time.Duration
	for _, g := range ref.Graphs {
		want[fingerprint(g)]++
		if span := g.End().Timestamp - g.Root().Timestamp; span > maxSpan {
			maxSpan = span
		}
	}
	// Any horizon above the longest request (plus slack for the coarser
	// online components) seals only finished work.
	safeHorizon := 8*maxSpan + 50*time.Millisecond

	arr := arrivalOrder(res.Trace)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := options(res)
		opts.Workers = 1 + rng.Intn(4)
		switch rng.Intn(3) {
		case 1:
			opts.SealAfter = safeHorizon
		case 2:
			opts.SealAfter = safeHorizon
			opts.SealAfterByHost = map[string]time.Duration{
				hosts[rng.Intn(len(hosts))]: safeHorizon * time.Duration(2+rng.Intn(3)),
			}
		}
		var emitted []*cag.Graph
		opts.Sinks = []GraphSink{GraphSinkFunc(func(g *cag.Graph) { emitted = append(emitted, g) })}
		sess, err := NewSession(opts, hosts)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arr {
			if err := sess.Push(a); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rng.Intn(32) == 0 {
				sess.Drain()
			}
		}
		// Close the streams in random order, draining in between — the
		// close/seal interleaving the watermark must stay sorted under.
		order := rng.Perm(len(hosts))
		for _, i := range order {
			if err := sess.CloseHost(hosts[i]); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if rng.Intn(2) == 0 {
				sess.Drain()
			}
		}
		out := sess.Close()

		last := time.Duration(-1 << 62)
		got := make(map[string]int, len(emitted))
		for i, g := range emitted {
			end := g.End().Timestamp
			if end < last {
				t.Fatalf("seed %d (workers=%d sealafter=%v): graph %d END %v after %v — emission order regressed",
					seed, opts.Workers, opts.SealAfter, i, end, last)
			}
			last = end
			got[fingerprint(g)]++
		}
		if len(emitted) != len(ref.Graphs) {
			t.Fatalf("seed %d (workers=%d sealafter=%v perhost=%v): emitted %d graphs, want %d (lateLinks=%d forcedSeals=%d)",
				seed, opts.Workers, opts.SealAfter, opts.SealAfterByHost,
				len(emitted), len(ref.Graphs), out.LateLinks, out.ForcedSeals)
		}
		for fp, n := range want {
			if got[fp] != n {
				t.Fatalf("seed %d: reference graph emitted %d times, want %d — duplicate or drop", seed, got[fp], n)
			}
		}
	}
}
