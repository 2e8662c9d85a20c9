package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
)

// Session is the online (push-mode) correlator: activities are pushed as
// the collection agents deliver them, CAGs come out while the service is
// still running. The offline CorrelateTrace is literally a Session fed
// all at once (see replay.go).
//
//	s, _ := core.NewSession(opts, []string{"web1", "app1", "db1"})
//	s.Push(a)        // repeatedly, per arriving record
//	s.Drain()        // emit every CAG currently decidable
//	s.Close()        // end of streams; flush the remainder
//
// Safety: the session never *guesses* — a flow component is only
// correlated once no open stream could still extend it: every host owning
// one of its channel endpoints has closed (CloseHost), or — with a seal
// horizon configured — has advanced its stream past the component's
// horizon. That is the same no-false-positives guarantee as offline mode;
// the cost is that CAG emission lags input by the slower of host closure
// and the configured horizons. Always-on deployments therefore configure
// Options.SealAfter (plus per-host overrides in Options.SealAfterByHost
// for chronically lagging agents) and feed Heartbeat so idle hosts do not
// stall the ordered output.
//
// Every mode runs the same streaming engine (stream.go); Options.Workers
// only sizes its correlation pool. That includes PaperExactNoise: the
// Fig. 5 predicate's pending-SEND question is answered per shard, which
// channel-closure sharding makes equal to the global answer (see
// ranker.matchingSendVisible for the invariant), so exact-mode sessions
// get horizons, heartbeats and forced seals like any other.
//
// Sessions are not safe for concurrent use: Push/Drain/CloseHost/
// Heartbeat/Close must be called from one goroutine (the engine
// parallelises internally). The engine itself — partition, sealing,
// worker pool, watermark emitter — is described in stream.go.
type Session struct {
	opts Options
	drv  *Correlator // sequential driver for sealed components
	cls  *activity.Classifier
	inc  *flow.Incremental

	hosts map[activity.Sym]*sessHost

	// ipHost resolves a channel endpoint's interned IP straight to the
	// owning host's symbol — Options.IPToHost precomputed once, so the
	// two endpoint resolutions every push performs are integer map hits
	// instead of string lookups.
	ipHost map[activity.Sym]activity.Sym

	comps      map[int32]*sessComponent // keyed by current union-find root
	nextCompID int

	// chanOwner (debug only) maps each connection seen to the union-find
	// node it first filed under, for the shard-closure assertion; nil
	// unless debugShardClosure is set.
	chanOwner map[activity.ChanKey]int32

	// slab is the block allocator for the per-push buffered copy: pushes
	// carve records out of slabSize blocks instead of allocating one
	// Activity each. A block is reclaimed when every graph referencing
	// its records has been released — acceptable grouping, since records
	// of one block arrive together and seal together.
	slab []activity.Activity

	// Stage-1 → worker → stage-1 handoff. Stage 1 is the caller's
	// goroutine: apply + flow partition + the seal decisions (which MUST
	// stay on deterministic event-stream points — Seal tombstones feed
	// back into how later records partition). Sealed components go to the
	// worker pool over the jobs channel; each worker appends its shard
	// result to colBuf under colMu and broadcasts colReady. Stage 1 folds
	// colBuf in via harvest (non-blocking) or settle (the Drain/Close
	// barrier, which waits until collected reaches shards).
	sealReady []*sessComponent // scratch for the per-drain seal scans
	jobs      chan *sessComponent
	wg        sync.WaitGroup // workers

	colMu      sync.Mutex
	colReady   sync.Cond         // collected advanced; waiters: settle
	collected  int               // shard results landed (guarded by colMu)
	colBuf     []sessShardResult // landed, awaiting stage-1 absorption
	colScratch []sessShardResult // harvest's swap buffer

	finished []taggedGraph // correlated, held back by the watermark
	unsorted bool          // finished gained graphs since the last sort
	emitted  []*cag.Graph  // released (when no sink is registered)

	pushed      int
	pendingActs int
	uncounted   int // shard deliveries not yet reported by Drain

	// Continuous-mode state (any seal horizon configured). maxTs is the
	// newest timestamp pushed or heartbeated on any stream — the activity
	// clock every horizon is measured against. maxHorizon is the largest
	// configured horizon: the prune lag for components whose own horizon
	// is unbounded, wide enough for any straggler the liveness bounds
	// admit.
	continuous  bool
	maxTs       time.Duration
	maxHorizon  time.Duration
	forcedSeals int

	rstats   ranker.Stats
	estats   engine.Stats
	peakVert int
	shards   int // stage-1 only: components sealed and sent to jobs
	// workTime is the wall-clock time this session spent correlating —
	// the time blocked in settle/harvest/emit, which is the shard work's
	// critical path, not the sum of concurrent shard times. It matches
	// the historical sequential session's drain-time accounting.
	workTime time.Duration

	closed bool
	final  *Result
}

// NewSession opens an online session for the given traced hosts. Every
// host that will produce activities must be declared up front (the
// completion watermarks track per-host progress, and the safety logic
// needs to know which streams exist).
func NewSession(opts Options, hosts []string) (*Session, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if len(opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	if opts.Window <= 0 {
		opts.Window = 10 * time.Millisecond
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("core: session needs at least one host")
	}
	return newSession(opts, hosts), nil
}
