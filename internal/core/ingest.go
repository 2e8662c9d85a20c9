package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/activity"
)

// ErrIngestClosed is returned for operations offered after Close.
var ErrIngestClosed = errors.New("core: ingest closed")

// IngestOptions parametrises the serialized ingest front.
type IngestOptions struct {
	// Buffer is the bounded operation queue depth — the backpressure
	// valve. When correlation falls behind, the queue fills, PushBatch
	// blocks, the network collector stops reading its sockets, and TCP
	// pushes the stall back to the agents. Default 1024.
	Buffer int

	// DrainEvery is how many applied operations elapse between drain
	// points — the same cadence knob as offline replay. Default 1024
	// (replayDrainEvery), keeping a networked run's drain rhythm aligned
	// with ReplayTrace so output ordering is comparable. Use 1 to drain
	// after every operation. Cadence drains are pipelined (Session.Tick):
	// the ingest goroutine seals and emits what is already decidable
	// without stalling behind in-flight shards, so applying and
	// correlating overlap; FlushInterval and CloseHost still use the full
	// Drain barrier.
	DrainEvery int

	// FlushInterval, when positive, also drains on a wall-clock period
	// while the queue is idle, so a traffic lull cannot leave decidable
	// CAGs sitting in the session. This is the one wall-clock input to an
	// otherwise activity-time pipeline: it changes *when* graphs emerge,
	// never *what* they contain or their order.
	FlushInterval time.Duration

	// OnApplied, when non-nil, observes every applied record (ts = its
	// timestamp) and heartbeat, on the ingest goroutine — the same
	// goroutine that fires the session's sinks, so a live.Monitor may be
	// driven from both without extra locking.
	OnApplied func(host string, ts time.Duration)

	// Release, when non-nil, receives every PushBatch record once the
	// ingest goroutine is done with it (applied, or skipped on an error) —
	// the hook that returns pooled decode-side records to their pool
	// (activity.ReleaseRecord). The session has copied whatever it keeps
	// by then.
	Release func(a *activity.Activity)

	// Sinks are appended to the wrapped session's emission chain before
	// the ingest goroutine starts (see Options.Sinks and GraphSink).
	// Sinks fire on the ingest goroutine — the same goroutine as
	// OnApplied — so a live.Monitor registered here needs no locking.
	Sinks []GraphSink
}

// Ingest is the serialized front of a Session: Sessions demand
// single-goroutine use, the network collector delivers from one goroutine
// per agent connection. Ingest owns the session goroutine and funnels
// concurrent PushBatch/Heartbeat/CloseHost calls through a bounded queue,
// draining on the configured cadence. It satisfies transport.Sink.
//
// Errors are sticky per host: the first failure of a host's operation
// (timestamp regression, unknown host, push-after-close) is recorded and
// returned to that host's next caller, without disturbing other streams.
// Record application is asynchronous — a PushBatch error may surface one
// call late — but CloseHost is synchronous, so a transport CLOSE ack
// really means "stream fully applied and sealed".
type Ingest struct {
	session *Session
	opts    IngestOptions

	closeMu sync.RWMutex // guards ops against send-on-closed
	closed  bool
	ops     chan ingestOp

	mu      sync.Mutex
	hostErr map[string]error

	done  chan struct{}
	final *Result
}

type ingestOpKind uint8

const (
	opBatch ingestOpKind = iota
	opHeartbeat
	opCloseHost
	opSync
)

type ingestOp struct {
	kind  ingestOpKind
	recs  []*activity.Activity // opBatch
	host  string
	ts    time.Duration
	reply chan error // opCloseHost, opSync
}

// NewIngest wraps an open session. The session must not be used directly
// once wrapped — Ingest's goroutine owns it until Close.
func NewIngest(s *Session, opts IngestOptions) *Ingest {
	if opts.Buffer <= 0 {
		opts.Buffer = 1024
	}
	if opts.DrainEvery <= 0 {
		opts.DrainEvery = replayDrainEvery
	}
	in := &Ingest{
		session: s,
		opts:    opts,
		ops:     make(chan ingestOp, opts.Buffer),
		hostErr: make(map[string]error),
		done:    make(chan struct{}),
	}
	for _, sink := range opts.Sinks {
		s.AddSink(sink)
	}
	go in.run()
	return in
}

// PushBatch offers a whole run of records — typically one decoded
// transport frame — as a single queue operation, blocking while the
// queue is full. Safe for concurrent use; records of one host must still
// arrive in host order (call it from one goroutine per host, as the
// collector does). The records are applied in order on the ingest
// goroutine, each counting toward the drain cadence on its own, so how
// a stream is cut into batches does not change the output. An
// error during application becomes the host's sticky error and the rest
// of that host's records in the batch are skipped; other hosts' records
// are unaffected. The ingest takes ownership of the batch slice and its
// records until Release has been called for each record.
func (in *Ingest) PushBatch(recs []*activity.Activity) error {
	if len(recs) == 0 {
		return nil
	}
	// Pre-check sticky errors per distinct host (batches are almost
	// always single-host: one agent connection per host).
	last := ""
	for _, a := range recs {
		if a.Ctx.Host != last {
			if err := in.stickyErr(a.Ctx.Host); err != nil {
				return err
			}
			last = a.Ctx.Host
		}
	}
	return in.send(ingestOp{kind: opBatch, recs: recs})
}

// Heartbeat offers a liveness assertion for host (see Session.Heartbeat).
func (in *Ingest) Heartbeat(host string, ts time.Duration) error {
	if err := in.stickyErr(host); err != nil {
		return err
	}
	return in.send(ingestOp{kind: opHeartbeat, host: host, ts: ts})
}

// replyPool recycles the one-shot reply channels CloseHost and Sync
// block on. A channel is returned to the pool only after its reply has
// been received, so a pooled channel is always empty.
var replyPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// CloseHost seals one host's stream, waiting until every previously
// offered operation has been applied and the close has taken effect.
func (in *Ingest) CloseHost(host string) error {
	if err := in.stickyErr(host); err != nil {
		return err
	}
	reply := replyPool.Get().(chan error)
	if err := in.send(ingestOp{kind: opCloseHost, host: host, reply: reply}); err != nil {
		replyPool.Put(reply)
		return err
	}
	err := <-reply
	replyPool.Put(reply)
	return err
}

// Sync blocks until every operation offered before it has been applied —
// a barrier for tests and status readers.
func (in *Ingest) Sync() error {
	reply := replyPool.Get().(chan error)
	if err := in.send(ingestOp{kind: opSync, reply: reply}); err != nil {
		replyPool.Put(reply)
		return err
	}
	err := <-reply
	replyPool.Put(reply)
	return err
}

// Close shuts the queue, applies what remains, closes the session and
// returns the final result. Closing twice returns the same result.
func (in *Ingest) Close() *Result {
	in.closeMu.Lock()
	if !in.closed {
		in.closed = true
		close(in.ops)
	}
	in.closeMu.Unlock()
	<-in.done
	return in.final
}

func (in *Ingest) send(op ingestOp) error {
	in.closeMu.RLock()
	defer in.closeMu.RUnlock()
	if in.closed {
		return ErrIngestClosed
	}
	in.ops <- op
	return nil
}

func (in *Ingest) stickyErr(host string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hostErr[host]
}

func (in *Ingest) recordErr(host string, err error) {
	in.mu.Lock()
	if _, dup := in.hostErr[host]; !dup {
		in.hostErr[host] = err
	}
	in.mu.Unlock()
}

// run owns the session: it is the single goroutine calling Push/Drain/
// CloseHost/Heartbeat/Close, preserving the Session's concurrency
// contract no matter how many connections feed the queue.
func (in *Ingest) run() {
	defer close(in.done)
	var timer <-chan time.Time
	var ticker *time.Ticker
	if in.opts.FlushInterval > 0 {
		ticker = time.NewTicker(in.opts.FlushInterval)
		defer ticker.Stop()
		timer = ticker.C
	}
	sinceDrain := 0
	for {
		select {
		case op, ok := <-in.ops:
			if !ok {
				in.final = in.session.Close()
				return
			}
			in.apply(op, &sinceDrain)
		case <-timer:
			if sinceDrain > 0 {
				in.session.Drain()
				sinceDrain = 0
			}
		}
	}
}

func (in *Ingest) apply(op ingestOp, sinceDrain *int) {
	var err error
	switch op.kind {
	case opBatch:
		in.applyBatch(op.recs, sinceDrain)
		return
	case opHeartbeat:
		err = in.session.Heartbeat(op.host, op.ts)
		if err == nil && in.opts.OnApplied != nil {
			in.opts.OnApplied(op.host, op.ts)
		}
	case opCloseHost:
		err = in.session.CloseHost(op.host)
		if err == nil {
			in.session.Drain() // release what the close made decidable
			*sinceDrain = 0
		}
		op.reply <- err
	case opSync:
		op.reply <- nil
		return
	default:
		err = fmt.Errorf("core: unknown ingest op %d", op.kind)
	}
	if err != nil && op.host != "" {
		in.recordErr(op.host, err)
	}
	if op.kind == opHeartbeat {
		*sinceDrain++
		if *sinceDrain >= in.opts.DrainEvery {
			in.session.Tick()
			*sinceDrain = 0
		}
	}
}

// applyBatch applies one PushBatch run record by record, counting each
// record toward the drain cadence — the output must not depend on how a
// stream was cut into batches. The first error of a host becomes its
// sticky error and silences the rest of that host's records within the
// batch; every record is handed to Release once it is done with (the
// session copied what it kept).
func (in *Ingest) applyBatch(recs []*activity.Activity, sinceDrain *int) {
	var erred []string // hosts errored within this batch (almost always ≤ 1)
	skip := func(host string) bool {
		for _, h := range erred {
			if h == host {
				return true
			}
		}
		return false
	}
	for _, rec := range recs {
		host := rec.Ctx.Host
		if skip(host) {
			in.release(rec)
			continue
		}
		if err := in.session.Push(rec); err != nil {
			in.recordErr(host, err)
			erred = append(erred, host)
			in.release(rec)
			continue
		}
		if in.opts.OnApplied != nil {
			in.opts.OnApplied(host, rec.Timestamp)
		}
		in.release(rec)
		*sinceDrain++
		if *sinceDrain >= in.opts.DrainEvery {
			in.session.Tick()
			*sinceDrain = 0
		}
	}
}

func (in *Ingest) release(a *activity.Activity) {
	if in.opts.Release != nil {
		in.opts.Release(a)
	}
}
