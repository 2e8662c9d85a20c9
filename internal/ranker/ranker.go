// Package ranker implements the candidate-selection half of the Correlator
// (§4.1 of the paper). Activities logged on different nodes arrive as
// per-node streams ordered by each node's local clock. The ranker fetches
// them into per-node queues under a sliding time window and repeatedly
// picks the next candidate for the engine:
//
//	Rule 1: a queue-head RECEIVE whose matching SEND is already in the
//	        engine's mmap is the candidate.
//	Rule 2: otherwise the head with the lowest type priority
//	        (BEGIN < SEND < END < RECEIVE < MAX) is the candidate, so a
//	        SEND always reaches the engine before its RECEIVE.
//
// Two disturbances are tolerated (§4.3): noise activities are removed by
// attribute filters and the is_noise check (Fig. 5), and the multi-processor
// concurrency disturbance (Fig. 6) is broken by swapping a blocked RECEIVE
// head with a later activity in its queue.
package ranker

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/activity"
)

// Debug enables the package's internal assertions (currently the
// exact-mode is_noise cross-check in assertNoBufferedSend). Tests flip it
// directly; set RANKER_DEBUG=1 to enable it in a normal build. Off by
// default: the assertions are quadratic in the buffer.
var Debug = os.Getenv("RANKER_DEBUG") != ""

// Source yields one node's activities in that node's local-clock order.
type Source interface {
	// Host returns the node name the stream belongs to.
	Host() string
	// Peek returns the next activity without consuming it, or nil when the
	// stream is exhausted.
	Peek() *activity.Activity
	// Pop consumes and returns the next activity, or nil when exhausted.
	Pop() *activity.Activity
}

// SliceSource adapts an in-memory slice (one node's log) to Source.
type SliceSource struct {
	host string
	as   []*activity.Activity
	pos  int
}

// NewSliceSource wraps one node's activities. The slice must already be in
// local-timestamp order (a kernel log is); this is verified in debug use by
// SortByTimestamp.
func NewSliceSource(host string, as []*activity.Activity) *SliceSource {
	return &SliceSource{host: host, as: as}
}

// Reset rearms the source over a new slice, reusing the struct — the
// worker-pool path rebuilds its per-component sources in place.
func (s *SliceSource) Reset(host string, as []*activity.Activity) {
	s.host, s.as, s.pos = host, as, 0
}

// Host implements Source.
func (s *SliceSource) Host() string { return s.host }

// Peek implements Source.
func (s *SliceSource) Peek() *activity.Activity {
	if s.pos >= len(s.as) {
		return nil
	}
	return s.as[s.pos]
}

// Pop implements Source.
func (s *SliceSource) Pop() *activity.Activity {
	if s.pos >= len(s.as) {
		return nil
	}
	a := s.as[s.pos]
	s.pos++
	return a
}

// Remaining returns the number of unconsumed activities.
func (s *SliceSource) Remaining() int { return len(s.as) - s.pos }

// SortByTimestamp sorts a node log in place by timestamp (stable, so
// same-timestamp records keep log order). Step 1 of the paper's algorithm
// sorts each node's activities by local timestamps in the first round.
func SortByTimestamp(as []*activity.Activity) {
	sort.SliceStable(as, func(i, j int) bool { return as[i].Timestamp < as[j].Timestamp })
}

// SplitByHost partitions a merged trace into per-host logs, each sorted by
// local timestamp, and returns deterministic host order.
func SplitByHost(as []*activity.Activity) map[string][]*activity.Activity {
	byHost := make(map[string][]*activity.Activity)
	for _, a := range as {
		byHost[a.Ctx.Host] = append(byHost[a.Ctx.Host], a)
	}
	for _, log := range byHost {
		SortByTimestamp(log)
	}
	return byHost
}

// MsgIndex is the ranker's read-only view of the engine's mmap, used by
// Rule 1 and is_noise.
type MsgIndex interface {
	// HasPendingSend reports whether an unmatched SEND exists for the
	// channel (the is_noise query).
	HasPendingSend(ch activity.ChanKey) bool
	// PendingBytes returns how many bytes of that SEND remain unconsumed
	// (the size-aware Rule 1 query): a RECEIVE becomes a candidate only
	// when the pending SEND covers its byte count, so that the engine's
	// Fig. 4 countdown never goes negative when the sender's segments are
	// still queued behind it.
	PendingBytes(ch activity.ChanKey) int64
}

// Filter inspects an activity at fetch time and returns true to drop it —
// the attribute-based noise filtering of §4.3 (program name, IP, port).
type Filter func(*activity.Activity) bool

// AttributeFilter builds a Filter from deny-lists, mirroring the paper's
// example of filtering rlogin and ssh by program name.
type AttributeFilter struct {
	DenyPrograms map[string]bool
	DenyIPs      map[string]bool
	DenyPorts    map[int]bool
}

// Func returns the Filter closure.
func (f AttributeFilter) Func() Filter {
	return func(a *activity.Activity) bool {
		if f.DenyPrograms[a.Ctx.Program] {
			return true
		}
		if f.DenyIPs[a.Chan.Src.IP] || f.DenyIPs[a.Chan.Dst.IP] {
			return true
		}
		if f.DenyPorts[a.Chan.Src.Port] || f.DenyPorts[a.Chan.Dst.Port] {
			return true
		}
		return false
	}
}

// Config parametrises a Ranker.
type Config struct {
	// Window is the sliding time window size (§4.1). Any value > 0 is
	// valid; it bounds how far past the minimal buffered timestamp the
	// ranker prefetches, trading memory for fetch batching.
	Window time.Duration

	// IPToHost maps node IP addresses to host names for every *traced*
	// node. The ranker uses it to decide whether the SEND matching a
	// blocked RECEIVE could still arrive (sender traced and not exhausted)
	// or can never arrive (sender untraced => noise).
	IPToHost map[string]string

	// Filter drops activities at fetch time; nil keeps everything.
	Filter Filter

	// PaperExactNoise, when set, makes is_noise exactly the Fig. 5
	// predicate (no pending SEND in mmap and none in the ranker buffer)
	// without consulting sender liveness. The default (false) additionally
	// requires that the sender cannot produce the SEND anymore, which keeps
	// accuracy at 100% even when the window is far smaller than the clock
	// skew. Used for ablation. Under channel-closure sharding the predicate
	// is served per shard (see matchingSendVisible for the invariant): a
	// shard-local answer equals the global one, so exact mode runs on the
	// streaming engine like every other mode.
	PaperExactNoise bool
}

// Stats counts ranker behaviour for the evaluation harness.
type Stats struct {
	Fetched       uint64 // activities admitted to the buffer
	Delivered     uint64 // candidates handed to the engine
	FilterDropped uint64 // removed by the attribute filter
	NoiseDropped  uint64 // removed by is_noise
	Swaps         uint64 // concurrency-disturbance head swaps (Fig. 6)
	Extensions    uint64 // forced window extensions while heads blocked
	ForcedPops    uint64 // blocked RECEIVE delivered unmatched (loss etc.)
	PeakBuffered  int    // max activities resident in the queues
}

type queue struct {
	host string
	src  Source
	buf  []*activity.Activity
	head int
}

func (q *queue) len() int { return len(q.buf) - q.head }

func (q *queue) peek() *activity.Activity {
	if q.head >= len(q.buf) {
		return nil
	}
	return q.buf[q.head]
}

func (q *queue) pop() *activity.Activity {
	a := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return a
}

// at returns the i-th buffered element (0 = head).
func (q *queue) at(i int) *activity.Activity { return q.buf[q.head+i] }

// promote moves element i (relative to head) to the head, shifting the
// intervening elements back by one — the paper's Fig. 6 swap generalised to
// depth i.
func (q *queue) promote(i int) {
	x := q.buf[q.head+i]
	copy(q.buf[q.head+1:q.head+i+1], q.buf[q.head:q.head+i])
	q.buf[q.head] = x
}

// Ranker chooses candidate activities for the engine.
type Ranker struct {
	cfg    Config
	queues []*queue
	index  MsgIndex
	stats  Stats

	// bufferedSends counts SEND activities currently in the buffer, per
	// channel — the "buffer of ranker" half of the is_noise predicate.
	bufferedSends map[activity.ChanKey]int
	buffered      int
}

// New builds a ranker over the given per-node sources. Sources are ranked
// in the order given; use deterministic ordering for reproducible runs.
func New(cfg Config, index MsgIndex, sources []Source) *Ranker {
	if cfg.Window <= 0 {
		cfg.Window = time.Millisecond
	}
	r := &Ranker{
		cfg:           cfg,
		index:         index,
		bufferedSends: make(map[activity.ChanKey]int),
	}
	for _, s := range sources {
		r.queues = append(r.queues, &queue{host: s.Host(), src: s})
	}
	return r
}

// Reset rearms the ranker over fresh sources, reusing the queue buffers
// and channel-index capacity of the previous run. It is the worker-pool
// variant of New: a continuous session correlates thousands of small
// sealed components, and rebuilding the ranker for each one dominated
// the steady-state allocation profile. The configuration is kept from
// New; only the per-run state is cleared.
func (r *Ranker) Reset(index MsgIndex, sources []Source) {
	r.index = index
	r.stats = Stats{}
	r.buffered = 0
	clear(r.bufferedSends)
	if cap(r.queues) < len(sources) {
		r.queues = append(r.queues[:cap(r.queues)], make([]*queue, len(sources)-cap(r.queues))...)
	}
	r.queues = r.queues[:len(sources)]
	for i, s := range sources {
		q := r.queues[i]
		if q == nil {
			q = &queue{}
			r.queues[i] = q
		}
		q.host = s.Host()
		q.src = s
		clear(q.buf[:cap(q.buf)])
		q.buf = q.buf[:0]
		q.head = 0
	}
}

// NewFromTrace builds a ranker from a merged trace, splitting per host.
func NewFromTrace(cfg Config, index MsgIndex, trace []*activity.Activity) *Ranker {
	byHost := SplitByHost(trace)
	hosts := make([]string, 0, len(byHost))
	for h := range byHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	sources := make([]Source, 0, len(hosts))
	for _, h := range hosts {
		sources = append(sources, NewSliceSource(h, byHost[h]))
	}
	return New(cfg, index, sources)
}

// Stats returns a copy of the counters.
func (r *Ranker) Stats() Stats { return r.stats }

// Buffered returns the number of activities currently resident in the
// queues (the ranker buffer of Fig. 11's memory accounting).
func (r *Ranker) Buffered() int { return r.buffered }

// fetchOne admits the next source activity of q into its buffer, applying
// the attribute filter. Returns false when the source is exhausted.
func (r *Ranker) fetchOne(q *queue) bool {
	for {
		a := q.src.Pop()
		if a == nil {
			return false
		}
		if !a.CtxK.Bound() {
			// Hand-built sources reach the ranker unbound; decoded traces
			// arrive with dense keys already filled.
			activity.Bind(a)
		}
		if r.cfg.Filter != nil && r.cfg.Filter(a) {
			r.stats.FilterDropped++
			continue
		}
		q.buf = append(q.buf, a)
		r.buffered++
		if r.buffered > r.stats.PeakBuffered {
			r.stats.PeakBuffered = r.buffered
		}
		if a.Type == activity.Send {
			r.bufferedSends[a.ChanK]++
		}
		r.stats.Fetched++
		return true
	}
}

// refill implements the sliding-window fetch: every live queue gets at
// least one buffered activity, and each queue is topped up with everything
// within [minTs, minTs+Window] of the minimal buffered head timestamp.
func (r *Ranker) refill() {
	for _, q := range r.queues {
		if q.len() == 0 {
			r.fetchOne(q)
		}
	}
	minTs, ok := r.minHeadTs()
	if !ok {
		return
	}
	horizon := minTs + r.cfg.Window
	for _, q := range r.queues {
		for {
			next := q.src.Peek()
			if next == nil || next.Timestamp > horizon {
				break
			}
			if !r.fetchOne(q) {
				break
			}
		}
	}
}

func (r *Ranker) minHeadTs() (time.Duration, bool) {
	var minTs time.Duration
	found := false
	for _, q := range r.queues {
		if h := q.peek(); h != nil {
			if !found || h.Timestamp < minTs {
				minTs = h.Timestamp
				found = true
			}
		}
	}
	return minTs, found
}

// take removes the head of q, maintains buffer accounting, and returns it.
func (r *Ranker) take(q *queue) *activity.Activity {
	a := q.pop()
	r.buffered--
	if a.Type == activity.Send {
		if n := r.bufferedSends[a.ChanK]; n <= 1 {
			delete(r.bufferedSends, a.ChanK)
		} else {
			r.bufferedSends[a.ChanK] = n - 1
		}
	}
	r.stats.Delivered++
	return a
}

// Rank returns the next candidate activity for the engine, or nil when all
// sources are exhausted and the buffers are empty.
func (r *Ranker) Rank() *activity.Activity {
	for {
		r.refill()

		// Rule 1: a head RECEIVE whose SEND already reached the engine —
		// size-aware: the pending SEND must cover this segment's bytes.
		// The HasPendingSend guard keeps a zero-size RECEIVE from matching
		// vacuously (PendingBytes reports 0 both for "nothing pending" and
		// for a drained entry); the engine cannot attach it either way.
		for _, q := range r.queues {
			h := q.peek()
			if h != nil && h.Type == activity.Receive &&
				r.index.HasPendingSend(h.ChanK) && r.index.PendingBytes(h.ChanK) >= h.Size {
				return r.take(q)
			}
		}

		// Rule 2: the head with the lowest type priority; timestamp then
		// host order break ties deterministically.
		best := -1
		for i, q := range r.queues {
			h := q.peek()
			if h == nil {
				continue
			}
			if best < 0 {
				best = i
				continue
			}
			b := r.queues[best].peek()
			if h.Type.Priority() < b.Type.Priority() ||
				(h.Type.Priority() == b.Type.Priority() && h.Timestamp < b.Timestamp) {
				best = i
			}
		}
		if best < 0 {
			return nil // all queues and sources drained
		}
		if h := r.queues[best].peek(); h.Type != activity.Receive {
			return r.take(r.queues[best])
		}

		// Every head is an unmatched RECEIVE: disturbance handling.
		if r.swapBlockedHead() {
			r.stats.Swaps++
			continue
		}
		if r.dropNoiseHead() {
			continue
		}
		if r.extendWindow() {
			r.stats.Extensions++
			continue
		}
		// Nothing can unblock (activity loss or untraceable input):
		// force-deliver the oldest RECEIVE so the stream keeps draining.
		r.stats.ForcedPops++
		return r.take(r.queues[best])
	}
}

// swapBlockedHead implements the Fig. 6 concurrency-disturbance fix: in a
// queue whose head is a blocked RECEIVE, promote the first buffered
// non-RECEIVE activity to the head — provided no earlier buffered element
// shares its context, so per-context ordering (which the engine's cmap
// relies on) is preserved.
func (r *Ranker) swapBlockedHead() bool {
	for _, q := range r.queues {
		n := q.len()
		if n < 2 {
			continue
		}
		for i := 1; i < n; i++ {
			x := q.at(i)
			if x.Type == activity.Receive {
				continue
			}
			safe := true
			for j := 0; j < i; j++ {
				if q.at(j).CtxK == x.CtxK {
					safe = false
					break
				}
			}
			if safe {
				q.promote(i)
				return true
			}
			break // an unsafe promotion blocks shallower ones too
		}
	}
	return false
}

// dropNoiseHead applies is_noise (Fig. 5) to the queue heads: a RECEIVE is
// noise when no matching SEND is pending in the engine's mmap and none is
// buffered in the ranker. Unless PaperExactNoise is set, the ranker also
// requires that the sender can no longer produce the SEND (its node is
// untraced, or its source is exhausted); this keeps legitimate RECEIVEs
// alive when the window is much smaller than the clock skew.
func (r *Ranker) dropNoiseHead() bool {
	for _, q := range r.queues {
		h := q.peek()
		if h == nil || h.Type != activity.Receive {
			continue
		}
		if r.isNoise(h) {
			r.take(q) // removes from buffer with accounting
			r.stats.Delivered--
			r.stats.NoiseDropped++
			return true
		}
	}
	return false
}

// matchingSendVisible answers the Fig. 5 question — "is there a pending
// matching SEND anywhere in the window?" — from the two indexes this
// ranker already maintains: the engine's mmap of unconsumed SENDs
// (MsgIndex.HasPendingSend) and the per-channel count of SENDs still
// buffered in the window (bufferedSends).
//
// Shard-closure invariant: the answer needs no global view. The flow
// partition (internal/flow) is a union-find closed over channels — every
// activity unions with its connection's node, and both directions of a
// connection share one node — so every SEND that could ever match a
// RECEIVE (same ChanKey: the mmap and buffer lookups key on exactly that)
// is in the RECEIVE's component, and therefore feeds the same
// ranker+engine pair. A shard-local "no" is a global "no". The streaming
// session asserts the component side of this at ingest when Debug is set
// (no ChanKey resolves to two live components), internal/flow's
// TestChanKeyNeverSplits fuzzes it, and Debug mode cross-checks the
// bufferedSends index against a brute-force buffer scan here.
func (r *Ranker) matchingSendVisible(ch activity.ChanKey) bool {
	return r.index.HasPendingSend(ch) || r.bufferedSends[ch] > 0
}

// assertNoBufferedSend (Debug only) re-derives "no SEND for ch is
// buffered" by brute force before an exact-mode noise drop commits to it,
// catching any rot in the bufferedSends counter the fast path trusts.
func (r *Ranker) assertNoBufferedSend(ch activity.ChanKey) {
	for _, q := range r.queues {
		for i := 0; i < q.len(); i++ {
			if x := q.at(i); x.Type == activity.Send && x.ChanK == ch {
				panic("ranker: bufferedSends index missed a buffered SEND (is_noise would drop a matchable RECEIVE)")
			}
		}
	}
}

func (r *Ranker) isNoise(a *activity.Activity) bool {
	if r.matchingSendVisible(a.ChanK) {
		return false
	}
	if r.cfg.PaperExactNoise {
		if Debug {
			r.assertNoBufferedSend(a.ChanK)
		}
		return true
	}
	senderHost, traced := r.cfg.IPToHost[a.Chan.Src.IP]
	if !traced {
		return true // the sender is outside the traced deployment
	}
	for _, q := range r.queues {
		if q.host == senderHost {
			return q.src.Peek() == nil // exhausted sender can never send it
		}
	}
	return true // traced host with no source: nothing more can arrive
}

// extendWindow force-fetches one more activity from every live source,
// growing the buffer beyond the nominal window so a deep matching SEND can
// surface. Returns false when every source is exhausted.
func (r *Ranker) extendWindow() bool {
	any := false
	for _, q := range r.queues {
		if r.fetchOne(q) {
			any = true
		}
	}
	return any
}

// String implements fmt.Stringer.
func (r *Ranker) String() string {
	return fmt.Sprintf("ranker{queues=%d buffered=%d delivered=%d}", len(r.queues), r.buffered, r.stats.Delivered)
}
