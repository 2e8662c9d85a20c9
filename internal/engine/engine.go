// Package engine implements the CAG-construction half of the Correlator —
// the `correlate` procedure of Fig. 3 in the paper. The engine consumes the
// candidate activities chosen by the ranker, in ranker order, and maintains
// two index maps over unfinished CAGs:
//
//   - mmap: message identifier (end-to-end channel) → the unmatched SEND
//     vertex on that channel, with the count of bytes not yet consumed by
//     RECEIVE activities. SEND/RECEIVE matching is n-to-n (Fig. 4): a
//     sender may emit a message in several consecutive SEND segments which
//     the engine merges by size, and a receiver may drain it in several
//     RECEIVE segments which the engine counts down, materialising the
//     RECEIVE vertex when the byte count reaches zero.
//   - cmap: context identifier → the latest activity vertex observed in
//     that execution entity, used to resolve adjacent context relations.
//
// Thread-pool context reuse (one thread serving many requests over its
// lifetime) is defeated by the same-CAG check of lines 29–32: the context
// edge into a RECEIVE is added only when the message parent and the context
// parent already belong to the same CAG.
package engine

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/cag"
)

// Stats counts engine actions; the evaluation harness reads these.
type Stats struct {
	Begins          uint64 // CAGs created
	Finished        uint64 // CAGs completed by an END
	MergedSends     uint64 // SEND segments merged into an earlier SEND (Fig. 4)
	MergedBegins    uint64 // BEGIN segments merged into the root (multi-segment request)
	MergedEnds      uint64 // END segments merged into the END vertex (multi-segment response)
	PartialReceives uint64 // RECEIVE segments that left bytes outstanding
	Receives        uint64 // RECEIVE vertices materialised
	Sends           uint64 // SEND vertices materialised

	// Discards: activities the engine could not attach. In a clean trace
	// all of these stay zero; noise and injected loss raise them.
	DiscardedSends    uint64 // SEND with no context parent
	DiscardedReceives uint64 // RECEIVE with no pending SEND on its channel
	DiscardedEnds     uint64 // END with no context parent
	OverrunReceives   uint64 // RECEIVE consumed more bytes than were sent
	ReplacedSends     uint64 // new SEND on a channel that still had pending bytes
	ThreadReuseBreaks uint64 // context edge suppressed by the same-CAG check
}

// pendingSend is stored by value in mmap: one live message per channel,
// mutated read-modify-write, so the per-SEND heap allocation of a
// pointer-valued map is avoided entirely.
type pendingSend struct {
	vertex    *cag.Vertex
	graph     *cag.Graph
	remaining int64
	partial   []*activity.Activity // RECEIVE segments consumed so far
}

type ctxEntry struct {
	vertex *cag.Vertex
	graph  *cag.Graph
}

// Engine builds CAGs from ranked candidate activities. Both index maps
// key on the dense activity keys (activity.ChanKey / activity.CtxKey):
// string-free fixed-width hashing on the per-candidate hot path.
type Engine struct {
	mmap map[activity.ChanKey]pendingSend
	cmap map[activity.CtxKey]ctxEntry

	outputs []*cag.Graph
	stats   Stats

	// resident tracks vertices held in unfinished CAGs — the engine half of
	// the Fig. 11 memory accounting. It rises as vertices are added and
	// falls when a finished CAG is emitted.
	resident     int
	peakResident int
}

// New returns an empty engine.
func New() *Engine {
	return &Engine{
		mmap: make(map[activity.ChanKey]pendingSend),
		cmap: make(map[activity.CtxKey]ctxEntry),
	}
}

// Reset returns the engine to its empty state while keeping the mmap and
// cmap capacity — the worker-pool variant of New for correlating many
// sealed components on one engine. The previous run's outputs slice is
// dropped, never truncated and reused, so graphs already handed to the
// caller stay valid after the reset.
func (e *Engine) Reset() {
	clear(e.mmap)
	clear(e.cmap)
	e.outputs = nil
	e.stats = Stats{}
	e.resident = 0
	e.peakResident = 0
}

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// HasPendingSend reports whether mmap holds an unmatched SEND for the
// given channel (by dense key) — the query behind the ranker's Rule 1 and
// is_noise.
func (e *Engine) HasPendingSend(ch activity.ChanKey) bool {
	p, ok := e.mmap[ch]
	return ok && p.remaining > 0
}

// PendingBytes returns the number of bytes of the channel's unmatched SEND
// that RECEIVE activities have not yet consumed, or 0 when none is pending.
// The ranker's size-aware Rule 1 uses it: a RECEIVE only becomes a
// candidate once every SEND segment it covers has reached the engine,
// otherwise the byte countdown of Fig. 4 would go negative.
func (e *Engine) PendingBytes(ch activity.ChanKey) int64 {
	p, ok := e.mmap[ch]
	if !ok || p.remaining < 0 {
		return 0
	}
	return p.remaining
}

// Outputs returns the finished CAGs accumulated so far (in completion
// order). Reset drops them.
func (e *Engine) Outputs() []*cag.Graph { return e.outputs }

// Unfinished returns the number of CAGs started but not yet completed.
func (e *Engine) Unfinished() int {
	return int(e.stats.Begins - e.stats.Finished)
}

// ResidentVertices returns the number of vertices currently held in
// unfinished CAGs.
func (e *Engine) ResidentVertices() int { return e.resident }

// PeakResidentVertices returns the maximum ResidentVertices observed.
func (e *Engine) PeakResidentVertices() int { return e.peakResident }

func (e *Engine) addResident(n int) {
	e.resident += n
	if e.resident > e.peakResident {
		e.peakResident = e.resident
	}
}

// Handle processes one candidate activity — one iteration of the Fig. 3
// while loop. It returns the CAG finished by this activity, if any.
func (e *Engine) Handle(a *activity.Activity) *cag.Graph {
	if !a.CtxK.Bound() {
		// Hand-built records reach the engine unbound; decode-boundary
		// records arrive with their keys already filled.
		activity.Bind(a)
	}
	switch a.Type {
	case activity.Begin:
		e.handleBegin(a)
	case activity.End:
		return e.handleEnd(a)
	case activity.Send:
		e.handleSend(a)
	case activity.Receive:
		e.handleReceive(a)
	case activity.MaxType:
		// Sentinel never appears in a trace; ignore defensively.
	}
	return nil
}

// handleBegin: lines 3–4 — create a CAG with the BEGIN as root. A request
// larger than one TCP segment arrives as several frontier RECEIVEs, all
// classified BEGIN; the trailing segments merge into the root the same way
// Fig. 4 merges SEND segments.
func (e *Engine) handleBegin(a *activity.Activity) {
	if parent, ok := e.cmap[a.CtxK]; ok && !parent.graph.Finished() &&
		parent.vertex.Type == activity.Begin && parent.vertex.Chan == a.Chan &&
		parent.graph.Len() == 1 {
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		e.stats.MergedBegins++
		return
	}
	v := cag.NewVertex(a)
	g := cag.New(v)
	e.cmap[a.CtxK] = ctxEntry{vertex: v, graph: g}
	e.stats.Begins++
	e.addResident(1)
}

// handleEnd: lines 5–11 — attach via the context relation and output.
func (e *Engine) handleEnd(a *activity.Activity) *cag.Graph {
	parent, ok := e.cmap[a.CtxK]
	if !ok {
		e.stats.DiscardedEnds++
		return nil
	}
	if parent.vertex.Type == activity.End && parent.vertex.Chan == a.Chan {
		// Trailing segment of a multi-segment response: merge into the END
		// vertex even though the graph is already finished — only the
		// vertex's records and byte count change, not the structure.
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		e.stats.MergedEnds++
		return nil
	}
	if parent.graph.Finished() {
		e.stats.DiscardedEnds++
		return nil
	}
	v := cag.NewVertex(a)
	if err := parent.graph.AddVertex(v, cag.ContextEdge, parent.vertex); err != nil {
		e.stats.DiscardedEnds++
		return nil
	}
	if err := parent.graph.Finish(); err != nil {
		e.stats.DiscardedEnds++
		return nil
	}
	e.cmap[a.CtxK] = ctxEntry{vertex: v, graph: parent.graph}
	e.stats.Finished++
	g := parent.graph
	e.addResident(1)
	e.resident -= g.Len()
	e.outputs = append(e.outputs, g)
	return g
}

// handleSend: lines 12–21 — either merge into the previous SEND segment of
// the same message (same context, same channel) or materialise a new SEND
// vertex hanging off the context parent.
func (e *Engine) handleSend(a *activity.Activity) {
	parent, ok := e.cmap[a.CtxK]
	if !ok || parent.graph.Finished() {
		// No context parent: nothing caused this send within a traced
		// request — noise that slipped past the ranker's filters.
		e.stats.DiscardedSends++
		return
	}
	if parent.vertex.Type == activity.Send && parent.vertex.Chan == a.Chan {
		// Line 15–16: consecutive SEND segments of one message — merge.
		parent.vertex.Size += a.Size
		parent.vertex.Records = append(parent.vertex.Records, a)
		if p, ok := e.mmap[a.ChanK]; ok && p.vertex == parent.vertex {
			p.remaining += a.Size
			e.mmap[a.ChanK] = p
		}
		e.stats.MergedSends++
		return
	}
	v := cag.NewVertex(a)
	if err := parent.graph.AddVertex(v, cag.ContextEdge, parent.vertex); err != nil {
		e.stats.DiscardedSends++
		return
	}
	e.cmap[a.CtxK] = ctxEntry{vertex: v, graph: parent.graph}
	if old, ok := e.mmap[a.ChanK]; ok && old.remaining > 0 {
		// A fresh message started on a channel whose previous message was
		// never fully received: only possible with activity loss.
		e.stats.ReplacedSends++
	}
	e.mmap[a.ChanK] = pendingSend{vertex: v, graph: parent.graph, remaining: a.Size}
	e.stats.Sends++
	e.addResident(1)
}

// handleReceive: lines 22–34 — count down the pending SEND's bytes; when
// they reach zero materialise the RECEIVE with its message edge, and add
// the context edge only if both parents sit in the same CAG (thread-reuse
// check).
func (e *Engine) handleReceive(a *activity.Activity) {
	p, ok := e.mmap[a.ChanK]
	if !ok || p.remaining <= 0 {
		e.stats.DiscardedReceives++
		return
	}
	p.remaining -= a.Size
	if p.remaining > 0 {
		p.partial = append(p.partial, a)
		e.stats.PartialReceives++
		e.mmap[a.ChanK] = p
		return
	}
	if p.remaining < 0 {
		e.stats.OverrunReceives++
	}
	// Message fully received: the RECEIVE vertex's representative timestamp
	// is the completing segment's (data available to the application now).
	v := cag.NewVertex(a)
	v.Size = p.vertex.Size
	if len(p.partial) > 0 {
		v.Records = append(append([]*activity.Activity{}, p.partial...), a)
	}
	if err := p.graph.AddVertex(v, cag.MessageEdge, p.vertex); err != nil {
		e.stats.DiscardedReceives++
		return
	}
	if parentCtx, ok := e.cmap[a.CtxK]; ok {
		// Lines 29–32: same-CAG check defeats thread-pool reuse.
		if p.graph.Contains(parentCtx.vertex) {
			if err := p.graph.AddEdge(cag.ContextEdge, parentCtx.vertex, v); err != nil {
				e.stats.DiscardedReceives++
			}
		} else {
			e.stats.ThreadReuseBreaks++
		}
	}
	e.cmap[a.CtxK] = ctxEntry{vertex: v, graph: p.graph}
	delete(e.mmap, a.ChanK)
	e.stats.Receives++
	e.addResident(1)
}

// String implements fmt.Stringer.
func (e *Engine) String() string {
	return fmt.Sprintf("engine{mmap=%d cmap=%d unfinished=%d finished=%d}",
		len(e.mmap), len(e.cmap), e.Unfinished(), e.stats.Finished)
}
