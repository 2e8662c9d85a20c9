package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call (or batch of calls) into a layer's public API.
// Start and End are offsets from the tracer's origin. A span with
// Accumulated set covers many interleaved per-record calls made inside
// its parent's interval: its duration is their summed time, and it is
// laid out inside the parent's interval after any earlier accumulated
// sibling, so siblings never overlap.
type span struct {
	ID          int           `json:"id"`
	Parent      int           `json:"parent"` // 0: a root span
	Name        string        `json:"name"`
	Start       time.Duration `json:"start_ns"`
	End         time.Duration `json:"end_ns"`
	Items       int           `json:"items"` // records, activities or graphs covered
	Accumulated bool          `json:"accumulated,omitempty"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and costs one branch per call. It is safe for
// concurrent use: the live replay records from the generator and the
// ingest goroutine at once.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// now is the tracer's clock: the offset from its origin.
func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// record stores a finished span and returns its ID (0 when disabled).
func (t *tracer) record(name string, parent int, start, end time.Duration, items int, acc bool) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end, Items: items, Accumulated: acc})
	return id
}

// open starts a span whose children need its ID before it ends; close
// finishes it. Disabled tracers return 0 and ignore close.
func (t *tracer) open(name string, parent int) int {
	if !t.on {
		return 0
	}
	s := t.now()
	return t.record(name, parent, s, s, 0, false)
}

func (t *tracer) close(id, items int) {
	if !t.on || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Items = items
	t.mu.Unlock()
}

// layerTotals is the per-name sum of self time and items.
type layerTotals struct {
	self  time.Duration
	items int
	spans int
}

// totals computes every span's self time — its duration minus the part
// of its interval that its children cover — and sums it per name.
func (t *tracer) totals() map[string]layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTotals)
	for _, s := range t.spans {
		lt := out[s.Name]
		lt.self += s.End - s.Start - covered(s, children[s.ID])
		lt.items += s.Items
		lt.spans++
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curS, curE = x[0], x[1]
		case x[0] > curE:
			total += curE - curS
			curS, curE = x[0], x[1]
		case x[1] > curE:
			curE = x[1]
		}
	}
	if len(iv) > 0 {
		total += curE - curS
	}
	return total
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// accum lays out accumulated spans one after another inside a parent.
type accum struct {
	tr     *tracer
	parent int
	cursor time.Duration
}

func (t *tracer) accumUnder(parent int, start time.Duration) *accum {
	return &accum{tr: t, parent: parent, cursor: start}
}

func (a *accum) add(name string, d time.Duration, items int) {
	a.tr.record(name, a.parent, a.cursor, a.cursor+d, items, true)
	a.cursor += d
}
