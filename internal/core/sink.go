package core

import "repro/internal/cag"

// GraphSink consumes finished CAGs as the watermark emitter releases
// them — the composable form of the emission path. Sinks registered in
// Options.Sinks (or IngestOptions.Sinks) are invoked in registration
// order, on the emitter's goroutine, in deterministic END-timestamp
// order. Registering any sink switches the session to streaming:
// Result.Graphs stays empty and output memory is the sinks' concern.
//
// Ownership: the graph and its vertices' Records are owned by the
// pipeline's slab allocator and are immutable after emission. A sink
// may retain the graph indefinitely (the monitor's interval buckets
// do), but must not mutate vertices or records — later sinks in the
// chain observe the same objects.
type GraphSink interface {
	ConsumeGraph(g *cag.Graph)
}

// GraphSinkFunc adapts a plain function to the GraphSink interface.
type GraphSinkFunc func(g *cag.Graph)

// ConsumeGraph implements GraphSink.
func (f GraphSinkFunc) ConsumeGraph(g *cag.Graph) { f(g) }

// Collect is a GraphSink that accumulates every released graph in
// emission order — the bridge for callers that want both streaming
// sinks (export, monitoring) and the batch Result.Graphs view.
type Collect struct {
	Graphs []*cag.Graph
}

// ConsumeGraph implements GraphSink.
func (c *Collect) ConsumeGraph(g *cag.Graph) { c.Graphs = append(c.Graphs, g) }
