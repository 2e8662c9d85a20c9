package engine

import (
	"testing"
	"time"

	"repro/internal/activity"
)

func TestBeginSegmentMerging(t *testing.T) {
	// A request body larger than one segment arrives as several frontier
	// RECEIVEs, all classified BEGIN; trailing ones merge into the root.
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 1448, 1))
	e.Handle(act(activity.Begin, 1, httpdCtx, clientCh, 600, 1))
	e.Handle(act(activity.Send, 3, httpdCtx, webApp, 300, 1))
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 300, 1))
	e.Handle(act(activity.Send, 7, javaCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.Receive, 9, httpdCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.End, 11, httpdCtx, clientCh.Reverse(), 50, 1))

	st := e.Stats()
	if st.MergedBegins != 1 {
		t.Fatalf("MergedBegins = %d", st.MergedBegins)
	}
	if st.Begins != 1 || st.Finished != 1 {
		t.Fatalf("stats: %+v", st)
	}
	g := e.Outputs()[0]
	root := g.Root()
	if root.Size != 2048 || len(root.Records) != 2 {
		t.Fatalf("merged root: size=%d records=%d", root.Size, len(root.Records))
	}
}

func TestBeginNotMergedAcrossRequests(t *testing.T) {
	// Two sequential requests on the same keep-alive connection: the
	// second BEGIN must start a NEW CAG, not merge into the finished one.
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.End, 2, httpdCtx, clientCh.Reverse(), 100, 1))
	e.Handle(act(activity.Begin, 10, httpdCtx, clientCh, 200, 2))
	e.Handle(act(activity.End, 12, httpdCtx, clientCh.Reverse(), 100, 2))
	if got := len(e.Outputs()); got != 2 {
		t.Fatalf("CAGs = %d, want 2", got)
	}
	if e.Stats().MergedBegins != 0 {
		t.Fatalf("wrongly merged BEGINs: %+v", e.Stats())
	}
}

func TestEndSegmentMergingKeepsTruth(t *testing.T) {
	// Multi-segment response: trailing END segments merge so ground truth
	// stays complete even though the graph is finished.
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.End, 2, httpdCtx, clientCh.Reverse(), 1448, 1))
	e.Handle(act(activity.End, 3, httpdCtx, clientCh.Reverse(), 1448, 1))
	e.Handle(act(activity.End, 4, httpdCtx, clientCh.Reverse(), 704, 1))
	if e.Stats().MergedEnds != 2 {
		t.Fatalf("MergedEnds = %d", e.Stats().MergedEnds)
	}
	g := e.Outputs()[0]
	end := g.End()
	if end.Size != 3600 || len(end.Records) != 3 {
		t.Fatalf("merged END: size=%d records=%d", end.Size, len(end.Records))
	}
	if got := len(g.RecordIDs()); got != 4 {
		t.Fatalf("records in CAG = %d, want 4", got)
	}
}

func TestUnfinishedCountAndResidency(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	if e.Unfinished() != 1 {
		t.Fatalf("Unfinished = %d", e.Unfinished())
	}
	if e.ResidentVertices() != 2 {
		t.Fatalf("resident = %d", e.ResidentVertices())
	}
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 300, 1))
	e.Handle(act(activity.Send, 7, javaCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.Receive, 9, httpdCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.End, 11, httpdCtx, clientCh.Reverse(), 50, 1))
	if e.Unfinished() != 0 {
		t.Fatalf("Unfinished after END = %d", e.Unfinished())
	}
	if e.ResidentVertices() != 0 {
		t.Fatalf("resident after output = %d", e.ResidentVertices())
	}
	if e.PeakResidentVertices() < 5 {
		t.Fatalf("peak resident = %d", e.PeakResidentVertices())
	}
}

func TestIndexMapsTrackPending(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	if len(e.mmap) != 1 || len(e.cmap) != 1 {
		t.Fatalf("index sizes: mmap=%d cmap=%d", len(e.mmap), len(e.cmap))
	}
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 300, 1))
	if len(e.mmap) != 0 {
		t.Fatalf("mmap after full receive = %d", len(e.mmap))
	}
}

func TestSendMergeRequiresSameChannel(t *testing.T) {
	// Consecutive SENDs from one context to DIFFERENT channels must stay
	// separate vertices (the paper's merge is per message).
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	other := activity.Channel{Src: activity.Endpoint{IP: "10.0.0.1", Port: 35000}, Dst: activity.Endpoint{IP: "10.0.0.3", Port: 3306}}
	e.Handle(act(activity.Send, 3, httpdCtx, other, 300, 1))
	if e.Stats().MergedSends != 0 {
		t.Fatalf("cross-channel SENDs merged: %+v", e.Stats())
	}
	if e.Stats().Sends != 2 {
		t.Fatalf("Sends = %d", e.Stats().Sends)
	}
}

func TestStringer(t *testing.T) {
	e := New()
	if e.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHandleMaxTypeIgnored(t *testing.T) {
	e := New()
	a := act(activity.Begin, 0, httpdCtx, clientCh, 200, 1)
	a.Type = activity.MaxType
	if g := e.Handle(a); g != nil {
		t.Fatal("sentinel produced a graph")
	}
	if e.Stats().Begins != 0 {
		t.Fatal("sentinel counted as BEGIN")
	}
}

func TestReceiveTimestampIsCompletionSegment(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 600, 1))
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 200, 1))
	e.Handle(act(activity.Receive, 8, javaCtx, webApp, 400, 1))
	// Walk cmap via a follow-up send to locate the RECEIVE vertex.
	e.Handle(act(activity.Send, 9, javaCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.Receive, 11, httpdCtx, webApp.Reverse(), 100, 1))
	e.Handle(act(activity.End, 13, httpdCtx, clientCh.Reverse(), 50, 1))
	g := e.Outputs()[0]
	recv := g.Vertex(2)
	if recv.Type != activity.Receive || recv.Timestamp != 8*time.Millisecond {
		t.Fatalf("receive vertex: %v", recv)
	}
}
