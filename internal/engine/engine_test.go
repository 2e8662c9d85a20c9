package engine

import (
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

var (
	httpdCtx = activity.Context{Host: "web1", Program: "httpd", PID: 10, TID: 10}
	javaCtx  = activity.Context{Host: "app1", Program: "java", PID: 20, TID: 21}
	mysqlCtx = activity.Context{Host: "db1", Program: "mysqld", PID: 30, TID: 31}

	clientCh = activity.Channel{Src: activity.Endpoint{IP: "10.0.0.9", Port: 4001}, Dst: activity.Endpoint{IP: "10.0.0.1", Port: 80}}
	webApp   = activity.Channel{Src: activity.Endpoint{IP: "10.0.0.1", Port: 34001}, Dst: activity.Endpoint{IP: "10.0.0.2", Port: 8009}}
	appDB    = activity.Channel{Src: activity.Endpoint{IP: "10.0.0.2", Port: 45001}, Dst: activity.Endpoint{IP: "10.0.0.3", Port: 3306}}
)

var nextID int64

func act(typ activity.Type, ms int, ctx activity.Context, ch activity.Channel, size int64, req int64) *activity.Activity {
	nextID++
	return &activity.Activity{
		ID: nextID, Type: typ, Timestamp: time.Duration(ms) * time.Millisecond,
		Ctx: ctx, Chan: ch, Size: size, ReqID: req, MsgID: -1,
	}
}

// simpleRequest returns the candidate stream (already in rank order) for one
// three-tier request starting at base ms.
func simpleRequest(base int, req int64) []*activity.Activity {
	return []*activity.Activity{
		act(activity.Begin, base, httpdCtx, clientCh, 200, req),
		act(activity.Send, base+2, httpdCtx, webApp, 300, req),
		act(activity.Receive, base+5, javaCtx, webApp, 300, req),
		act(activity.Send, base+8, javaCtx, appDB, 100, req),
		act(activity.Receive, base+10, mysqlCtx, appDB, 100, req),
		act(activity.Send, base+15, mysqlCtx, appDB.Reverse(), 900, req),
		act(activity.Receive, base+17, javaCtx, appDB.Reverse(), 900, req),
		act(activity.Send, base+20, javaCtx, webApp.Reverse(), 700, req),
		act(activity.Receive, base+22, httpdCtx, webApp.Reverse(), 700, req),
		act(activity.End, base+24, httpdCtx, clientCh.Reverse(), 700, req),
	}
}

func feed(t *testing.T, e *Engine, as []*activity.Activity) {
	t.Helper()
	for _, a := range as {
		e.Handle(a)
	}
}

func TestSimpleRequestProducesOneCAG(t *testing.T) {
	e := New()
	feed(t, e, simpleRequest(0, 1))
	outs := e.Outputs()
	if len(outs) != 1 {
		t.Fatalf("got %d CAGs, want 1", len(outs))
	}
	g := outs[0]
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.Len() != 10 {
		t.Fatalf("CAG has %d vertices, want 10:\n%s", g.Len(), cag.Dump(g))
	}
	if g.Latency() != 24*time.Millisecond {
		t.Fatalf("latency = %v, want 24ms", g.Latency())
	}
	st := e.Stats()
	if st.Begins != 1 || st.Finished != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.DiscardedSends+st.DiscardedReceives+st.DiscardedEnds != 0 {
		t.Fatalf("clean trace discarded activities: %+v", st)
	}
	ids := g.RequestIDs()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("RequestIDs = %v", ids)
	}
}

func TestSendSegmentMerging(t *testing.T) {
	// Fig. 4: sender sends one 900-byte message as 400+500; receiver reads
	// 300+300+300. The CAG must contain ONE SEND and ONE RECEIVE vertex.
	e := New()
	stream := []*activity.Activity{
		act(activity.Begin, 0, httpdCtx, clientCh, 200, 1),
		act(activity.Send, 2, httpdCtx, webApp, 400, 1),
		act(activity.Send, 3, httpdCtx, webApp, 500, 1),
		act(activity.Receive, 5, javaCtx, webApp, 300, 1),
		act(activity.Receive, 6, javaCtx, webApp, 300, 1),
		act(activity.Receive, 7, javaCtx, webApp, 300, 1),
		act(activity.Send, 9, javaCtx, webApp.Reverse(), 100, 1),
		act(activity.Receive, 11, httpdCtx, webApp.Reverse(), 100, 1),
		act(activity.End, 12, httpdCtx, clientCh.Reverse(), 100, 1),
	}
	feed(t, e, stream)
	outs := e.Outputs()
	if len(outs) != 1 {
		t.Fatalf("got %d CAGs, want 1", len(outs))
	}
	g := outs[0]
	if g.Len() != 6 { // BEGIN, SEND(merged), RECEIVE(merged), SEND, RECEIVE, END
		t.Fatalf("CAG has %d vertices, want 6:\n%s", g.Len(), cag.Dump(g))
	}
	st := e.Stats()
	if st.MergedSends != 1 {
		t.Fatalf("MergedSends = %d, want 1", st.MergedSends)
	}
	if st.PartialReceives != 2 {
		t.Fatalf("PartialReceives = %d, want 2", st.PartialReceives)
	}
	// The merged SEND vertex carries the full 900 bytes and both records.
	send := g.Vertex(1)
	if send.Size != 900 || len(send.Records) != 2 {
		t.Fatalf("merged SEND: size=%d records=%d", send.Size, len(send.Records))
	}
	recv := g.Vertex(2)
	if recv.Size != 900 || len(recv.Records) != 3 {
		t.Fatalf("merged RECEIVE: size=%d records=%d", recv.Size, len(recv.Records))
	}
	// RECEIVE's representative timestamp is the completing segment's.
	if recv.Timestamp != 7*time.Millisecond {
		t.Fatalf("RECEIVE timestamp = %v, want 7ms", recv.Timestamp)
	}
}

func TestThreadReuseSameCAGCheck(t *testing.T) {
	// Two back-to-back requests served by the SAME java thread (thread-pool
	// recycling). Without the same-CAG check the second request's RECEIVE
	// would grow a context edge from the first request's CAG.
	e := New()
	feed(t, e, simpleRequest(0, 1))
	feed(t, e, simpleRequest(100, 2))
	outs := e.Outputs()
	if len(outs) != 2 {
		t.Fatalf("got %d CAGs, want 2", len(outs))
	}
	for i, g := range outs {
		if err := g.Validate(); err != nil {
			t.Fatalf("CAG %d invalid: %v", i, err)
		}
		ids := g.RequestIDs()
		if len(ids) != 1 {
			t.Fatalf("CAG %d mixes requests: %v\n%s", i, ids, cag.Dump(g))
		}
	}
	if e.Stats().ThreadReuseBreaks == 0 {
		t.Fatal("expected the same-CAG check to fire for the reused contexts")
	}
}

func TestReceiveWithoutSendDiscarded(t *testing.T) {
	e := New()
	e.Handle(act(activity.Receive, 1, javaCtx, webApp, 100, -1))
	if e.Stats().DiscardedReceives != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
	if len(e.Outputs()) != 0 {
		t.Fatal("no CAG should exist")
	}
}

func TestSendWithoutContextDiscarded(t *testing.T) {
	e := New()
	e.Handle(act(activity.Send, 1, javaCtx, appDB, 100, -1))
	if e.Stats().DiscardedSends != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

func TestEndWithoutContextDiscarded(t *testing.T) {
	e := New()
	e.Handle(act(activity.End, 1, httpdCtx, clientCh.Reverse(), 100, -1))
	if e.Stats().DiscardedEnds != 1 {
		t.Fatalf("stats = %+v", e.Stats())
	}
}

// chanKey builds the dense key for a channel the way Bind would.
func chanKey(ch activity.Channel) activity.ChanKey {
	a := activity.Activity{Chan: ch, Ctx: activity.Context{Host: "h"}}
	activity.Bind(&a)
	return a.ChanK
}

func TestHasPendingSend(t *testing.T) {
	e := New()
	if e.HasPendingSend(chanKey(webApp)) {
		t.Fatal("empty engine should have no pending send")
	}
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	if !e.HasPendingSend(chanKey(webApp)) {
		t.Fatal("pending send should be visible")
	}
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 300, 1))
	if e.HasPendingSend(chanKey(webApp)) {
		t.Fatal("fully received send should be cleared")
	}
}

func TestOverrunReceiveCounted(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	e.Handle(act(activity.Receive, 5, javaCtx, webApp, 400, 1)) // 100 too many
	st := e.Stats()
	if st.OverrunReceives != 1 {
		t.Fatalf("OverrunReceives = %d", st.OverrunReceives)
	}
	// The vertex still materialises (robustness).
	if st.Receives != 1 {
		t.Fatalf("Receives = %d", st.Receives)
	}
}

func TestReplacedSendCounted(t *testing.T) {
	e := New()
	e.Handle(act(activity.Begin, 0, httpdCtx, clientCh, 200, 1))
	e.Handle(act(activity.Send, 2, httpdCtx, webApp, 300, 1))
	// Second message on the same channel before the first was received
	// (activity loss scenario). Needs a non-SEND context parent in between
	// to avoid merging: simulate via a different httpd context state.
	e.Handle(act(activity.Receive, 3, httpdCtx, webApp.Reverse(), 50, 1)) // discarded (no send)
	e.Handle(act(activity.Send, 4, httpdCtx, appDB, 300, 1))              // different channel => new vertex
	e.Handle(act(activity.Send, 5, httpdCtx, webApp, 300, 1))             // same channel as pending => replaced
	if e.Stats().ReplacedSends != 1 {
		t.Fatalf("ReplacedSends = %d (stats %+v)", e.Stats().ReplacedSends, e.Stats())
	}
}

func TestInterleavedConcurrentRequests(t *testing.T) {
	// Two requests through DIFFERENT worker entities, interleaved in time —
	// the core concurrency case precise tracing must untangle.
	httpd2 := activity.Context{Host: "web1", Program: "httpd", PID: 11, TID: 11}
	java2 := activity.Context{Host: "app1", Program: "java", PID: 20, TID: 22}
	mysql2 := activity.Context{Host: "db1", Program: "mysqld", PID: 30, TID: 32}
	client2 := activity.Channel{Src: activity.Endpoint{IP: "10.0.0.8", Port: 4002}, Dst: activity.Endpoint{IP: "10.0.0.1", Port: 80}}
	webApp2 := activity.Channel{Src: activity.Endpoint{IP: "10.0.0.1", Port: 34002}, Dst: activity.Endpoint{IP: "10.0.0.2", Port: 8009}}
	appDB2 := activity.Channel{Src: activity.Endpoint{IP: "10.0.0.2", Port: 45002}, Dst: activity.Endpoint{IP: "10.0.0.3", Port: 3306}}

	r1 := simpleRequest(0, 1)
	var r2 []*activity.Activity
	remap := map[activity.Context]activity.Context{httpdCtx: httpd2, javaCtx: java2, mysqlCtx: mysql2}
	chmap := map[activity.Channel]activity.Channel{
		clientCh: client2, webApp: webApp2, appDB: appDB2,
		clientCh.Reverse(): client2.Reverse(), webApp.Reverse(): webApp2.Reverse(), appDB.Reverse(): appDB2.Reverse(),
	}
	for _, a := range simpleRequest(1, 2) {
		b := *a
		b.Ctx = remap[a.Ctx]
		b.Chan = chmap[a.Chan]
		r2 = append(r2, &b)
	}
	// Interleave strictly.
	e := New()
	for i := range r1 {
		e.Handle(r1[i])
		e.Handle(r2[i])
	}
	outs := e.Outputs()
	if len(outs) != 2 {
		t.Fatalf("got %d CAGs, want 2", len(outs))
	}
	for i, g := range outs {
		if err := g.Validate(); err != nil {
			t.Fatalf("CAG %d: %v", i, err)
		}
		if ids := g.RequestIDs(); len(ids) != 1 {
			t.Fatalf("CAG %d mixes requests %v", i, ids)
		}
	}
}
