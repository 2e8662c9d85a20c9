// Package activity defines the interaction-activity model of §2–3 of the
// paper: the four activity types (BEGIN, END, SEND, RECEIVE), the context
// identifier (hostname, program, pid, tid), the message identifier
// (sender ip:port, receiver ip:port, size), and the TCP_TRACE wire format
// produced by the kernel instrumentation.
package activity

import (
	"fmt"
	"time"
)

// Type is the activity type. The numeric order encodes the candidate
// priority of the ranker's Rule 2: BEGIN < SEND < END < RECEIVE < MAX, where
// a *lower* priority value is picked *earlier*.
type Type uint8

// Activity types in Rule 2 priority order.
const (
	Begin Type = iota + 1
	Send
	End
	Receive
	// MaxType is the sentinel above every real type ("MAX" in the paper's
	// priority chain); used when scanning for the minimum-priority head.
	MaxType
)

// Priority returns the Rule 2 ordering value; lower is chosen first.
func (t Type) Priority() int { return int(t) }

// String implements fmt.Stringer using the paper's spelling.
func (t Type) String() string {
	switch t {
	case Begin:
		return "BEGIN"
	case Send:
		return "SEND"
	case End:
		return "END"
	case Receive:
		return "RECEIVE"
	case MaxType:
		return "MAX"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType converts the wire spelling back into a Type.
func ParseType(s string) (Type, error) {
	if t := typeNamed(s); t != 0 {
		return t, nil
	}
	return 0, fmt.Errorf("unknown activity type %q", s)
}

// typeNamed returns the Type spelled s, or 0 for an unknown spelling.
func typeNamed(s string) Type {
	switch s {
	case "BEGIN":
		return Begin
	case "SEND":
		return Send
	case "END":
		return End
	case "RECEIVE":
		return Receive
	}
	return 0
}

// Context is the execution-entity identifier tuple
// (hostname, program name, process ID, thread ID). It is comparable and is
// used directly as the key of the engine's cmap.
type Context struct {
	Host    string
	Program string
	PID     int
	TID     int
}

// String implements fmt.Stringer.
func (c Context) String() string {
	return fmt.Sprintf("%s/%s[%d:%d]", c.Host, c.Program, c.PID, c.TID)
}

// Endpoint is one side of a TCP channel.
type Endpoint struct {
	IP   string
	Port int
}

// String implements fmt.Stringer.
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.IP, e.Port) }

// Channel is the directed end-to-end communication channel part of the
// message identifier: (sender ip:port, receiver ip:port). It is comparable
// and is used directly as the key of the engine's mmap; the size component
// of the paper's message-identifier tuple lives on the Activity because it
// varies per segment.
type Channel struct {
	Src Endpoint
	Dst Endpoint
}

// Reverse returns the channel for traffic flowing the opposite way.
func (ch Channel) Reverse() Channel { return Channel{Src: ch.Dst, Dst: ch.Src} }

// String implements fmt.Stringer using the wire spelling.
func (ch Channel) String() string {
	return fmt.Sprintf("%s-%s", ch.Src, ch.Dst)
}

// Activity is one logged kernel interaction activity. Timestamp is the
// *node-local* time of the logging node; the correlator never assumes any
// cross-node clock relationship.
type Activity struct {
	// ID uniquely identifies the record within one trace (assignment order
	// = log order). It exists for bookkeeping and ground-truth checking; the
	// correlation algorithm itself never inspects it.
	ID int64

	Type      Type
	Timestamp time.Duration
	Ctx       Context
	Chan      Channel
	Size      int64

	// CtxK and ChanK are the dense key forms of Ctx and Chan (see
	// symbols.go), filled by Bind at the decode boundary and used as the
	// map/union-find keys on every hot path. They are derived, carry no
	// information of their own, and stay zero on hand-built records until
	// a consumer binds them lazily.
	CtxK  CtxKey
	ChanK ChanKey

	// Ground truth, available only when the trace was produced by the
	// simulated testbed (the real system would not have these). ReqID is the
	// request that caused the activity (-1 when unknown/noise), MsgID the
	// logical message a SEND/RECEIVE segment belongs to (-1 when n/a).
	// The correlator MUST NOT read these; they exist so the accuracy
	// experiments can compare CAGs against truth, mirroring the paper's
	// modified-RUBiS global request ID.
	ReqID int64
	MsgID int64
}

// String implements fmt.Stringer in a compact debug form.
func (a *Activity) String() string {
	return fmt.Sprintf("#%d %s t=%v %s %s %dB", a.ID, a.Type, a.Timestamp, a.Ctx, a.Chan, a.Size)
}

// CloneUntagged returns a copy with the ground-truth fields erased; used by
// tests to prove the correlator does not depend on them.
func (a *Activity) CloneUntagged() *Activity {
	cp := *a
	cp.ReqID = -1
	cp.MsgID = -1
	return &cp
}
