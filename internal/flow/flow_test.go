package flow

import (
	"time"

	"repro/internal/activity"
)

// mk builds one activity for the hand-written partition fixtures.
func mk(id int64, typ activity.Type, ts time.Duration, host string, tid int, src, dst string, srcPort, dstPort int, size int64) *activity.Activity {
	return &activity.Activity{
		ID:        id,
		Type:      typ,
		Timestamp: ts,
		Ctx:       activity.Context{Host: host, Program: "p", PID: 1, TID: tid},
		Chan: activity.Channel{
			Src: activity.Endpoint{IP: src, Port: srcPort},
			Dst: activity.Endpoint{IP: dst, Port: dstPort},
		},
		Size:  size,
		ReqID: -1, MsgID: -1,
	}
}

// twoRequests builds two fully independent requests: client→web BEGIN,
// web→app SEND/RECEIVE, app→web reply, web→client END, on distinct
// connections and distinct worker threads.
func twoRequests() []*activity.Activity {
	var tr []*activity.Activity
	for r := 0; r < 2; r++ {
		base := time.Duration(r) * time.Second
		cp := 40000 + r // client ephemeral port
		wp := 50000 + r // web ephemeral port toward app
		wtid := 10 + r
		atid := 20 + r
		tr = append(tr,
			mk(int64(r*10+0), activity.Begin, base+1*time.Millisecond, "web", wtid, "10.0.0.9", "10.0.0.1", cp, 80, 100),
			mk(int64(r*10+1), activity.Send, base+2*time.Millisecond, "web", wtid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
			mk(int64(r*10+2), activity.Receive, base+3*time.Millisecond, "app", atid, "10.0.0.1", "10.0.0.2", wp, 8009, 80),
			mk(int64(r*10+3), activity.Send, base+4*time.Millisecond, "app", atid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(int64(r*10+4), activity.Receive, base+5*time.Millisecond, "web", wtid, "10.0.0.2", "10.0.0.1", 8009, wp, 300),
			mk(int64(r*10+5), activity.End, base+6*time.Millisecond, "web", wtid, "10.0.0.1", "10.0.0.9", 80, cp, 400),
		)
	}
	return tr
}
