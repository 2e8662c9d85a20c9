package activity

import (
	"bytes"
	"testing"
	"time"
)

func binSample() *Activity {
	return &Activity{
		ID:        42,
		Type:      Receive,
		Timestamp: 12*time.Second + 345678901*time.Nanosecond, // sub-µs: binary keeps it
		Ctx:       Context{Host: "web1", Program: "httpd", PID: 2301, TID: 2304},
		Chan: Channel{
			Src: Endpoint{IP: "2001:db8::1", Port: 33210},
			Dst: Endpoint{IP: "10.0.0.1", Port: 80},
		},
		Size:  512,
		ReqID: 7,
		MsgID: 13,
	}
}

// boundSample is binSample with the dense keys filled — what DecodeBinary
// emits, since the binary codec binds at the decode boundary.
func boundSample() *Activity {
	a := binSample()
	Bind(a)
	return a
}

func TestBinaryRoundTrip(t *testing.T) {
	a := boundSample()
	buf := AppendBinary(nil, a)
	got, n, err := DecodeBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d bytes", n, len(buf))
	}
	if *got != *a {
		t.Fatalf("round trip mutated record:\n in: %+v\nout: %+v", a, got)
	}
}

// TestBinaryStream: records concatenate and decode back in order — the
// shape a transport batch frame carries.
func TestBinaryStream(t *testing.T) {
	var recs []*Activity
	var buf []byte
	for i := 0; i < 10; i++ {
		a := boundSample()
		a.ID = int64(i)
		a.Timestamp += time.Duration(i) * time.Millisecond
		recs = append(recs, a)
		buf = AppendBinary(buf, a)
	}
	for i := 0; len(buf) > 0; i++ {
		got, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if *got != *recs[i] {
			t.Fatalf("record %d mutated", i)
		}
		buf = buf[n:]
	}
}

// TestBinaryDecodeMalformed: truncations and corruptions error cleanly.
func TestBinaryDecodeMalformed(t *testing.T) {
	full := AppendBinary(nil, binSample())
	// Every strict prefix is truncated and must error (the encoding has
	// no trailing optional part).
	for i := 0; i < len(full); i++ {
		if _, _, err := DecodeBinary(full[:i]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", i)
		}
	}
	// Bad type tag.
	bad := bytes.Clone(full)
	bad[0] = 99
	if _, _, err := DecodeBinary(bad); err == nil {
		t.Fatal("bad type tag accepted")
	}
	// String length running past the buffer.
	if _, _, err := DecodeBinary([]byte{byte(Send), 0, 0xff, 0xff, 0x03}); err == nil {
		t.Fatal("oversized string length accepted")
	}
	if _, _, err := DecodeBinary(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

// FuzzBinaryRoundTrip: decode(encode(x)) == x for arbitrary field values.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint8(2), int64(12345), "web1", "httpd", 10, 11, "10.0.0.1", uint16(80), "2001:db8::1", uint16(3306), int64(512), int64(1), int64(-1), int64(-1))
	f.Add(uint8(4), int64(-1), "", "", -1, 0, "", uint16(0), "::", uint16(65535), int64(0), int64(-9), int64(7), int64(13))
	f.Fuzz(func(t *testing.T, typ uint8, ts int64, host, prog string, pid, tid int,
		srcIP string, srcPort uint16, dstIP string, dstPort uint16, size, id, req, msg int64) {
		if typ < uint8(Begin) || typ > uint8(Receive) {
			return
		}
		if len(host) > maxBinaryString || len(prog) > maxBinaryString ||
			len(srcIP) > maxBinaryString || len(dstIP) > maxBinaryString {
			return
		}
		if pid != int(int32(pid)) || tid != int(int32(tid)) {
			return // rejected by design: see TestBinaryDecodePIDRange
		}
		a := &Activity{
			ID: id, Type: Type(typ), Timestamp: time.Duration(ts),
			Ctx: Context{Host: host, Program: prog, PID: pid, TID: tid},
			Chan: Channel{
				Src: Endpoint{IP: srcIP, Port: int(srcPort)},
				Dst: Endpoint{IP: dstIP, Port: int(dstPort)},
			},
			Size: size, ReqID: req, MsgID: msg,
		}
		buf := AppendBinary(nil, a)
		Bind(a) // decode emits bound records; bind the expectation too
		got, n, err := DecodeBinary(buf)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if *got != *a {
			t.Fatalf("round trip mutated record:\n in: %+v\nout: %+v", a, got)
		}
	})
}

// FuzzBinaryDecode: arbitrary bytes never panic; whatever decodes must
// re-encode and re-decode to the same record (the codec's fixed point).
func FuzzBinaryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(AppendBinary(nil, binSample()))
	f.Fuzz(func(t *testing.T, buf []byte) {
		a, n, err := DecodeBinary(buf)
		if err != nil {
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if int(a.CtxK.PID) != a.Ctx.PID || int(a.CtxK.TID) != a.Ctx.TID {
			t.Fatalf("context key truncated pid/tid: Ctx %+v, CtxK %+v", a.Ctx, a.CtxK)
		}
		back, _, err := DecodeBinary(AppendBinary(nil, a))
		if err != nil {
			t.Fatalf("re-decode of accepted record failed: %v", err)
		}
		if *back != *a {
			t.Fatalf("accepted record not a fixed point:\n in: %+v\nout: %+v", a, back)
		}
	})
}

// TestBinaryDecodePIDRange: CtxKey packs pid and tid as int32, so a wider
// value on the wire must be rejected — decoded, it would share a context
// key with the pid it truncates to while its Ctx differs.
func TestBinaryDecodePIDRange(t *testing.T) {
	for _, c := range []struct{ pid, tid int }{
		{99999999999, 1}, {1, 99999999999}, {1 << 31, 1}, {1, -1<<31 - 1},
	} {
		a := binSample()
		a.Ctx.PID, a.Ctx.TID = c.pid, c.tid
		if got, _, err := DecodeBinary(AppendBinary(nil, a)); err == nil {
			t.Errorf("pid %d tid %d decoded as %+v, want error", c.pid, c.tid, got.CtxK)
		}
	}
	a := binSample()
	a.Ctx.PID, a.Ctx.TID = 1<<31-1, -1<<31
	got, _, err := DecodeBinary(AppendBinary(nil, a))
	if err != nil {
		t.Fatalf("int32 extremes rejected: %v", err)
	}
	if got.Ctx.PID != 1<<31-1 || got.CtxK.TID != -1<<31 {
		t.Fatalf("int32 extremes mangled: %+v %+v", got.Ctx, got.CtxK)
	}
}
