package activity

import (
	"reflect"
	"testing"
)

// FuzzParseRecord: the wire parser must never panic and must round-trip
// whatever it accepts.
func FuzzParseRecord(f *testing.F) {
	f.Add("12.345678 node1 httpd 2301 2301 SEND 10.0.0.1:80-10.0.0.9:3321 512")
	f.Add("0.000001 n p 1 2 RECEIVE 1.2.3.4:5-6.7.8.9:10 1 # req=3 msg=4")
	f.Add("")
	f.Add("garbage")
	f.Add("-1.5 h p 0 0 BEGIN a:1-b:2 0")
	f.Fuzz(func(t *testing.T, line string) {
		a, err := ParseRecord(line)
		if err != nil {
			return
		}
		// Accepted records must re-format and re-parse to the same fields.
		back, err := ParseRecord(FormatRecord(a, true))
		if err != nil {
			t.Fatalf("accepted %q but round trip failed: %v", line, err)
		}
		if back.Type != a.Type || back.Ctx != a.Ctx || back.Chan != a.Chan || back.Size != a.Size {
			t.Fatalf("round trip mutated record: %v vs %v", a, back)
		}
	})
}

// FuzzParseTimestamp: must never panic, and every accepted timestamp
// round-trips exactly: parsing keeps at most microseconds, which is what
// FormatTimestamp prints, and an overflowing value is rejected rather
// than wrapped.
func FuzzParseTimestamp(f *testing.F) {
	f.Add("12.345678")
	f.Add("-0.000001")
	f.Add("999999999")
	f.Add("9223372036.854775")
	f.Add("9223372037.000000")
	f.Add("--1.5")
	f.Add("+1.1234567")
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseTimestamp(s)
		if err != nil {
			return
		}
		back, err := ParseTimestamp(FormatTimestamp(d))
		if err != nil {
			t.Fatalf("accepted %q as %v, but its format %q fails: %v", s, d, FormatTimestamp(d), err)
		}
		if back != d {
			t.Fatalf("accepted %q as %v, but %q parses back as %v", s, d, FormatTimestamp(d), back)
		}
	})
}

// FuzzParseRecordInto: the byte-level decoder against the string-based
// parser it replaced (oracle_test.go) — same accept/reject, same error
// text, same record — decoding into a reused record whose previous
// contents must not leak into the next line.
func FuzzParseRecordInto(f *testing.F) {
	f.Add("12.345678 node1 httpd 2301 2301 SEND 10.0.0.1:80-10.0.0.9:3321 512")
	f.Add("0.000001 n p 1 2 RECEIVE 1.2.3.4:5-6.7.8.9:10 1 # req=3 msg=4")
	f.Add("-1.5 h p 0 0 BEGIN a:1-b:2 0 #")
	f.Add("1 h\u00a0x p -7 +8 END ::1:80-fe80::2:65535 +9 #req=-1  msg=+2 req=5")
	f.Add("1\u2003h p 1 1 SEND a:1-b:2 3\u0085")
	f.Add("1\x85h p 1 1 SEND a:1-b:2 3\xe2")
	f.Add("1 h\xff p 1 1 SEND a:1-b:2 3 # req=1#")
	f.Add("--1.5 h p 1 1 SEND a:1-b:2 3")
	f.Add("9223372037.000000 h p 1 1 SEND a:1-b:2 3")
	f.Add("1 h p 99999999999 1 SEND a:1-b:2 3")
	f.Add("1 h p 1 1 SEND a:1-b:99999999999999999999 3 # msg=9223372036854775808")
	f.Add("1 h p 1 1 SEND a:1-b:2 3 # foo=1")
	f.Add("1 h p 1 1 SEND a:1-b:2 3 extra")
	f.Add("")
	f.Fuzz(func(t *testing.T, line string) {
		want, werr := oracleParseRecord(line)
		a := Activity{ID: 99, ReqID: 7, CtxK: CtxKey{Host: 1}} // stale contents
		err := ParseRecordInto(&a, []byte(line))
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: ParseRecordInto err = %v, oracle err = %v", line, err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("%q: error text differs:\n got %s\nwant %s", line, err, werr)
			}
			if a != (Activity{}) {
				t.Fatalf("%q: rejected line left %+v in the record", line, a)
			}
			return
		}
		if !reflect.DeepEqual(&a, want) {
			t.Fatalf("%q: decoded record differs:\n got %+v\nwant %+v", line, a, *want)
		}
	})
}
