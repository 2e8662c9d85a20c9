package activity

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// The string-based TCP_TRACE parser ParseRecordInto replaced, kept as the
// differential oracle of FuzzParseRecordInto. It carries the decoder's two
// intended behaviour changes — timestamps with a sign after the leading
// '-' or a time.Duration overflow are rejected, and so are pids and tids
// outside int32 — and is otherwise the original.

func oracleParseRecord(line string) (*Activity, error) {
	truth := ""
	if i := strings.IndexByte(line, '#'); i >= 0 {
		truth = strings.TrimSpace(line[i+1:])
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) != 8 {
		return nil, fmt.Errorf("record has %d fields, want 8: %q", len(fields), line)
	}
	ts, err := oracleParseTimestamp(fields[0])
	if err != nil {
		return nil, err
	}
	pid, err := strconv.Atoi(fields[3])
	if err == nil && pid != int(int32(pid)) {
		err = fmt.Errorf("out of int32 range")
	}
	if err != nil {
		return nil, fmt.Errorf("pid %q: %w", fields[3], err)
	}
	tid, err := strconv.Atoi(fields[4])
	if err == nil && tid != int(int32(tid)) {
		err = fmt.Errorf("out of int32 range")
	}
	if err != nil {
		return nil, fmt.Errorf("tid %q: %w", fields[4], err)
	}
	typ, err := ParseType(fields[5])
	if err != nil {
		return nil, err
	}
	ch, err := oracleParseChannel(fields[6])
	if err != nil {
		return nil, err
	}
	size, err := strconv.ParseInt(fields[7], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("size %q: %w", fields[7], err)
	}
	a := &Activity{
		Type:      typ,
		Timestamp: ts,
		Ctx:       Context{Host: fields[1], Program: fields[2], PID: pid, TID: tid},
		Chan:      ch,
		Size:      size,
		ReqID:     -1,
		MsgID:     -1,
	}
	if truth != "" {
		if err := oracleParseTruth(truth, a); err != nil {
			return nil, err
		}
	}
	Bind(a)
	return a, nil
}

func oracleParseTimestamp(s string) (time.Duration, error) {
	orig := s
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	sec, frac, ok := strings.Cut(s, ".")
	if !ok {
		frac = "0"
	} else if frac == "" {
		return 0, fmt.Errorf("timestamp %q: empty fraction", s)
	}
	for i := 0; i < len(frac); i++ {
		if frac[i] < '0' || frac[i] > '9' {
			return 0, fmt.Errorf("timestamp %q: non-digit fraction byte %q", s, frac[i])
		}
	}
	if neg && (strings.HasPrefix(sec, "-") || strings.HasPrefix(sec, "+")) {
		return 0, fmt.Errorf("timestamp %q: sign after leading '-'", orig)
	}
	secs, err := strconv.ParseInt(sec, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	for len(frac) < 6 {
		frac += "0"
	}
	if len(frac) > 6 {
		frac = frac[:6]
	}
	micros, err := strconv.ParseInt(frac, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	if secs > (math.MaxInt64-micros*int64(time.Microsecond))/int64(time.Second) {
		return 0, fmt.Errorf("timestamp %q: out of range", orig)
	}
	d := time.Duration(secs)*time.Second + time.Duration(micros)*time.Microsecond
	if neg {
		d = -d
	}
	return d, nil
}

func oracleParseChannel(s string) (Channel, error) {
	src, dst, ok := strings.Cut(s, "-")
	if !ok {
		return Channel{}, fmt.Errorf("channel %q: missing '-'", s)
	}
	se, err := oracleParseEndpoint(src)
	if err != nil {
		return Channel{}, err
	}
	de, err := oracleParseEndpoint(dst)
	if err != nil {
		return Channel{}, err
	}
	return Channel{Src: se, Dst: de}, nil
}

func oracleParseEndpoint(s string) (Endpoint, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return Endpoint{}, fmt.Errorf("endpoint %q: missing ':'", s)
	}
	ip, portStr := s[:i], s[i+1:]
	if ip == "" {
		return Endpoint{}, fmt.Errorf("endpoint %q: empty address", s)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return Endpoint{}, fmt.Errorf("endpoint %q: %w", s, err)
	}
	if port < 0 || port > 65535 {
		return Endpoint{}, fmt.Errorf("endpoint %q: port %d out of range", s, port)
	}
	return Endpoint{IP: ip, Port: port}, nil
}

func oracleParseTruth(s string, a *Activity) error {
	for _, kv := range strings.Fields(s) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("truth annotation %q: missing '='", kv)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("truth annotation %q: %w", kv, err)
		}
		switch k {
		case "req":
			a.ReqID = n
		case "msg":
			a.MsgID = n
		default:
			return fmt.Errorf("truth annotation: unknown key %q", k)
		}
	}
	return nil
}
