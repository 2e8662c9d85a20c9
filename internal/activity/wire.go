package activity

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
)

// The TCP_TRACE wire format, §3.1 of the paper:
//
//	timestamp hostname program_name ProcessID ThreadID SEND/RECEIVE \
//	    sender_ip:port-receiver_ip:port message_size
//
// timestamps are printed as seconds.microseconds of the logging node's local
// clock. Traces produced by the simulated testbed may append an optional
// ground-truth annotation "# req=R msg=M" which real kernels would not emit;
// the parser tolerates its absence.

// FormatTimestamp renders a node-local time as seconds.microseconds.
func FormatTimestamp(ts time.Duration) string {
	micros := ts.Microseconds()
	neg := ""
	if micros < 0 {
		neg = "-"
		micros = -micros
	}
	return fmt.Sprintf("%s%d.%06d", neg, micros/1e6, micros%1e6)
}

// ParseTimestamp parses seconds.microseconds into a duration.
func ParseTimestamp(s string) (time.Duration, error) {
	return parseTimestamp([]byte(s))
}

// parseTimestamp is ParseTimestamp over bytes: the seconds and up to six
// fraction digits (more are checked, then truncated) accumulate in digit
// loops, no padding or copying. A sign after the leading '-' and a value
// that overflows time.Duration are rejected, so every accepted timestamp
// round-trips exactly through FormatTimestamp.
func parseTimestamp(b []byte) (time.Duration, error) {
	neg := len(b) > 0 && b[0] == '-'
	s := b
	if neg {
		s = b[1:]
	}
	sec, frac := s, []byte(nil)
	if i := bytes.IndexByte(s, '.'); i >= 0 {
		sec, frac = s[:i], s[i+1:]
		if len(frac) == 0 {
			return 0, fmt.Errorf("timestamp %q: empty fraction", s)
		}
	}
	// The fraction must be bare digits: a sign ("1.-5" as negative
	// microseconds) or any other byte is an error.
	var micros int64
	for i, c := range frac {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("timestamp %q: non-digit fraction byte %q", s, c)
		}
		if i < 6 {
			micros = micros*10 + int64(c-'0')
		}
	}
	for i := len(frac); i < 6; i++ {
		micros *= 10
	}
	if neg && len(sec) > 0 && (sec[0] == '-' || sec[0] == '+') {
		return 0, fmt.Errorf("timestamp %q: sign after leading '-'", b)
	}
	secs, err := parseInt64(sec)
	if err != nil {
		return 0, fmt.Errorf("timestamp %q: %w", s, err)
	}
	// secs >= 0 here: a '-' is only ever the leading one.
	if secs > (math.MaxInt64-micros*int64(time.Microsecond))/int64(time.Second) {
		return 0, fmt.Errorf("timestamp %q: out of range", b)
	}
	d := time.Duration(secs)*time.Second + time.Duration(micros)*time.Microsecond
	if neg {
		d = -d
	}
	return d, nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string: it
// accepts exactly what ParseInt accepts (an optional sign, then at least
// one decimal digit, within int64) and reports false wherever ParseInt
// would error. Callers that need the error text ask strconv for it on
// that cold path.
func parseInt(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		// Past this bound n*10+d could wrap uint64, and the value is far
		// outside int64 anyway.
		if d > 9 || n > (math.MaxUint64-9)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), n <= 1<<63
	}
	return int64(n), n <= math.MaxInt64
}

// atoi parses a pid, tid or port field; its error is strconv.Atoi's.
func atoi(b []byte) (int, error) {
	if n, ok := parseInt(b); ok {
		return int(n), nil
	}
	return strconv.Atoi(string(b))
}

// atoi32 is atoi for the fields CtxKey packs as int32 (pid, tid): a
// wider value would alias another context's key, so it is rejected.
func atoi32(b []byte) (int, error) {
	n, err := atoi(b)
	if err == nil && n != int(int32(n)) {
		err = errors.New("out of int32 range")
	}
	return n, err
}

// parseInt64 parses a timestamp's seconds, a size or a truth value; its
// error is strconv.ParseInt's.
func parseInt64(b []byte) (int64, error) {
	if n, ok := parseInt(b); ok {
		return n, nil
	}
	return strconv.ParseInt(string(b), 10, 64)
}

// FormatRecord renders an activity as one TCP_TRACE log line. If withTruth
// is true the ground-truth annotation is appended.
func FormatRecord(a *Activity, withTruth bool) string {
	var b strings.Builder
	b.Grow(96)
	b.WriteString(FormatTimestamp(a.Timestamp))
	b.WriteByte(' ')
	b.WriteString(a.Ctx.Host)
	b.WriteByte(' ')
	b.WriteString(a.Ctx.Program)
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(a.Ctx.PID))
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(a.Ctx.TID))
	b.WriteByte(' ')
	b.WriteString(a.Type.String())
	b.WriteByte(' ')
	b.WriteString(a.Chan.Src.IP)
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(a.Chan.Src.Port))
	b.WriteByte('-')
	b.WriteString(a.Chan.Dst.IP)
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(a.Chan.Dst.Port))
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(a.Size, 10))
	if withTruth {
		b.WriteString(" # req=")
		b.WriteString(strconv.FormatInt(a.ReqID, 10))
		b.WriteString(" msg=")
		b.WriteString(strconv.FormatInt(a.MsgID, 10))
	}
	return b.String()
}

// ParseRecord parses one TCP_TRACE log line into a new record (see
// ParseRecordInto).
func ParseRecord(line string) (*Activity, error) {
	a := new(Activity)
	if err := ParseRecordInto(a, []byte(line)); err != nil {
		return nil, err
	}
	return a, nil
}

// ParseRecordInto decodes one TCP_TRACE log line into *a, overwriting
// every field (ID is zero; ReqID and MsgID are -1 without a ground-truth
// annotation). The original TCP_TRACE format only carries SEND/RECEIVE;
// BEGIN/END appear after classification, and round-tripped traces may
// contain them too, so all four types parse.
//
// It is the text codec's allocation-free decode boundary, the sibling of
// DecodeBinaryInto: fields are split and numbers parsed in place over the
// line's bytes, and the identity strings bind through the process-wide
// interner, so once the vocabulary is warm a reused record decodes with
// no allocation. line is not retained. On error *a is zeroed.
func ParseRecordInto(a *Activity, line []byte) error {
	*a = Activity{}
	if err := parseRecord(a, line); err != nil {
		*a = Activity{}
		return err
	}
	return nil
}

func parseRecord(a *Activity, line []byte) error {
	var truth []byte
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line, truth = line[:i], line[i+1:]
	}
	var f [8][]byte
	n := 0
	for i := 0; ; n++ {
		start, end := nextField(line, i)
		if start == end {
			break
		}
		if n < len(f) {
			f[n] = line[start:end]
		}
		i = end
	}
	if n != len(f) {
		return fmt.Errorf("record has %d fields, want 8: %q", n, line)
	}
	var err error
	if a.Timestamp, err = parseTimestamp(f[0]); err != nil {
		return err
	}
	if a.Ctx.PID, err = atoi32(f[3]); err != nil {
		return fmt.Errorf("pid %q: %w", f[3], err)
	}
	if a.Ctx.TID, err = atoi32(f[4]); err != nil {
		return fmt.Errorf("tid %q: %w", f[4], err)
	}
	if a.Type = typeNamed(string(f[5])); a.Type == 0 {
		_, err := ParseType(string(f[5]))
		return err
	}
	i := bytes.IndexByte(f[6], '-')
	if i < 0 {
		return fmt.Errorf("channel %q: missing '-'", f[6])
	}
	srcIP, srcPort, err := parseEndpoint(f[6][:i])
	if err != nil {
		return err
	}
	dstIP, dstPort, err := parseEndpoint(f[6][i+1:])
	if err != nil {
		return err
	}
	if a.Size, err = parseInt64(f[7]); err != nil {
		return fmt.Errorf("size %q: %w", f[7], err)
	}
	a.ReqID, a.MsgID = -1, -1
	if err := parseTruth(truth, a); err != nil {
		return err
	}
	a.Chan.Src.Port, a.Chan.Dst.Port = srcPort, dstPort
	// Decode boundary: bind only a fully valid line, so garbage never
	// reaches the interner. The canonical copies also stop the record
	// from pinning the line's buffer.
	Syms.bindBytes(a, f[1], f[2], srcIP, dstIP)
	return nil
}

// fieldByte marks the ASCII bytes that are field text: all but the white
// space strings.Fields splits on. A byte >= 0x80 is unmarked; whether it
// separates fields depends on the rune it starts (spaceAt).
var fieldByte = func() (t [256]bool) {
	for c := 0; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("\t\n\v\f\r ", rune(c))
	}
	return t
}()

// spaceAt reports whether the rune at b[i] is white space in
// strings.Fields' sense, and its width. A byte >= 0x80 decodes the way
// strings.Fields decodes it: unicode.IsSpace of the rune, and an invalid
// byte is a one-byte non-space rune.
func spaceAt(b []byte, i int) (bool, int) {
	if b[i] < utf8.RuneSelf {
		return !fieldByte[b[i]], 1
	}
	r, w := utf8.DecodeRune(b[i:])
	return unicode.IsSpace(r), w
}

// nextField returns the bounds of the first field in b at or after i,
// split exactly as strings.Fields splits. start == end == len(b) when
// no field remains.
func nextField(b []byte, i int) (start, end int) {
	for i < len(b) {
		sp, w := spaceAt(b, i)
		if !sp {
			break
		}
		i += w
	}
	start = i
	for i < len(b) {
		if fieldByte[b[i]] { // the common case, kept in the loop
			i++
			continue
		}
		sp, w := spaceAt(b, i)
		if sp {
			break
		}
		i += w
	}
	return start, i
}

// parseEndpoint splits ip:port on the LAST colon: IPv6 addresses
// ("2001:db8::1") contain colons themselves, so a first-colon split can
// never parse a v6 endpoint. FormatRecord writes ip:port, so the port is
// always the text after the final colon.
func parseEndpoint(b []byte) (ip []byte, port int, err error) {
	i := bytes.LastIndexByte(b, ':')
	if i < 0 {
		return nil, 0, fmt.Errorf("endpoint %q: missing ':'", b)
	}
	if i == 0 {
		return nil, 0, fmt.Errorf("endpoint %q: empty address", b)
	}
	if port, err = atoi(b[i+1:]); err != nil {
		return nil, 0, fmt.Errorf("endpoint %q: %w", b, err)
	}
	if port < 0 || port > 65535 {
		return nil, 0, fmt.Errorf("endpoint %q: port %d out of range", b, port)
	}
	return b[:i], port, nil
}

// parseTruth applies the testbed's "req=R msg=M" annotation (the text
// after '#') to a.
func parseTruth(b []byte, a *Activity) error {
	for i := 0; ; {
		start, end := nextField(b, i)
		if start == end {
			return nil
		}
		i = end
		kv := b[start:end]
		eq := bytes.IndexByte(kv, '=')
		if eq < 0 {
			return fmt.Errorf("truth annotation %q: missing '='", kv)
		}
		n, err := parseInt64(kv[eq+1:])
		if err != nil {
			return fmt.Errorf("truth annotation %q: %w", kv, err)
		}
		switch string(kv[:eq]) {
		case "req":
			a.ReqID = n
		case "msg":
			a.MsgID = n
		default:
			return fmt.Errorf("truth annotation: unknown key %q", kv[:eq])
		}
	}
}

// Writer emits TCP_TRACE log lines to an io.Writer.
type Writer struct {
	w         *bufio.Writer
	withTruth bool
	count     int64
}

// NewWriter returns a Writer. If withTruth is set, the testbed's
// ground-truth annotations are included so accuracy can be checked after a
// round trip through the wire format.
func NewWriter(w io.Writer, withTruth bool) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), withTruth: withTruth}
}

// Write emits one record. The record counts as written only once the
// whole line, trailing newline included, was accepted — a short write
// must not leave Count() claiming a record the sink never got.
func (w *Writer) Write(a *Activity) error {
	if _, err := w.w.WriteString(FormatRecord(a, w.withTruth)); err != nil {
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() int64 { return w.count }

// Flush flushes the underlying buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// LineReader decodes a TCP_TRACE log one record at a time, skipping
// blank lines and "//" comment lines. It is the one line loop under
// ReadAll and the correlator's directory pass and topology scan: each
// line is decoded in place from the scanner's buffer by ParseRecordInto,
// so a caller reusing one record allocates nothing per line.
type LineReader struct {
	sc     *bufio.Scanner
	lineNo int
	err    error
}

// NewLineReader returns a LineReader over r.
func NewLineReader(r io.Reader) *LineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &LineReader{sc: sc}
}

// Next decodes the next record into *a. It returns false at the end of
// the input or on the first error, which Err then reports; a decode error
// names its 1-based line number.
func (r *LineReader) Next(a *Activity) bool {
	if r.err != nil {
		return false
	}
	for r.sc.Scan() {
		r.lineNo++
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 || bytes.HasPrefix(line, []byte("//")) {
			continue
		}
		if err := ParseRecordInto(a, line); err != nil {
			r.err = fmt.Errorf("line %d: %w", r.lineNo, err)
			return false
		}
		return true
	}
	r.err = r.sc.Err()
	return false
}

// Err returns the first decode or I/O error Next met, or nil.
func (r *LineReader) Err() error { return r.err }

// ReadAll parses every record from r, assigning sequential IDs.
func ReadAll(r io.Reader) ([]*Activity, error) {
	lr := NewLineReader(r)
	var out []*Activity
	for {
		a := new(Activity)
		if !lr.Next(a) {
			break
		}
		a.ID = int64(len(out))
		out = append(out, a)
	}
	if err := lr.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
