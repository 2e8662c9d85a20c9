package activity

import (
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The real deployment collects one TCP_TRACE log per node and ships them to
// the correlator (Fig. 2). These helpers store traces the same way: one
// file per host named <host>.trace (optionally .gz), with the standard wire
// format inside.

// HostLogName returns the file name for a host's log.
func HostLogName(host string, gz bool) string {
	if gz {
		return host + ".trace.gz"
	}
	return host + ".trace"
}

// WriteHostLogs writes one log file per host into dir.
func WriteHostLogs(dir string, perHost map[string][]*Activity, withTruth, gz bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	hosts := make([]string, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if err := writeHostLog(filepath.Join(dir, HostLogName(host, gz)), perHost[host], withTruth, gz); err != nil {
			return fmt.Errorf("host %s: %w", host, err)
		}
	}
	return nil
}

func writeHostLog(path string, log []*Activity, withTruth, gz bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var sink io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		sink = zw
	}
	w := NewWriter(sink, withTruth)
	for _, a := range log {
		if err := w.Write(a); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// HostIDBase returns the record-ID base for the i-th host (host-sorted
// order): each host owns a disjoint ID space so that lazy streaming readers
// and whole-file readers assign identical IDs regardless of interleaving.
func HostIDBase(i int) int64 { return int64(i) << 40 }

// ReadHostLogs loads every *.trace / *.trace.gz file in dir, returning the
// per-host logs keyed by the host name encoded in the file name. Record IDs
// are HostIDBase(hostIndex) + line, matching what FileSource-based
// streaming assigns, so ground-truth checking is consistent across both
// read paths.
func ReadHostLogs(dir string) (map[string][]*Activity, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, ".trace") || strings.HasSuffix(n, ".trace.gz") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .trace files in %s", dir)
	}
	out := make(map[string][]*Activity, len(names))
	for i, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		log, _, err := readLog(filepath.Join(dir, name), HostIDBase(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[host] = log
	}
	return out, nil
}

func readLog(path string, idBase int64) ([]*Activity, int64, error) {
	r, err := OpenLog(path)
	if err != nil {
		return nil, idBase, err
	}
	defer r.Close()
	as, err := ReadAll(r)
	if err != nil {
		return nil, idBase, err
	}
	for _, a := range as {
		a.ID = idBase
		idBase++
	}
	return as, idBase, nil
}

// OpenLog opens one host log for reading, decompressing it when the name
// ends in .gz. Closing the returned reader closes the file too.
func OpenLog(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return gzipFile{zr, f}, nil
}

// gzipFile is a gzip stream over an open file; Close closes both.
type gzipFile struct {
	*gzip.Reader
	f *os.File
}

func (g gzipFile) Close() error {
	zerr := g.Reader.Close()
	if ferr := g.f.Close(); zerr == nil {
		zerr = ferr
	}
	return zerr
}

// Merge flattens per-host logs into one slice (host-sorted order).
func Merge(perHost map[string][]*Activity) []*Activity {
	hosts := make([]string, 0, len(perHost))
	total := 0
	for h, log := range perHost {
		hosts = append(hosts, h)
		total += len(log)
	}
	sort.Strings(hosts)
	out := make([]*Activity, 0, total)
	for _, h := range hosts {
		out = append(out, perHost[h]...)
	}
	return out
}

// FileSource lazily parses one host's log so the ranker can stream from
// disk without materialising the trace in memory. It satisfies the ranker's
// Source interface structurally (Host/Peek/Pop).
type FileSource struct {
	host   string
	r      io.ReadCloser
	lines  *LineReader
	next   *Activity
	idNext *int64
}

// OpenFileSource opens a host log (plain or gzip). ids, when non-nil, is a
// shared counter used to assign unique record IDs across sources.
func OpenFileSource(host, path string, ids *int64) (*FileSource, error) {
	r, err := OpenLog(path)
	if err != nil {
		return nil, err
	}
	s := &FileSource{host: host, r: r, lines: NewLineReader(r), idNext: ids}
	s.advance()
	return s, nil
}

// Host implements the Source contract.
func (s *FileSource) Host() string { return s.host }

// Peek implements the Source contract.
func (s *FileSource) Peek() *Activity { return s.next }

// Pop implements the Source contract.
func (s *FileSource) Pop() *Activity {
	a := s.next
	if a != nil {
		s.advance()
	}
	return a
}

// Err returns the first parse or I/O error encountered; a parse error
// names its line.
func (s *FileSource) Err() error { return s.lines.Err() }

// Close releases the underlying files.
func (s *FileSource) Close() error {
	if s.r == nil {
		return nil
	}
	err := s.r.Close()
	s.r = nil
	return err
}

// advance decodes the next record into a fresh one: Pop hands records
// over to the consumer, which keeps them.
func (s *FileSource) advance() {
	a := new(Activity)
	if !s.lines.Next(a) {
		s.next = nil
		return
	}
	if s.idNext != nil {
		a.ID = *s.idNext
		*s.idNext++
	}
	s.next = a
}

// openAppend opens a file for appending (test helper exported within the
// package).
func openAppend(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
}
