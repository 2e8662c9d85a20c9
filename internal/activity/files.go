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

// ListHostLogs lists the per-host logs in dir: every <host>.trace and
// <host>.trace.gz file, in file-name order, as the host each file names
// and its path. It is the one on-disk naming rule; the i-th log's record
// IDs start at HostIDBase(i).
func ListHostLogs(dir string) (hosts, paths []string, err error) {
	entries, err := os.ReadDir(dir) // sorted by file name
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !(strings.HasSuffix(n, ".trace") || strings.HasSuffix(n, ".trace.gz")) {
			continue
		}
		hosts = append(hosts, strings.TrimSuffix(strings.TrimSuffix(n, ".gz"), ".trace"))
		paths = append(paths, filepath.Join(dir, n))
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no .trace files in %s", dir)
	}
	return hosts, paths, nil
}

// ReadHostLogs loads every host log in dir (see ListHostLogs), returning
// the per-host logs keyed by host name. Record IDs are
// HostIDBase(hostIndex) + line, the IDs core.Correlator.CorrelateDir
// assigns, so ground-truth checking is consistent across both read paths.
func ReadHostLogs(dir string) (map[string][]*Activity, error) {
	hosts, paths, err := ListHostLogs(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*Activity, len(paths))
	for i, path := range paths {
		log, err := readLog(path, HostIDBase(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		out[hosts[i]] = log
	}
	return out, nil
}

func readLog(path string, idBase int64) ([]*Activity, error) {
	r, err := OpenLog(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	as, err := ReadAll(r)
	if err != nil {
		return nil, err
	}
	for i, a := range as {
		a.ID = idBase + int64(i)
	}
	return as, nil
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
