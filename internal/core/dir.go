package core

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/activity"
)

// CorrelateDir streams one correlation pass over a directory of per-host
// TCP_TRACE logs (<host>.trace or <host>.trace.gz, as written by
// activity.WriteHostLogs / rubisgen -splitdir; see activity.ListHostLogs).
// The logs are decoded lazily, one lookahead record per host, and merged
// in timestamp order (ties go to the host whose file name sorts first)
// through the same copy-classify-push step as CorrelateTrace, so the
// streaming engine buffers each flow component until it seals: configure
// a seal horizon (Options.SealAfter / SealAfterByHost) to bound that
// buffering on long inputs — with one, memory tracks recently-active
// components instead of the trace size. Use Options.Sinks to also bound
// the output side. Every host closes at the end of the pass.
//
// Record IDs are activity.HostIDBase(i) plus the record's position in the
// i-th log, the IDs activity.ReadHostLogs assigns. The first decode error
// is reported as "core: <host>: line N: …".
//
// If Options.IPToHost is nil the traced-node map is inferred first, by a
// serial pass that decodes every line of every log a second time. That
// pass decodes each line into one reused record (activity.LineReader over
// activity.ParseRecordInto), so on a warm interner it allocates nothing
// per line.
func (c *Correlator) CorrelateDir(dir string) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	hosts, paths, err := activity.ListHostLogs(dir)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	opts := c.opts
	if opts.IPToHost == nil {
		if opts.IPToHost, err = inferTopology(paths); err != nil {
			return nil, err
		}
	}

	logs := make([]hostLog, len(paths))
	defer func() {
		for _, l := range logs {
			if l.r != nil {
				l.r.Close()
			}
		}
	}()
	for i, path := range paths {
		r, err := activity.OpenLog(path)
		if err != nil {
			return nil, err
		}
		logs[i] = hostLog{host: hosts[i], r: r, lines: activity.NewLineReader(r), id: activity.HostIDBase(i)}
		if err := logs[i].next(); err != nil {
			return nil, err
		}
	}

	start := time.Now()
	s := newSession(opts, hosts)
	pushed := 0
	for {
		pick := -1
		for i := range logs {
			if logs[i].ok && (pick < 0 || logs[i].a.Timestamp < logs[pick].a.Timestamp) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		s.replayIngest(&logs[pick].a)
		pushed++
		if err = logs[pick].next(); err != nil {
			break
		}
	}
	res := c.finishReplay(s, pushed, start)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// hostLog is one host's log during CorrelateDir: the open file, its line
// decoder, and the lookahead record the timestamp merge compares.
type hostLog struct {
	host  string
	r     io.ReadCloser
	lines *activity.LineReader
	a     activity.Activity // lookahead; valid while ok
	ok    bool
	id    int64 // the next record's ID
}

// next decodes the log's next record into the lookahead, reporting a
// decode or I/O error under the host's name.
func (l *hostLog) next() error {
	if l.ok = l.lines.Next(&l.a); l.ok {
		l.a.ID = l.id
		l.id++
		return nil
	}
	if err := l.lines.Err(); err != nil {
		return fmt.Errorf("core: %s: %w", l.host, err)
	}
	return nil
}

// inferTopology scans the logs once, building the IP -> host map from
// which node logged which endpoints (activity.NoteIPToHost, the rule of
// activity.InferIPToHost, streaming). Every line decodes into the same
// record: nothing of it outlives the scan but the interned strings the
// map keeps.
func inferTopology(paths []string) (map[string]string, error) {
	m := make(map[string]string)
	var a activity.Activity
	for _, path := range paths {
		r, err := activity.OpenLog(path)
		if err != nil {
			return nil, err
		}
		lines := activity.NewLineReader(r)
		for lines.Next(&a) {
			activity.NoteIPToHost(m, &a)
		}
		err = lines.Err()
		if cerr := r.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("core: infer topology from %s: %w", filepath.Base(path), err)
		}
	}
	return m, nil
}
