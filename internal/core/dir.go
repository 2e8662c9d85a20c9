package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/activity"
	"repro/internal/ranker"
)

// classifySource wraps a lazy source and applies the §3.1 BEGIN/END
// transformation as records stream out, so directory correlation never
// materialises a whole trace.
type classifySource struct {
	src interface {
		Host() string
		Peek() *activity.Activity
		Pop() *activity.Activity
	}
	cls  *activity.Classifier
	next *activity.Activity
}

func (s *classifySource) fill() {
	if s.next == nil {
		if a := s.src.Pop(); a != nil {
			a.Type = s.cls.Classify(a)
			s.next = a
		}
	}
}

// Host implements ranker.Source.
func (s *classifySource) Host() string { return s.src.Host() }

// Peek implements ranker.Source.
func (s *classifySource) Peek() *activity.Activity {
	s.fill()
	return s.next
}

// Pop implements ranker.Source.
func (s *classifySource) Pop() *activity.Activity {
	s.fill()
	a := s.next
	s.next = nil
	return a
}

// CorrelateDir streams one correlation pass over a directory of per-host
// TCP_TRACE logs (<host>.trace or <host>.trace.gz, as written by
// activity.WriteHostLogs / rubisgen -splitdir). The logs are decoded
// lazily and replayed through the streaming engine (see CorrelateSources),
// which buffers each flow component until it seals: configure a seal
// horizon (Options.SealAfter / SealAfterByHost) to bound that buffering on
// long inputs — with one, memory tracks recently-active components instead
// of the trace size. Use Options.Sinks to also bound the output side.
//
// If Options.IPToHost is nil the traced-node map is inferred with a cheap
// first pass over the logs.
func (c *Correlator) CorrelateDir(dir string) (*Result, error) {
	if len(c.opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".trace") || strings.HasSuffix(e.Name(), ".trace.gz") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no .trace files in %s", dir)
	}

	opts := c.opts
	if opts.IPToHost == nil {
		m, err := inferTopology(dir, names)
		if err != nil {
			return nil, err
		}
		opts.IPToHost = m
	}

	cls := activity.NewClassifier(opts.EntryPorts...)
	counters := make([]int64, len(names))
	var sources []ranker.Source
	var files []*activity.FileSource
	for i, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		counters[i] = activity.HostIDBase(i)
		fs, err := activity.OpenFileSource(host, filepath.Join(dir, name), &counters[i])
		if err != nil {
			closeAll(files)
			return nil, err
		}
		files = append(files, fs)
		sources = append(sources, &classifySource{src: fs, cls: cls})
	}
	defer closeAll(files)

	sub := New(opts)
	res, err := sub.CorrelateSources(sources, 0)
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range counters {
		total += int(counters[i] - activity.HostIDBase(i))
	}
	res.Activities = total
	for _, fs := range files {
		if ferr := fs.Err(); ferr != nil {
			return nil, fmt.Errorf("core: %s: %w", fs.Host(), ferr)
		}
	}
	return res, nil
}

func closeAll(files []*activity.FileSource) {
	for _, f := range files {
		_ = f.Close()
	}
}

// inferTopology scans the logs once, building the IP -> host map from
// which node logged which endpoints (activity.InferIPToHost, streaming).
func inferTopology(dir string, names []string) (map[string]string, error) {
	m := make(map[string]string)
	for _, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		fs, err := activity.OpenFileSource(host, filepath.Join(dir, name), nil)
		if err != nil {
			return nil, err
		}
		for {
			a := fs.Pop()
			if a == nil {
				break
			}
			switch a.Type {
			case activity.Send, activity.End:
				m[a.Chan.Src.IP] = a.Ctx.Host
			case activity.Receive, activity.Begin:
				m[a.Chan.Dst.IP] = a.Ctx.Host
			case activity.MaxType:
			}
		}
		err = fs.Err()
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("core: infer topology from %s: %w", name, err)
		}
	}
	return m, nil
}
