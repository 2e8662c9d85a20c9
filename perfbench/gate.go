package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/cag"
	"repro/internal/groundtruth"
)

// digest is a SHA-256 over the sorted cag.Dump texts of a CAG set:
// equal digests mean the same graphs, whatever order they came out in.
func digest(graphs []*cag.Graph) string {
	dumps := make([]string, len(graphs))
	for i, g := range graphs {
		dumps[i] = cag.Dump(g)
	}
	sort.Strings(dumps)
	h := sha256.New()
	for _, d := range dumps {
		h.Write([]byte(d))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fingerprint is a cheap summary of a CAG set, for passes that repeat
// one whose full digest was checked.
type fingerprint struct {
	graphs, vertices int
	latency          time.Duration
}

func fingerprintOf(graphs []*cag.Graph) fingerprint {
	f := fingerprint{graphs: len(graphs)}
	for _, g := range graphs {
		f.vertices += g.Len()
		f.latency += g.Latency()
	}
	return f
}

// gate is the benchmark's correctness check. Every checked CAG set counts
// its ground-truth requests as attempted. A set either matches the
// reference digest of a set the ground truth judged perfect, or is
// judged itself; each missing request and each false-positive CAG counts
// as failed. Operations that return an error count as attempted and
// failed. Any failure or required digest mismatch makes the run
// incorrect.
type gate struct {
	in       *input
	refHash  string
	refPrint fingerprint
	requests int // ground-truth requests in the reference set

	attempted, failed int
	problems          []string
}

func (g *gate) problem(format string, args ...any) {
	g.problems = append(g.problems, fmt.Sprintf(format, args...))
}

// opErr records an operation that returned an error.
func (g *gate) opErr(what string, err error) {
	g.attempted++
	g.failed++
	g.problem("%s: %v", what, err)
}

// check verifies one CAG set and returns its digest.
func (g *gate) check(label string, graphs []*cag.Graph) string {
	h := digest(graphs)
	if g.refHash != "" && h == g.refHash {
		g.attempted += g.requests
		return h
	}
	truth, err := g.in.truth()
	if err != nil {
		g.opErr(label+": ground truth", err)
		return h
	}
	rep := truth.Evaluate(graphs)
	g.attempted += rep.LoggedRequests
	bad := failures(rep)
	g.failed += bad
	if bad > 0 {
		g.problem("%s: %v", label, rep)
	} else if g.refHash == "" {
		g.refHash, g.refPrint, g.requests = h, fingerprintOf(graphs), rep.LoggedRequests
	}
	return h
}

// repeat checks a pass that repeats a fully checked configuration: a set
// whose fingerprint matches the reference's counts as correct, any other
// gets the full check.
func (g *gate) repeat(label string, graphs []*cag.Graph) {
	if g.refHash != "" && fingerprintOf(graphs) == g.refPrint {
		g.attempted += g.requests
		return
	}
	g.check(label, graphs)
}

// failures counts the requests not reconstructed exactly plus the CAGs
// asserting causality that did not exist.
func failures(rep groundtruth.Report) int {
	return rep.MissingPaths + rep.FalsePositives() + rep.DuplicatePaths
}

// same requires two digests of the same input to be equal.
func (g *gate) same(what, a, b string) {
	if a != b {
		g.failed++
		g.problem("%s: CAG digests differ (%.12s vs %.12s)", what, a, b)
	}
}

func (g *gate) ok() bool { return len(g.problems) == 0 }
