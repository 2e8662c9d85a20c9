package activity

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func hostLogs() map[string][]*Activity {
	mk := func(host string, n int) []*Activity {
		var out []*Activity
		for i := 0; i < n; i++ {
			out = append(out, &Activity{
				Type:      Send,
				Timestamp: time.Duration(i) * time.Millisecond,
				Ctx:       Context{Host: host, Program: "p", PID: 1, TID: 1},
				Chan: Channel{Src: Endpoint{IP: "10.0.0.1", Port: 1000 + i},
					Dst: Endpoint{IP: "10.0.0.2", Port: 80}},
				Size:  int64(10 + i),
				ReqID: int64(i), MsgID: int64(i),
			})
		}
		return out
	}
	return map[string][]*Activity{"web1": mk("web1", 5), "app1": mk("app1", 3)}
}

func TestHostLogsRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		in := hostLogs()
		if err := WriteHostLogs(dir, in, true, gz); err != nil {
			t.Fatal(err)
		}
		out, err := ReadHostLogs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || len(out["web1"]) != 5 || len(out["app1"]) != 3 {
			t.Fatalf("gz=%v: round trip lost records: %d hosts", gz, len(out))
		}
		for host, log := range out {
			for i, a := range log {
				want := in[host][i]
				if a.Timestamp != want.Timestamp || a.Chan != want.Chan || a.ReqID != want.ReqID {
					t.Fatalf("gz=%v %s[%d]: %v != %v", gz, host, i, a, want)
				}
			}
		}
		// Global IDs must be unique across hosts.
		seen := map[int64]bool{}
		for _, a := range Merge(out) {
			if seen[a.ID] {
				t.Fatalf("duplicate record ID %d", a.ID)
			}
			seen[a.ID] = true
		}
	}
}

func TestHostLogNames(t *testing.T) {
	if HostLogName("web1", false) != "web1.trace" || HostLogName("web1", true) != "web1.trace.gz" {
		t.Fatal("log naming")
	}
}

func TestReadHostLogsEmptyDir(t *testing.T) {
	if _, err := ReadHostLogs(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestMergeOrdersHosts(t *testing.T) {
	merged := Merge(hostLogs())
	if len(merged) != 8 {
		t.Fatalf("merged = %d", len(merged))
	}
	// app1 sorts before web1.
	if merged[0].Ctx.Host != "app1" || merged[len(merged)-1].Ctx.Host != "web1" {
		t.Fatal("merge order wrong")
	}
}

// TestListHostLogs: the one naming rule — <host>.trace and
// <host>.trace.gz files in file-name order, everything else skipped.
func TestListHostLogs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"web1.trace", "db1.trace.gz", "notes.txt", "app1.trace", "old.trace.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.trace"), 0o755); err != nil {
		t.Fatal(err)
	}
	hosts, paths, err := ListHostLogs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantHosts := []string{"app1", "db1", "web1"}
	wantPaths := []string{
		filepath.Join(dir, "app1.trace"),
		filepath.Join(dir, "db1.trace.gz"),
		filepath.Join(dir, "web1.trace"),
	}
	if !slices.Equal(hosts, wantHosts) || !slices.Equal(paths, wantPaths) {
		t.Fatalf("ListHostLogs = %q, %q; want %q, %q", hosts, paths, wantHosts, wantPaths)
	}
	if _, _, err := ListHostLogs(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no .trace files") {
		t.Fatalf("empty dir: err = %v", err)
	}
}
