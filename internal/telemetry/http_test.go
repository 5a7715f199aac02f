package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestHandlerEndpoints(t *testing.T) {
	m := NewDetached("test")
	m.TxStart(0)
	m.TxCommit(0)
	m.ObserveCommit(1000, 0, false)

	srv := httptest.NewServer(Handler(m.Snapshot))
	defer srv.Close()

	code, body, ctype := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Fatalf("/metrics content-type = %q", ctype)
	}
	if !strings.Contains(body, "gstm_tx_commits_total 1") {
		t.Fatalf("/metrics body missing commit counter:\n%s", body)
	}

	code, body, ctype = get(t, srv.URL+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", code)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Fatalf("/debug/vars content-type = %q", ctype)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	for _, key := range []string{"cmdline", "memstats", "gstm"} {
		if _, ok := vars[key]; !ok {
			t.Fatalf("/debug/vars missing %q", key)
		}
	}
	var snap Snapshot
	if err := json.Unmarshal(vars["gstm"], &snap); err != nil {
		t.Fatalf("/debug/vars gstm not a Snapshot: %v", err)
	}
	if snap.Commits != 1 {
		t.Fatalf("/debug/vars gstm commits = %d", snap.Commits)
	}

	code, body, _ = get(t, srv.URL+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status = %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	srv, err := ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.BoundAddr
	if !strings.Contains(addr.String(), ":") || strings.HasSuffix(addr.String(), ":0") {
		t.Fatalf("bound addr = %q, want a real port", addr)
	}
	code, body, _ := get(t, "http://"+addr.String()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "gstm_tx_commits_total ") {
		t.Fatalf("scrape via ServeAddr failed: %d\n%s", code, body)
	}
	// A component's own snapshot through the same handler.
	m := NewDetached("test")
	m.TxCommit(0)
	rec := httptest.NewRecorder()
	Handler(m.Snapshot).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "gstm_tx_commits_total 1") {
		t.Fatalf("scrape via Handler failed: %d\n%s", rec.Code, rec.Body.String())
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := ServeAddr("256.0.0.1:bad"); err == nil {
		t.Fatal("want listen error")
	}
}

// TestServerShutdownDrains scrapes the process-wide endpoint, shuts it
// down gracefully, and checks the exact port is immediately rebindable —
// the test-order-dependent flake the Close-only API risked.
func TestServerShutdownDrains(t *testing.T) {
	s, err := ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if code, _, _ := get(t, "http://"+s.BoundAddr.String()+"/metrics"); code != http.StatusOK {
		t.Fatalf("scrape before shutdown: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// After shutdown new scrapes must fail...
	if _, err := http.Get("http://" + s.BoundAddr.String() + "/metrics"); err == nil {
		t.Fatal("scrape succeeded after Shutdown")
	}
	// ...and the drained port is free to rebind at once.
	s2, err := ServeAddr(s.BoundAddr.String())
	if err != nil {
		t.Fatalf("rebind %s after Shutdown: %v", s.BoundAddr, err)
	}
	_ = s2.Close()
}

// TestServerShutdownExpiredContext: a context that expires mid-drain makes
// Shutdown return its error rather than hanging.
func TestServerShutdownExpiredContext(t *testing.T) {
	s, err := ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("Shutdown with expired context returned nil")
	}
}
