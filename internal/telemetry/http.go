package telemetry

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
)

// Mount is an extra route served by the telemetry endpoint next to the
// standard ones — the server uses it to expose /debug/trace (the variance
// observatory) on the same listener as /metrics.
type Mount struct {
	Pattern string
	Handler http.Handler
}

// Handler returns the telemetry endpoint: an http.Handler serving
//
//	/metrics     — Prometheus text exposition of src()
//	/debug/vars  — expvar-shaped JSON: cmdline, memstats and the snapshot
//	/debug/pprof — the standard net/http/pprof profile endpoints
//
// plus any extra mounts. src is called per request; pass Gather for the
// process-wide view or a specific (*Metrics).Snapshot for one component.
func Handler(src func() Snapshot, mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	for _, m := range mounts {
		if m.Pattern != "" && m.Handler != nil {
			mux.Handle(m.Pattern, m.Handler)
		}
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, src())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"cmdline":  os.Args,
			"memstats": ms,
			"gstm":     src(),
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry endpoint: the underlying http.Server plus
// the address it actually bound (which differs from the requested one for
// ":0"). Stop it with Close (immediate) or Shutdown (graceful).
type Server struct {
	srv       *http.Server
	BoundAddr net.Addr

	inflight sync.WaitGroup // open scrapes, for Shutdown's drain
}

// ServeAddr starts the process-wide telemetry endpoint (backed by Gather)
// on addr, with any extra mounts served from the same listener. It is the
// one-call form the -metrics-addr command-line flags use.
func ServeAddr(addr string, mounts ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{BoundAddr: ln.Addr()}
	inner := Handler(Gather, mounts...)
	s.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Done()
		inner.ServeHTTP(w, r)
	})}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close stops the endpoint immediately, dropping in-flight scrapes.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown stops the endpoint gracefully: the listener closes at once (no
// new scrapes), then Shutdown waits for every in-flight scrape to finish
// writing — or for ctx to expire, whichever comes first, in which case the
// remaining connections are dropped and ctx.Err() is returned. Drained
// this way, the port is safe to rebind immediately; tests and the
// gstm serve drain sequence rely on that.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		_ = s.srv.Close()
		return ctx.Err()
	}
}
