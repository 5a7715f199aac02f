package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Handler serves the observatory over HTTP:
//
//	GET /debug/trace              — Snapshot JSON (slowest / forced)
//	GET /debug/trace?format=agg   — per-shard per-phase bucket counts
//	GET /debug/trace?format=chrome — Chrome trace_event JSON (load into
//	                                 chrome://tracing or Perfetto)
//
// Mount it on the telemetry HTTP server next to /metrics.
func (o *Observatory) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("format") {
		case "", "json":
			writeJSON(w, o.Snapshot())
		case "agg":
			writeJSON(w, o.Agg())
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			writeChromeTrace(w, o.Snapshot())
		default:
			http.Error(w, "unknown format (want json, agg or chrome)", http.StatusBadRequest)
		}
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// chromeEvent is one trace_event entry ("X" complete events; microsecond
// timestamps per the format).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace renders the snapshot's spans as a Chrome trace: one
// process per shard, one thread per worker, one complete event per span
// plus one per recorded phase segment.
func writeChromeTrace(w http.ResponseWriter, snap Snapshot) {
	var evs []chromeEvent
	emit := func(sp SpanJSON) {
		args := map[string]string{"cause": sp.Cause, "op": fmt.Sprint(sp.Op)}
		evs = append(evs, chromeEvent{
			Name: fmt.Sprintf("req %d", sp.ID),
			Ph:   "X",
			Ts:   float64(sp.BeginUnix) / 1e3,
			Dur:  float64(sp.TotalNs) / 1e3,
			Pid:  sp.Shard,
			Tid:  sp.Worker,
			Args: args,
		})
		for _, e := range sp.Events {
			a := map[string]string{}
			if e.Cause != "" {
				a["cause"] = e.Cause
			}
			if e.Attempt > 0 {
				a["attempt"] = fmt.Sprint(e.Attempt)
			}
			evs = append(evs, chromeEvent{
				Name: e.Phase,
				Ph:   "X",
				Ts:   float64(sp.BeginUnix+int64(e.StartNs)) / 1e3,
				Dur:  float64(e.DurNs) / 1e3,
				Pid:  sp.Shard,
				Tid:  sp.Worker,
				Args: a,
			})
		}
	}
	for _, sp := range snap.Slowest {
		emit(sp)
	}
	for _, sp := range snap.Forced {
		emit(sp)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
