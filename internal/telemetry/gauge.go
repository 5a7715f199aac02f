package telemetry

import (
	"sort"
	"sync"
)

// Gauges are point-in-time readings (queue depths, backlogs) sampled at
// scrape time rather than counted on a hot path: a component registers a
// closure and the exporter calls it during Gather. Unlike Counters they
// are not owned by a Metrics — a gauge usually spans one (a shard WAL's
// queue depth belongs to the log, not the shard's engine) — so they live in
// their own process-wide registry keyed by (name, component).

// GaugeSample is one evaluated gauge reading.
type GaugeSample struct {
	Name      string  `json:"name"`
	Component string  `json:"component,omitempty"`
	Value     float64 `json:"value"`
}

type gaugeEntry struct {
	name      string
	component string
	fn        func() float64
}

var gaugeReg struct {
	mu   sync.Mutex
	seq  int
	list map[int]gaugeEntry
}

// RegisterGauge registers a scrape-time gauge under a Prometheus-style
// name (e.g. "gstm_wal_queue_depth") with an optional component label.
// fn is called on every Gather and must be safe for concurrent use. The
// returned function unregisters the gauge; components with bounded
// lifetimes (a server under test) must call it on shutdown or their dead
// closures keep being scraped.
func RegisterGauge(name, component string, fn func() float64) (unregister func()) {
	gaugeReg.mu.Lock()
	defer gaugeReg.mu.Unlock()
	if gaugeReg.list == nil {
		gaugeReg.list = make(map[int]gaugeEntry)
	}
	id := gaugeReg.seq
	gaugeReg.seq++
	gaugeReg.list[id] = gaugeEntry{name: name, component: component, fn: fn}
	return func() {
		gaugeReg.mu.Lock()
		delete(gaugeReg.list, id)
		gaugeReg.mu.Unlock()
	}
}

// gatherGauges evaluates every registered gauge, sorted by (name,
// component) for deterministic export. The closures run outside the
// registry lock's critical section would be nicer, but they are cheap
// reads by contract and scrapes are rare.
func gatherGauges() []GaugeSample {
	gaugeReg.mu.Lock()
	defer gaugeReg.mu.Unlock()
	if len(gaugeReg.list) == 0 {
		return nil
	}
	out := make([]GaugeSample, 0, len(gaugeReg.list))
	for _, e := range gaugeReg.list {
		out = append(out, GaugeSample{Name: e.name, Component: e.component, Value: e.fn()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Component < out[j].Component
	})
	return out
}
