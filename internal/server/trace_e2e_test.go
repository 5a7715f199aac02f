package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gstm/internal/obs"
)

// validCauses is the abort-cause taxonomy as label strings; every span's
// terminal cause and event cause must come from it.
func validCauses() map[string]bool {
	m := make(map[string]bool)
	for i := 0; i < int(obs.NumCauses); i++ {
		m[obs.CauseName(i)] = true
	}
	return m
}

// phaseRank orders phases as a request experiences them; events within a
// span must never go backwards through it.
var phaseRank = map[string]int{
	"decode":   0,
	"queue":    1,
	"gate":     2,
	"retry":    2, // interleaves with gate across attempts
	"lock":     3,
	"validate": 4,
	"publish":  5,
	"walack":   6,
}

// TestServerTraceEndToEnd drives traced operations through a live sharded
// server and scrapes the variance observatory over HTTP: the protocol
// trace-request bit must land spans in the forced ring, every span must
// carry a well-formed phase timeline (decode, then queue, then the commit
// phases in protocol order) with taxonomy cause labels, and the agg and
// chrome formats must serve.
func TestServerTraceEndToEnd(t *testing.T) {
	s := startServer(t, Config{
		Shards:           2,
		Workers:          2,
		Batch:            4,
		Unguided:         true,
		TraceSampleEvery: 1,
	})
	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTrace(true)

	const ops = 200
	for i := 0; i < ops; i++ {
		if _, err := cl.Add(uint64(i), 1); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
	}

	ts := httptest.NewServer(s.Observatory().Handler())
	defer ts.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return body
	}

	var snap obs.Snapshot
	if err := json.Unmarshal(get("/"), &snap); err != nil {
		t.Fatalf("snapshot decode: %v", err)
	}
	if len(snap.Forced) == 0 {
		t.Fatal("trace-request bit set on every op but the forced ring is empty")
	}
	if len(snap.Sampled) == 0 {
		t.Fatal("SampleEvery=1 but the sampled rings are empty")
	}
	causes := validCauses()
	shardsSeen := map[int]bool{}
	for _, sp := range snap.Forced {
		if !sp.Forced {
			t.Fatalf("span %d in the forced ring without the forced flag", sp.ID)
		}
		if !causes[sp.Cause] {
			t.Fatalf("span %d: terminal cause %q not in the taxonomy", sp.ID, sp.Cause)
		}
		if sp.Shard < 0 || sp.Shard >= 2 {
			t.Fatalf("span %d: shard %d out of range", sp.ID, sp.Shard)
		}
		shardsSeen[sp.Shard] = true
		if len(sp.Events) < 3 {
			t.Fatalf("span %d: %d events, want at least decode+queue+commit phases", sp.ID, len(sp.Events))
		}
		if sp.Events[0].Phase != "decode" || sp.Events[1].Phase != "queue" {
			t.Fatalf("span %d: timeline starts %q,%q, want decode,queue", sp.ID, sp.Events[0].Phase, sp.Events[1].Phase)
		}
		prev := -1
		for _, e := range sp.Events {
			r, ok := phaseRank[e.Phase]
			if !ok {
				t.Fatalf("span %d: unknown phase %q", sp.ID, e.Phase)
			}
			if r < prev {
				t.Fatalf("span %d: phase %q out of order (rank %d after %d)", sp.ID, e.Phase, r, prev)
			}
			prev = r
			if e.Cause != "" && !causes[e.Cause] {
				t.Fatalf("span %d: event cause %q not in the taxonomy", sp.ID, e.Cause)
			}
		}
		// A committed Add publishes: its span must show the publish phase.
		if sp.Cause == "none" {
			found := false
			for _, e := range sp.Events {
				if e.Phase == "publish" {
					found = true
				}
			}
			if !found {
				t.Fatalf("span %d committed but records no publish phase: %+v", sp.ID, sp.Events)
			}
		}
	}
	if len(shardsSeen) != 2 {
		t.Fatalf("200 hash-spread keys touched shards %v, want both", shardsSeen)
	}

	var agg obs.AggSnapshot
	if err := json.Unmarshal(get("/?format=agg"), &agg); err != nil {
		t.Fatalf("agg decode: %v", err)
	}
	if len(agg.Shards) != 2 {
		t.Fatalf("agg covers %d shards, want 2", len(agg.Shards))
	}
	var total uint64
	for _, sh := range agg.Shards {
		total += sh.Total.Count
		for _, name := range []string{"decode", "queue", "publish"} {
			if agg := sh.Phases[name]; agg.Count == 0 {
				t.Fatalf("shard %d: phase %q absent from the aggregation", sh.Shard, name)
			}
		}
	}
	if total == 0 {
		t.Fatal("aggregation total count is zero after 200 traced ops")
	}

	if chrome := string(get("/?format=chrome")); !strings.Contains(chrome, "traceEvents") {
		t.Fatalf("chrome export missing traceEvents envelope: %.120s", chrome)
	}
	if resp, err := http.Get(ts.URL + "/?format=bogus"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus format: status %v err %v, want 400", resp.StatusCode, err)
	}
}

// TestServerTraceDiffTable runs the loadgen-style scrape-diff-format path
// against a live server: two agg scrapes around a burst of traffic must
// diff to a non-empty run-local table.
func TestServerTraceDiffTable(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Workers: 2, Unguided: true, TraceSampleEvery: 1})
	ts := httptest.NewServer(s.Observatory().Handler())
	defer ts.Close()
	addr := strings.TrimPrefix(ts.URL, "http://")

	cl, err := Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Add(1, 1); err != nil {
		t.Fatal(err)
	}

	before, err := FetchTraceAgg(addr)
	if err != nil {
		t.Fatalf("scrape before: %v", err)
	}
	const burst = 64
	for i := 0; i < burst; i++ {
		if _, err := cl.Add(uint64(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	after, err := FetchTraceAgg(addr)
	if err != nil {
		t.Fatalf("scrape after: %v", err)
	}

	diff := DiffTraceAgg(after, before)
	var count uint64
	for _, sh := range diff.Shards {
		count += sh.Total.Count
	}
	if count != burst {
		t.Fatalf("diffed total count = %d, want exactly the %d spans of the burst", count, burst)
	}
	table := FormatTailTable(diff)
	for _, want := range []string{"shard", "phase", "p99.9", "total", "publish"} {
		if !strings.Contains(table, want) {
			t.Fatalf("tail table missing %q:\n%s", want, table)
		}
	}
}

// TestChunkSpansShareStamps pins what a span's first two phases mean now that
// requests cross to a worker by chunk: the tasks of one chunk share their
// hand-off stamp, so the spans born of it — one per shard the batch touched —
// start their decode phase at the same instant (the read's return) and their
// queue phase at the same instant (the chunk's hand-off), and each still
// reads decode, then queue, then the commit phases, summing to no more than
// its total.
func TestChunkSpansShareStamps(t *testing.T) {
	s := startServer(t, Config{Shards: 2, Workers: 2, Batch: 4, Unguided: true, TraceSampleEvery: 1})
	var buf []byte
	homes := map[int]bool{}
	for k := uint64(1); k <= 4; k++ {
		homes[s.Router().HomeOf(k)] = true
		buf = AppendRequest(buf, Request{Op: OpAdd, ID: uint32(k), Key: k, Arg: 1, Trace: true})
	}
	if len(homes) != 2 {
		t.Fatalf("keys 1..4 live on shards %v, want both", homes)
	}
	fc := attach(s)
	fc.in <- buf // exactly Batch frames in one Read: one chunk, one batch
	fc.await(t, 4)

	forced := s.Observatory().Snapshot().Forced
	if len(forced) != 2 {
		t.Fatalf("%d forced spans for one chunk over two shards, want 2", len(forced))
	}
	for _, sp := range forced {
		if len(sp.Events) < 3 || sp.Events[0].Phase != "decode" || sp.Events[1].Phase != "queue" {
			t.Fatalf("span %d: timeline %+v does not start decode, queue, commit", sp.ID, sp.Events)
		}
		dec, q := sp.Events[0], sp.Events[1]
		if dec.StartNs != 0 || q.StartNs != dec.DurNs {
			t.Fatalf("span %d: decode %+v and queue %+v are not back to back from the span's start", sp.ID, dec, q)
		}
		var sum uint64
		for _, e := range sp.Events {
			sum += uint64(e.DurNs)
		}
		if sum > uint64(sp.TotalNs) {
			t.Fatalf("span %d: phases sum to %d ns, more than its total %d ns", sp.ID, sum, sp.TotalNs)
		}
	}
	a, b := forced[0], forced[1]
	if a.Shard == b.Shard {
		t.Fatalf("both spans on shard %d", a.Shard)
	}
	if a.BeginUnix != b.BeginUnix || a.Events[1].StartNs != b.Events[1].StartNs {
		t.Fatalf("spans of one chunk disagree on their stamps: begin %d vs %d, queue start +%d vs +%d",
			a.BeginUnix, b.BeginUnix, a.Events[1].StartNs, b.Events[1].StartNs)
	}
}
