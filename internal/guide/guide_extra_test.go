package guide

import (
	"bytes"
	"encoding/json"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"gstm/internal/model"
	"gstm/internal/telemetry"
	"gstm/internal/trace"
	"gstm/internal/txid"
)

func TestStateSequenceTracking(t *testing.T) {
	c := NewController(buildTable(t))
	// Drive a chain of commits; the tracked state must always be the
	// second-to-last commit's TTS (one-commit delay).
	pairs := []txid.Pair{pair(0, 0), pair(1, 1), pair(2, 2), pair(3, 3)}
	for i, p := range pairs {
		c.TxCommit(p, uint64(i+1), 0)
	}
	k, ok := c.CurrentState()
	if !ok {
		t.Fatal("no state")
	}
	want := trace.NewState(nil, pk(2, 2)).Key() // commit 3 of 4 (last is pending)
	if k != want {
		t.Fatalf("state = %q, want %q", k, want)
	}
}

func TestGateStatsCategoriesDisjoint(t *testing.T) {
	c := NewController(buildTable(t), WithGateRetries(2))
	// Current state A; destination B high, C low.
	c.TxCommit(pair(0, 0), 1, 0)
	c.TxCommit(pair(9, 9), 2, 0)

	c.Arrive(pair(1, 1)) // allowed: passes
	c.Arrive(pair(2, 2)) // blocked: escapes after 2 retries
	passed, held, escaped := c.GateStats()
	if passed != 1 || escaped != 1 {
		t.Fatalf("stats = %d/%d/%d", passed, held, escaped)
	}
	if held != 0 {
		// held counts threads that were delayed but eventually allowed;
		// the escaping thread is counted separately.
		t.Fatalf("held = %d, want 0", held)
	}
}

func TestHeldThenAllowedCountsAsHeld(t *testing.T) {
	c := NewController(buildTable(t), WithGateRetries(1<<20))
	c.TxCommit(pair(0, 0), 1, 0)
	c.TxCommit(pair(9, 9), 2, 0) // current = A, so (2,2) is blocked

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Arrive(pair(2, 2)) // blocked until the state changes
	}()
	// The arrival has been refused at least once when its goroutine is
	// inside yield.Hold called from Arrive, which Arrive reaches only
	// after a refusal.
	waitInHold(t)
	// Change current state to an unknown one: (2,2) becomes allowed.
	c.TxCommit(pair(25, 9), 3, 0)
	c.TxCommit(pair(25, 9), 4, 0)
	wg.Wait()
	_, held, _ := c.GateStats()
	if held != 1 {
		t.Fatalf("held = %d, want 1", held)
	}
}

// holdInArrive matches a yield.Hold frame whose caller is the controller's
// Arrive: each frame is a function line and a file line.
var holdInArrive = regexp.MustCompile(`yield\.Hold\(.*\n.*\n.*guide\.\(\*Controller\)\.Arrive\(`)

// waitInHold polls every goroutine's stack until one is inside yield.Hold
// under Controller.Arrive.
func waitInHold(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if holdInArrive.Match(buf[:runtime.Stack(buf, true)]) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the arrival was never held")
		}
		runtime.Gosched()
	}
}

// TestConcurrentEventsAndArrivals races arrivals, checks and events on one
// controller. Unarmed, every decision is counted. Armed WithWatchdog, a fifth
// goroutine drives escapes until the watchdog trips while the others run, so
// the race detector sees the lock-free trip flag read against its store.
func TestConcurrentEventsAndArrivals(t *testing.T) {
	for _, armed := range []bool{false, true} {
		opts := []Option{WithGateRetries(4)}
		if armed {
			opts = append(opts, WithWatchdog())
		}
		c := NewController(buildTable(t), opts...)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				// Armed, the workers outlast the trip, so their reads of
				// the flag straddle its store.
				for i := 0; i < 500 || armed && !c.Tripped(); i++ {
					p := pair(i%3, id)
					c.Arrive(p)
					c.Check(p)
					c.TxCommit(p, uint64(id*1000+i+1), i%2)
					if i%3 == 0 {
						c.TxAbort(pair(1, (id+1)%4), uint64(id*1000+i+1), true)
					}
				}
			}(g)
		}
		if armed {
			// State A admits only B, so C's arrivals escape; the
			// tripper's commits of A and aborts keep the windows closing
			// until one is judged.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !c.Tripped(); i++ {
					c.TxCommit(pair(0, 0), uint64(10000+i), 0)
					c.Arrive(pair(2, 2))
					c.TxAbort(pair(2, 2), 0, false)
				}
			}()
		}
		wg.Wait()
		passed, held, escaped := c.GateStats()
		if !armed && passed+held+escaped != 2*4*500 {
			t.Fatalf("gate decisions %d+%d+%d != 4000", passed, held, escaped)
		}
		if armed && (!c.Tripped() || c.Arrive(pair(2, 2)) != telemetry.GatePass) {
			t.Fatalf("armed controller: tripped=%v after the tripper returned", c.Tripped())
		}
	}
}

func TestDefaultGateRetriesApplied(t *testing.T) {
	c := NewController(buildTable(t))
	if c.retries != DefaultGateRetries {
		t.Fatalf("retries = %d, want %d", c.retries, DefaultGateRetries)
	}
	c2 := NewController(buildTable(t), WithGateRetries(0)) // ignored
	if c2.retries != DefaultGateRetries {
		t.Fatalf("retries = %d after WithGateRetries(0)", c2.retries)
	}
}

func TestCompiledTableReflectsTfactor(t *testing.T) {
	// With a huge Tfactor every destination qualifies, so even the rare
	// pair (2,2) from state A should be allowed.
	a := trace.NewState(nil, pk(0, 0))
	b := trace.NewState(nil, pk(1, 1))
	cst := trace.NewState(nil, pk(2, 2))
	var runs [][]trace.State
	for i := 0; i < 40; i++ {
		runs = append(runs, []trace.State{a, b})
	}
	runs = append(runs, []trace.State{a, cst})
	m := model.Build(2, runs)

	wide := NewController(model.Compile(m, 1000))
	wide.TxCommit(pair(0, 0), 1, 0)
	wide.TxCommit(pair(9, 9), 2, 0)
	wide.Arrive(pair(2, 2))
	passed, _, escaped := wide.GateStats()
	if passed != 1 || escaped != 0 {
		t.Fatalf("wide table blocked a kept destination: %d/%d", passed, escaped)
	}
}

// TestGateStateLabelsPrintable: the per-state gate telemetry names each
// state in the paper's notation, resolved once per state, so neither
// /metrics nor the JSON snapshot carries a raw key: no exported label holds
// a byte below 0x20 or invalid UTF-8.
func TestGateStateLabelsPrintable(t *testing.T) {
	tel := telemetry.NewDetached("labels")
	c := NewController(buildTable(t), WithTelemetry(tel))
	c.Check(pair(1, 1)) // before any commit
	c.TxCommit(pair(2, 1), 1, 0)
	c.TxAbort(pair(0, 6), 1, true)
	c.Check(pair(1, 1))
	c.TxCommit(pair(0, 0), 2, 0)
	c.Check(pair(1, 1))
	c.TxCommit(pair(40, 300), 3, 0) // outside the model's universe
	c.Check(pair(1, 1))
	snap := tel.Snapshot()

	want := []string{"(bootstrap)", "{<a0>}", "{<a6>, <c1>}", "{<ao300>}"}
	var got []string
	for _, g := range snap.GateStates {
		got = append(got, g.State)
	}
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Fatalf("state labels %q, want %q", got, want)
	}

	printable := func(where, label string) {
		t.Helper()
		if !utf8.ValidString(label) {
			t.Fatalf("%s: label %q is not valid UTF-8", where, label)
		}
		for i := 0; i < len(label); i++ {
			if label[i] < 0x20 {
				t.Fatalf("%s: label %q holds byte %#x", where, label, label[i])
			}
		}
	}
	var prom bytes.Buffer
	if err := telemetry.WritePrometheus(&prom, snap); err != nil {
		t.Fatal(err)
	}
	labels := regexp.MustCompile(`(?m)^gstm_gate_state_\w+\{state="((?:[^"\\]|\\.)*)"\}`).FindAllStringSubmatch(prom.String(), -1)
	if len(labels) != 3*len(want) {
		t.Fatalf("%d gate-state series in /metrics, want %d:\n%s", len(labels), 3*len(want), prom.String())
	}
	for _, m := range labels {
		printable("/metrics", m[1])
	}
	js, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.Snapshot
	if err := json.Unmarshal(js, &back); err != nil {
		t.Fatal(err)
	}
	for _, g := range back.GateStates {
		printable("JSON", g.State)
	}
}
