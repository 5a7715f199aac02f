package server

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Ledger is the client-side record of an add-only load run, kept for
// kill-and-recover verification. Adds commute, so per-key sums are a
// complete oracle: after a crash and recovery, every key must hold at
// least the sum of its acknowledged adds (acked writes are durable by the
// WAL contract) and at most acked+inflight (an in-flight add may have
// committed and reached the log just before the kill, or not — either
// outcome is correct; losing an acked one is not).
type Ledger struct {
	// Acked[key] sums the Arg of every add whose StatusOK response was
	// received. Inflight[key] sums adds that were sent but unanswered when
	// the run ended (connection died or run stopped).
	Acked    map[uint64]uint64 `json:"acked"`
	Inflight map[uint64]uint64 `json:"inflight"`
	// Ops/Errors describe the run for reporting.
	Ops    uint64 `json:"ops"`
	Errors uint64 `json:"errors"`
}

// merge folds o into l.
func (l *Ledger) merge(o *Ledger) {
	for k, v := range o.Acked {
		l.Acked[k] += v
	}
	for k, v := range o.Inflight {
		l.Inflight[k] += v
	}
	l.Ops += o.Ops
	l.Errors += o.Errors
}

// WriteFile serializes the ledger as JSON.
func (l *Ledger) WriteFile(path string) error {
	buf, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// ReadLedger loads a ledger written by WriteFile.
func ReadLedger(path string) (*Ledger, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := newLedger()
	if err := json.Unmarshal(buf, l); err != nil {
		return nil, err
	}
	return l, nil
}

func newLedger() *Ledger {
	return &Ledger{Acked: map[uint64]uint64{}, Inflight: map[uint64]uint64{}}
}

// RunLedgerLoad drives an add-only load (Arg always 1) against cfg.Addr,
// recording every acknowledged add. Unlike RunLoad it expects the server
// to die mid-run: a connection error ends that connection's work with its
// outstanding adds (up to Window of them) recorded as in-flight, not as a
// run failure. The run ends when every connection has finished its fixed
// work, hit the deadline, or lost its connection.
func RunLedgerLoad(cfg LoadConfig) *Ledger {
	cfg = cfg.normalize()
	cfg.GetPct, cfg.PutPct, cfg.DelPct, cfg.TransferPct = 0, 0, 0, 0 // every op an Add of 1
	leds := make([]*Ledger, cfg.Conns)
	sinks := make([]sink, cfg.Conns)
	for i := range leds {
		leds[i] = newLedger()
		sinks[i] = leds[i]
	}
	runConns(cfg, sinks, make(chan struct{}))
	total := newLedger()
	for _, l := range leds {
		total.merge(l)
	}
	return total
}

// reply makes Ledger a load sink: an answered add is acked on StatusOK.
// Any other status (StatusShutdown, StatusUnavailable, ...) is answered
// and explicitly NOT acknowledged; the server may still have committed it
// in memory (Unavailable), but durability makes no promise either way —
// the same contract as in-flight.
func (l *Ledger) reply(p sentReq, st Status, _ time.Duration) {
	l.Ops++
	if st == StatusOK {
		l.Acked[p.key]++
		return
	}
	l.Errors++
	l.Inflight[p.key]++
}

// lost credits every add a dead connection left unanswered to in-flight:
// each was sent (or partly sent) and its outcome is unknown.
func (l *Ledger) lost(outstanding []sentReq, _ error) {
	for _, p := range outstanding {
		l.Inflight[p.key]++
	}
}

// VerifyLedger checks a recovered server against a ledger: for every key,
// acked ≤ recovered value ≤ acked + inflight. It returns the list of
// violations (empty = the recovery kept every acknowledged write).
func VerifyLedger(addr string, led *Ledger) ([]string, error) {
	cl, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	keys := make(map[uint64]struct{}, len(led.Acked)+len(led.Inflight))
	for k := range led.Acked {
		keys[k] = struct{}{}
	}
	for k := range led.Inflight {
		keys[k] = struct{}{}
	}
	var violations []string
	for k := range keys {
		st, v, err := cl.Do(OpGet, k, 0)
		if err != nil {
			return violations, err
		}
		if st == StatusNotFound {
			v = 0
		} else if st != StatusOK {
			return violations, fmt.Errorf("get %d: status %d", k, st)
		}
		lo := led.Acked[k]
		hi := lo + led.Inflight[k]
		if v < lo || v > hi {
			violations = append(violations,
				fmt.Sprintf("key %d: recovered %d outside [acked %d, acked+inflight %d]", k, v, lo, hi))
		}
	}
	return violations, nil
}
