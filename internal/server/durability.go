package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"gstm"
	"gstm/internal/obs"
	"gstm/internal/wal"
)

// errWALUnavailable fails a shard sub-transaction before it commits when
// the shard's log is already dead: committing state whose durability can
// never be promised would make memory diverge from disk. It wraps
// wal.ErrFailed so the status mapping treats both identically.
var errWALUnavailable = fmt.Errorf("server: %w", wal.ErrFailed)

// Recovery replay granularity: applying many records per STM transaction
// amortizes commit overhead; with no concurrent readers during recovery,
// batching cannot be observed — only the final state matters.
const (
	replaySnapBatch = 512
	replayRecBatch  = 128

	// warmupMinCommits is the smallest recovered Tseq worth training a
	// model from; below it the shard cold-starts through normal profiling.
	warmupMinCommits = 64

	// scanAttempts bounds the snapshot scan's retries: a full-table
	// read-only scan under write load can lose validation repeatedly, and
	// an unbounded scan would stall the flusher. A failed scan just skips
	// that snapshot cycle.
	scanAttempts = 50
)

// openDurability opens each shard's write-ahead log, replays its
// recovery into the shard's store, advances the shard clock past the last
// durable commit, optionally pre-trains the shard's model from the
// replayed Tseq (guided warmup), and installs the log as the System's
// persistent event tap. Called from Start before any connection is
// served, so replay runs with no concurrent transactions and no sink
// installed — replay commits are not re-logged.
func (s *Server) openDurability() error {
	s.wals = make([]*wal.Log, s.cfg.Shards)
	for sh := 0; sh < s.cfg.Shards; sh++ {
		sys := s.router.System(sh)
		l, rec, err := wal.Open(wal.Config{
			Dir: filepath.Join(s.cfg.WALDir, fmt.Sprintf("shard%d", sh)),
			// One stager per slot; the scan and watch threads stay outside
			// the range, so the log ignores their events.
			Threads:       s.cfg.Workers,
			FsyncInterval: s.cfg.FsyncInterval,
			SnapshotEvery: s.cfg.SnapshotEvery,
			LogAborts:     s.cfg.GuidedWarmup,
			Source:        &shardSource{srv: s, shard: sh},
			FS:            s.cfg.WALFS,
			Metrics:       sys.Telemetry(),
		})
		if err != nil {
			err = fmt.Errorf("server: shard %d wal: %w", sh, err)
			return errors.Join(err, s.closeWALs())
		}
		s.wals[sh] = l
		if err := s.replayShard(sh, rec); err != nil {
			err = fmt.Errorf("server: shard %d recovery: %w", sh, err)
			return errors.Join(err, s.closeWALs())
		}
		if s.cfg.GuidedWarmup && !s.cfg.Unguided {
			// A rejected model leaves the shard unguided: Start profiles it
			// from cold.
			if tr := rec.BuildTrace(); tr != nil && tr.Commits >= warmupMinCommits {
				s.lcs[sh].install(gstm.BuildModel(s.cfg.Workers, []*gstm.Trace{tr}))
			}
		}
		// Install the tap last: everything from here on is logged, and
		// every logged record's wv is above the recovered MaxWV.
		sys.SetTap(l)
	}
	return nil
}

// replayShard applies one shard's recovery — snapshot image first, then
// the salvaged commit records in wv order — to the shard's store, then
// advances the shard's version clock past the highest durable wv so new
// commits sort strictly after recovered ones.
func (s *Server) replayShard(sh int, rec *wal.Recovery) error {
	t0 := time.Now()
	sys := s.router.System(sh)
	st := s.stores[sh]
	ctx := context.Background()

	for lo := 0; lo < len(rec.SnapKeys); lo += replaySnapBatch {
		hi := lo + replaySnapBatch
		if hi > len(rec.SnapKeys) {
			hi = len(rec.SnapKeys)
		}
		err := sys.Run(ctx, 0, siteScan, func(tx *gstm.Tx) error {
			for i := lo; i < hi; i++ {
				k, v := int64(rec.SnapKeys[i]), rec.SnapVals[i]
				if !st.Set(tx, k, v) {
					st.InsertNoCount(tx, k, v)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	for lo := 0; lo < len(rec.Commits); lo += replayRecBatch {
		hi := lo + replayRecBatch
		if hi > len(rec.Commits) {
			hi = len(rec.Commits)
		}
		err := sys.Run(ctx, 0, siteScan, func(tx *gstm.Tx) error {
			for _, c := range rec.Commits[lo:hi] {
				for _, op := range c.Ops {
					k := int64(op.Key)
					switch {
					case op.Del:
						st.RemoveNoCount(tx, k)
					case !st.Set(tx, k, op.Val):
						st.InsertNoCount(tx, k, op.Val)
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}

	sys.AdvanceClock(rec.MaxWV)
	m := sys.Telemetry()
	m.RecoveryReplayed.Add(0, uint64(rec.Replayed()))
	m.RecoveryNanos.Add(0, uint64(time.Since(t0).Nanoseconds()))
	return nil
}

// shardSource adapts one shard to wal.SnapshotSource. ClockNow reads the
// shard's version clock; Scan is a read-only STM full-table scan run on
// the scan thread — outside the WAL stager range, so its commit event
// never touches a staging slot and the log ignores it. Each attempt hands
// its pairs straight to the log's snapshot writer.
type shardSource struct {
	srv   *Server
	shard int
}

func (ss *shardSource) ClockNow() uint64 { return ss.srv.router.System(ss.shard).Clock() }

func (ss *shardSource) Scan(begin func(), put func(key, val uint64)) error {
	sys := ss.srv.router.System(ss.shard)
	st := ss.srv.stores[ss.shard]
	return sys.Run(context.Background(), ss.srv.scanThread(), siteScan, func(tx *gstm.Tx) error {
		begin()
		st.RangeAll(tx, func(k int64, v uint64) bool {
			put(uint64(k), v)
			return true
		})
		return nil
	}, gstm.WithReadOnly(), gstm.WithMaxAttempts(scanAttempts))
}

// WAL returns shard sh's write-ahead log (nil when durability is off) —
// for tests and the embedding command.
func (s *Server) WAL(sh int) *wal.Log {
	if s.wals == nil {
		return nil
	}
	return s.wals[sh]
}

// ackShard settles shard sh's committed sub-transaction on behalf of slot
// worker: it waits until record seq is acked on the shard's log (seq 0:
// nothing was logged), or takes refused — the log's refusal at commit — as
// the outcome. The wait is sp's WAL-ack phase; sp (nil when the span rides
// elsewhere) is then closed with the outcome and handed to worker's ring.
// An acked sub-transaction books its nops operations on the shard's
// lifecycle; a failed one is counted as refused and reports false: its
// record never became durable, so its operations must not ack. (After a
// crash the replay won't have it — exactly what StatusUnavailable
// promises.)
func (s *Server) ackShard(worker, sh int, seq uint64, refused error, sp *obs.Span, nops int) bool {
	err := refused
	cause := obs.CauseNone
	if err == nil && seq > 0 {
		w0 := obs.Now()
		err = s.wals[sh].WaitAcked(seq)
		if err != nil {
			cause = obs.CauseWALUnavailable
		}
		sp.AddSince(obs.PhaseWALAck, cause, 0, w0)
	}
	if err != nil {
		cause = obs.CauseWALUnavailable
	}
	if sp != nil {
		sp.Finish(cause, obs.Now())
		s.obs.Collect(worker, sp)
	}
	if err != nil {
		s.router.System(sh).Telemetry().WALRefused(uint64(worker))
		return false
	}
	s.lcs[sh].noteOps(nops)
	return true
}
