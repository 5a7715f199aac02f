package wal

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"gstm/internal/obs"
	"gstm/internal/telemetry"
	"gstm/internal/txid"
)

// SnapshotSource produces consistent snapshots of the shard state the log
// protects; the serving layer implements it with a read-only STM scan.
type SnapshotSource interface {
	// ClockNow returns the shard's current version clock value.
	ClockNow() uint64

	// Scan visits a transactionally consistent view of the full shard
	// state, taken at a clock value at or after the preceding ClockNow
	// call: it calls begin at the start of every attempt, which discards
	// the pairs an aborted attempt put, then put once per stored pair. An
	// error skips this snapshot cycle (the log keeps its segments); it
	// must not leave partial effects.
	Scan(begin func(), put func(key, val uint64)) error
}

// Config parameterizes a Log.
type Config struct {
	// Dir is this shard's log directory (segments + snapshot). One Log
	// owns it exclusively.
	Dir string

	// Threads is the number of worker threads that stage redo images
	// (stager slots 0..Threads-1). Events from threads outside the range
	// — e.g. the snapshot scan's dedicated thread — are ignored.
	Threads int

	// FsyncInterval selects the durability mode. Zero is strict group
	// commit: every flushed batch is fsynced before its records ack, so
	// acked writes survive power loss. Positive is relaxed: records ack
	// once written to the OS page cache (surviving process kills, the
	// chaos tests' SIGKILL) and fsync runs at most once per interval,
	// bounding the loss window on OS or power failure to the interval.
	FsyncInterval time.Duration

	// SnapshotEvery triggers a snapshot+truncate cycle after that many
	// commit records (0 disables automatic snapshots; Snapshot can still
	// be called explicitly). Requires Source.
	SnapshotEvery int

	// LogAborts also logs abort events, letting recovery reconstruct the
	// full Tseq and pre-train the TSA (guided warmup). ~22 bytes per
	// abort.
	LogAborts bool

	Source SnapshotSource

	// FS is the file system the log reaches the disk through; nil is
	// OSFS. Tests substitute one that records or fails operations.
	FS FS

	Metrics *telemetry.Metrics
}

// Terminal log states.
var (
	// ErrFailed: a write or fsync failed; the log accepts no more records
	// and pending acks fail. The underlying cause wraps it.
	ErrFailed = errors.New("wal: log failed")
	// ErrCrashed: Crash was called (tests' in-process SIGKILL analogue).
	ErrCrashed = errors.New("wal: log crashed")
	// ErrClosed: the record arrived after Close began draining.
	ErrClosed = errors.New("wal: log closed")
)

// stager is one worker thread's redo staging area. The worker stages ops
// inside the transaction body; the commit event (on the same goroutine)
// stamps them with the wv and appends the record. No synchronization:
// slot t is touched only by thread t.
type stager struct {
	active  bool
	dropped bool // commit event arrived but the log refused the record
	site    uint16
	seq     uint64 // record seq of this thread's last appended commit
	ops     []Op
	_       [40]byte // keep adjacent stagers off one cache line
}

// Staging is the per-transaction redo builder handed out by Stage.
type Staging struct{ st *stager }

// Put stages a redo image: key holds val after this transaction.
func (s Staging) Put(key, val uint64) {
	s.st.ops = append(s.st.ops, Op{Key: key, Val: val})
}

// Del stages a delete redo image.
func (s Staging) Del(key uint64) {
	s.st.ops = append(s.st.ops, Op{Del: true, Key: key})
}

// Log is one shard's write-ahead log. It implements the gstm Observer
// (EventSink) interface; install it as the shard System's tap.
type Log struct {
	cfg    Config
	strict bool
	// poll: relaxed mode with GOMAXPROCS > 1 at Open, so a waiter may poll
	// out a write-only flush rather than park on fileMu (writeThrough).
	poll bool

	stagers []stager

	// mu guards the staging buffer and ack state; appenders hold it for
	// one encode, the flusher for one swap. ackCond signals acked / err /
	// crashed transitions. acked is written under mu but read without it
	// by polling waiters.
	mu         sync.Mutex
	ackCond    *sync.Cond
	buf        []byte        // encoded records awaiting flush
	spare      []byte        // flusher's swap buffer
	bufSeq     uint64        // seq of the last record appended to buf
	commitsBuf int           // commit records currently in buf
	acked      atomic.Uint64 // last record seq acknowledged per the mode's rule
	err        error         // terminal failure, wraps ErrFailed
	closing    bool
	crashed    bool

	commitsSinceSnap int // commit records written since the last snapshot cycle

	// snapMu serializes snapshot cycles (the flusher's and explicit
	// Snapshot calls) and guards minSeg and segIdx. It is taken before
	// fileMu.
	snapMu sync.Mutex
	minSeg int // lowest on-disk segment index (pre-truncation tail)
	segIdx int // the active segment's index

	// fileMu serializes the active segment's I/O (flusher, Sync,
	// Snapshot's rotation and scan) and guards f. writing is set while
	// fileMu's holder is a flush that writes and does not fsync: a hold
	// short enough for a relaxed waiter to poll out. unsynced (bytes
	// written since the segment's last fsync) and lastSync (that fsync's
	// span-clock time, obs.Now) are written under fileMu and atomic, so the
	// flusher's idle check reads them without taking the lock.
	fileMu   sync.Mutex
	writing  atomic.Bool
	f        File
	unsynced atomic.Int64
	lastSync atomic.Int64

	kick        chan struct{}
	flusherDone chan struct{}
}

// Open creates (or reopens) the log in cfg.Dir: it recovers whatever the
// directory holds into the returned Recovery (Read; an empty or missing
// directory is a fresh log), removes snapshot.tmp residue, starts a fresh
// active segment above the highest existing one, and launches the
// group-commit flusher. The caller applies the Recovery to its store
// before installing the Log as a tap.
func Open(cfg Config) (*Log, *Recovery, error) {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewDetached("wal")
	}
	if cfg.FS == nil {
		cfg.FS = OSFS{}
	}
	if err := cfg.FS.MkdirAll(cfg.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, err := read(cfg.FS, cfg.Dir)
	if errors.Is(err, errNoLog) {
		rec, err = &Recovery{maxSeg: -1}, nil
	}
	if err != nil {
		return nil, nil, err
	}
	_ = cfg.FS.Remove(snapPath(cfg.Dir) + ".tmp") // crash residue, superseded or partial
	l := &Log{
		cfg:         cfg,
		strict:      cfg.FsyncInterval == 0,
		poll:        cfg.FsyncInterval > 0 && runtime.GOMAXPROCS(0) > 1,
		stagers:     make([]stager, cfg.Threads),
		buf:         make([]byte, 0, 1<<16),
		spare:       make([]byte, 0, 1<<16),
		segIdx:      rec.maxSeg + 1,
		minSeg:      rec.minSeg,
		kick:        make(chan struct{}, 1),
		flusherDone: make(chan struct{}),
	}
	l.lastSync.Store(obs.Now())
	l.ackCond = sync.NewCond(&l.mu)
	f, err := createSegment(cfg.FS, cfg.Dir, l.segIdx)
	if err != nil {
		return nil, nil, err
	}
	l.f = f
	cfg.Metrics.SetWALQueueDepth(l.QueueDepth)
	go func() {
		// The pprof label makes the flusher identifiable in goroutine and
		// CPU profiles of a multi-shard server (one flusher per shard log).
		pprof.Do(context.Background(), pprof.Labels("gstm", "wal-flusher", "dir", cfg.Dir), func(context.Context) {
			l.flushLoop()
		})
	}()
	return l, rec, nil
}

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%06d.log", idx))
}

// createSegment creates segment idx with its magic header, then fsyncs
// the directory: the segment's entry is durable before it takes a record,
// so no ack of a record in it can precede that directory fsync.
func createSegment(fsys FS, dir string, idx int) (File, error) {
	f, err := fsys.OpenFile(segPath(dir, idx), os.O_CREATE|os.O_EXCL|os.O_WRONLY)
	if err != nil {
		return nil, fmt.Errorf("wal: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: segment header: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("wal: segment directory sync: %w", err)
	}
	return f, nil
}

// Stage begins staging redo images for thread's current transaction at
// transaction site. Call it inside the transaction body (it is re-run
// fresh on every retry); the commit event stamps the staged ops with the
// commit's wv and appends the record. A transaction that stages ops but
// fails must be cleared with Abandon before the thread's next unstaged
// transaction on this shard.
func (l *Log) Stage(thread int, site uint16) Staging {
	st := &l.stagers[thread]
	st.active = true
	st.dropped = false
	st.site = site
	st.seq = 0
	st.ops = st.ops[:0]
	return Staging{st: st}
}

// Abandon discards thread's staged ops after a failed transaction, so
// they cannot attach to a later commit.
func (l *Log) Abandon(thread int) {
	st := &l.stagers[thread]
	st.active = false
	st.dropped = false
	st.seq = 0
	st.ops = st.ops[:0]
}

// TxCommit implements the event sink: it runs on the committing
// goroutine, after the commit published and released its locks. When the
// thread has staged redo ops it encodes them as a commit record carrying
// wv and appends it to the group-commit buffer.
func (l *Log) TxCommit(p txid.Pair, wv uint64, aborts int) {
	t := int(p.Thread)
	if t >= len(l.stagers) {
		return // snapshot scan or other out-of-pool thread
	}
	st := &l.stagers[t]
	if !st.active {
		return // read-only site, or nothing staged
	}
	st.active = false
	if len(st.ops) == 0 {
		return // mutating site that touched nothing (e.g. del of absent key)
	}
	ab := aborts
	if ab > 255 {
		ab = 255
	}
	rec := CommitRecord{WV: wv, Site: st.site, Thread: uint16(t), Aborts: uint8(ab), Ops: st.ops}
	l.mu.Lock()
	if l.err != nil || l.closing || l.crashed {
		st.dropped = true
		l.mu.Unlock()
		return
	}
	before := len(l.buf)
	l.buf = appendCommit(l.buf, rec)
	grew := len(l.buf) - before
	l.bufSeq++
	st.seq = l.bufSeq
	l.commitsBuf++
	l.mu.Unlock()
	l.cfg.Metrics.Inc(telemetry.WALAppends, uint64(t))
	l.cfg.Metrics.Add(telemetry.WALBytes, uint64(t), uint64(grew))
	if l.strict {
		l.kickFlusher() // the ack waits on the flusher's fsync
	}
}

// TxAbort implements the event sink: with LogAborts on, the abort is
// logged so recovery can rebuild the full Tseq for guided warmup. Abort
// records carry no redo and are never waited on.
func (l *Log) TxAbort(p txid.Pair, byWV uint64, known bool) {
	t := int(p.Thread)
	if !l.cfg.LogAborts || t >= len(l.stagers) {
		return
	}
	rec := AbortRecord{ByWV: byWV, Site: uint16(p.Txn), Thread: uint16(t), Known: known}
	l.mu.Lock()
	if l.err != nil || l.closing || l.crashed {
		l.mu.Unlock()
		return
	}
	before := len(l.buf)
	l.buf = appendAbort(l.buf, rec)
	grew := len(l.buf) - before
	l.bufSeq++
	l.mu.Unlock()
	l.cfg.Metrics.Inc(telemetry.WALAppends, uint64(t))
	l.cfg.Metrics.Add(telemetry.WALBytes, uint64(t), uint64(grew))
	l.kickFlusher()
}

func (l *Log) kickFlusher() {
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// ThreadSeq returns the record seq of thread's last appended commit, for
// acknowledgment via WaitAcked, which the caller may call later, after it
// has let go of whatever it held while committing. Seq 0 means the commit carried no record (nothing to wait
// for). The error is terminal: the log refused the record, so its
// durability can never be promised and the caller must fail the operation.
// Call it on the staging thread, between the commit and the thread's next
// Stage.
func (l *Log) ThreadSeq(thread int) (uint64, error) {
	st := &l.stagers[thread]
	if st.dropped {
		st.dropped = false
		return 0, l.terminalErr()
	}
	return st.seq, nil
}

// WaitThread blocks until thread's last committed record is acknowledged
// per the durability mode (written for relaxed, fsynced for strict) and
// returns nil. It returns the terminal error when the record was refused
// or the log failed before acknowledging it — the commit may have
// executed in memory, but its durability cannot be promised, so the
// caller must fail the operation. (ThreadSeq + WaitAcked is the split
// form for callers that overlap the wait with other work.)
func (l *Log) WaitThread(thread int) error {
	seq, err := l.ThreadSeq(thread)
	if err != nil {
		return err
	}
	if seq == 0 {
		return nil
	}
	return l.WaitAcked(seq)
}

// WaitAcked blocks until record seq is acknowledged, or the log reaches a
// terminal state first. Strict mode waits for the flusher's fsync. In
// relaxed mode the caller gets its record written itself (writeThrough):
// group commit with no hand-off, since whichever waiter holds the file lock
// writes every record appended so far, the other waiters' included. A
// waiter that finds the lock held by such a write polls for its ack or for
// the lock to come free, up to pollBound polls; behind anything longer (the
// interval fsync, a rotation, a snapshot scan), past the bound, or with
// GOMAXPROCS 1 it waits on the lock. A write error latches the terminal
// state reported here.
func (l *Log) WaitAcked(seq uint64) error {
	if l.acked.Load() >= seq {
		return nil
	}
	if !l.strict {
		l.writeThrough(seq)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.acked.Load() < seq && l.err == nil && !l.crashed {
		l.ackCond.Wait()
	}
	if l.acked.Load() >= seq {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrCrashed
}

// pollBound caps the polls of one relaxed waiter behind a write-only
// flush. A poll costs 2–3.5 ns on a 2-vCPU x86 host, so the bound lasts
// 30–60 µs: twenty-odd times the 1.5–1.9 µs mean write(2), so an ordinary
// write ends inside it, and a small fraction of the 4 ms scheduler tick, so
// a write stalled in writeback, or a holder whose vCPU was taken away,
// burns little CPU before its waiters park on fileMu (DESIGN.md "Group
// commit: who writes a record"). Tests raise it.
var pollBound = 1 << 14

// writeThrough gets relaxed record seq written: it writes the buffer itself
// when fileMu is free, polls while the holder is a write-only flush, and
// otherwise waits for the lock and writes whatever is still staged. Any
// error is latched in the log; the caller reads it from there.
func (l *Log) writeThrough(seq uint64) {
	if l.poll {
		for range pollBound {
			if l.acked.Load() >= seq {
				return
			}
			if l.fileMu.TryLock() {
				_ = l.flushLocked(false)
				l.fileMu.Unlock()
				return
			}
			if !l.writing.Load() {
				break
			}
		}
	}
	_ = l.flush(false)
}

// Failed reports whether the log is in a terminal failure state; the
// serving layer fails mutating operations fast instead of committing
// state it can no longer make durable.
func (l *Log) Failed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err != nil || l.crashed
}

// QueueDepth returns how many appended records the flusher has not yet
// acknowledged — the group-commit backlog. Open hands it to Config.Metrics,
// whose snapshots export it as the gstm_wal_queue_depth gauge.
func (l *Log) QueueDepth() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	acked := l.acked.Load()
	if l.bufSeq <= acked {
		return 0
	}
	return l.bufSeq - acked
}

func (l *Log) terminalErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.err != nil:
		return l.err
	case l.crashed:
		return ErrCrashed
	case l.closing:
		return ErrClosed
	default:
		return ErrFailed
	}
}

// fail latches the first terminal error and releases every waiter.
func (l *Log) fail(cause error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = fmt.Errorf("%w: %w", ErrFailed, cause)
	}
	l.ackCond.Broadcast()
	l.mu.Unlock()
}

// flushLoop is the log's background goroutine. In strict mode it is the
// group-commit flusher: it drains the staging buffer to the active segment
// in batches and fsyncs each before acking. In relaxed mode waiters write
// their own records (WaitAcked), and the flusher only writes what nobody
// waits on (abort records), runs the interval fsync once a write leaves the
// segment unsynced, and runs snapshot cycles. One goroutine per Log.
func (l *Log) flushLoop() {
	defer close(l.flusherDone)
	idle := time.NewTimer(time.Hour) // the interval fsync's deadline, re-armed per wait
	idle.Stop()
	for {
		l.mu.Lock()
		closing, failed, crashed := l.closing, l.err != nil, l.crashed
		hasData := len(l.buf) > 0
		l.mu.Unlock()

		switch {
		case failed || crashed:
			return
		case closing:
			_ = l.flush(true) // final drain + fsync
			return
		case hasData:
			if l.flush(l.strict || l.syncDue()) != nil {
				return
			}
		default:
			due := l.cfg.FsyncInterval - l.sinceSync()
			switch {
			case l.strict || l.unsynced.Load() == 0:
				<-l.kick
			case due <= 0:
				if l.flush(true) != nil {
					return
				}
			default:
				idle.Reset(due)
				select {
				case <-l.kick:
					idle.Stop()
				case <-idle.C:
				}
			}
		}
		l.maybeSnapshot()
	}
}

func (l *Log) syncDue() bool { return l.sinceSync() >= l.cfg.FsyncInterval }

// sinceSync is the time since the active segment's last fsync (or its
// creation).
func (l *Log) sinceSync() time.Duration { return time.Duration(obs.Now() - l.lastSync.Load()) }

// flush writes the staged buffer to the active segment and, when sync is
// set (always, in strict mode), fsyncs it; then it acknowledges the
// drained records. On I/O failure the log fails terminally. An unsynced
// write to a synced segment, or crossing the snapshot budget, wakes the
// flusher: it owns the interval fsync and the snapshot cycle.
func (l *Log) flush(sync bool) error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	return l.flushLocked(sync)
}

// flushLocked is flush with fileMu held. A flush that does not fsync
// raises writing for its hold, so relaxed waiters poll it out.
func (l *Log) flushLocked(sync bool) error {
	if !sync {
		l.writing.Store(true)
		defer l.writing.Store(false)
	}
	l.mu.Lock()
	if l.err != nil || l.crashed {
		err := l.err
		l.mu.Unlock()
		if err == nil {
			err = ErrCrashed
		}
		return err
	}
	take := l.buf
	seqHi := l.bufSeq
	commits := l.commitsBuf
	l.buf = l.spare[:0]
	l.spare = nil
	l.commitsBuf = 0
	l.mu.Unlock()

	wake := false
	if len(take) > 0 {
		// A failed write may leave a prefix of take in the segment: the
		// torn tail recovery must cope with.
		if _, err := l.f.Write(take); err != nil {
			l.fail(err)
			return err
		}
		wake = !sync && l.unsynced.Load() == 0
		l.unsynced.Add(int64(len(take)))
	}
	if sync && l.unsynced.Load() > 0 {
		if err := l.fsyncSegment(); err != nil {
			l.fail(err)
			return err
		}
	}

	l.mu.Lock()
	l.spare = take[:0]
	l.commitsSinceSnap += commits
	if l.snapDue() {
		wake = true
	}
	if seqHi > l.acked.Load() {
		l.acked.Store(seqHi)
		l.ackCond.Broadcast()
	}
	l.mu.Unlock()
	if wake {
		l.kickFlusher()
	}
	return nil
}

// fsyncSegment fsyncs the active segment. Called with fileMu held.
func (l *Log) fsyncSegment() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.unsynced.Store(0)
	l.lastSync.Store(obs.Now())
	l.cfg.Metrics.Inc(telemetry.WALFsyncs, 0)
	return nil
}

// Sync forces a full flush+fsync of everything staged so far (graceful
// shutdown, tests).
func (l *Log) Sync() error { return l.flush(true) }

// Close drains and fsyncs the log, stops the flusher and closes the
// segment. Records arriving after Close starts are refused (their commits
// report ErrClosed); the serving layer stops its workers first, so a
// clean shutdown closes with every acked record on disk.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closing || l.crashed {
		l.mu.Unlock()
		<-l.flusherDone
		return nil
	}
	l.closing = true
	l.mu.Unlock()
	l.kickFlusher()
	<-l.flusherDone
	l.fileMu.Lock()
	err := l.f.Close()
	l.fileMu.Unlock()
	l.mu.Lock()
	lerr := l.err
	l.mu.Unlock()
	if lerr != nil {
		return lerr
	}
	return err
}

// Crash simulates a process kill for in-process chaos tests: the staged
// (unwritten) buffer is dropped, no final fsync runs, and the segment
// descriptor is closed as-is. Everything already written — every acked
// record, in relaxed mode via the page cache — survives, exactly like a
// SIGKILL; everything else is lost.
func (l *Log) Crash() {
	l.mu.Lock()
	if l.closing || l.crashed {
		l.mu.Unlock()
		<-l.flusherDone
		return
	}
	l.crashed = true
	l.buf = nil
	l.ackCond.Broadcast()
	l.mu.Unlock()
	l.kickFlusher()
	<-l.flusherDone
	l.fileMu.Lock()
	_ = l.f.Close()
	l.fileMu.Unlock()
}

// snapDue reports whether the configured commit budget for a snapshot
// cycle has elapsed. Called with mu held.
func (l *Log) snapDue() bool {
	return l.cfg.SnapshotEvery > 0 && l.cfg.Source != nil && l.commitsSinceSnap >= l.cfg.SnapshotEvery
}

// maybeSnapshot runs a snapshot+truncate cycle when the configured commit
// budget has elapsed. Called from the flusher only.
func (l *Log) maybeSnapshot() {
	l.mu.Lock()
	due := l.snapDue()
	if due {
		l.commitsSinceSnap = 0
	}
	l.mu.Unlock()
	if due {
		_ = l.Snapshot()
	}
}

// Snapshot runs one snapshot+truncate cycle:
//
//  1. create the next segment and rotate to it — from here on, every
//     record in the sealed segments has wv ≤ the clock value read next —
//     then fsync and close the segment the rotation sealed;
//  2. read the shard clock C0, then take a consistent read-only scan of
//     the shard state, streamed pair by pair into snapshot.tmp. TL2
//     guarantees the scan observes every commit with wv ≤ C0: such a
//     commit held all its write locks when it drew its wv (before C0),
//     and readers never read through a locked word;
//  3. finish the snapshot file (header stamped snapWV = C0, checksum,
//     fsync) and rename it over the live one;
//  4. delete the sealed segments — everything they held is covered by
//     the snapshot, because their records all carry wv ≤ C0.
//
// Only the rotation itself and step 2 hold fileMu. The scan needs it:
// holding it stalls the shard's relaxed-mode acks, which quiesces its
// writers long enough for a full-table read-only scan to commit. Creating
// the next segment (its directory fsync included), the sealed segment's
// fsync and steps 3 and 4 touch no file the shard's acks write, so they
// run with fileMu released and the acks go on meanwhile.
//
// Replay applies the snapshot and then only records with wv > snapWV (in
// wv order); records below the stamp may survive in the active segment,
// and must not clobber the snapshot's newer values. A failed scan or
// snapshot write skips the cycle without data loss: rotation already
// happened, and the old segments are only deleted after the snapshot file
// is durable. A failed segment create or fsync fails the log.
func (l *Log) Snapshot() error {
	if l.cfg.Source == nil {
		return fmt.Errorf("wal: no snapshot source")
	}
	l.snapMu.Lock()
	defer l.snapMu.Unlock()
	if l.Failed() {
		return l.terminalErr()
	}

	// 1. Seal: rotate, then make the sealed segment durable.
	next, err := createSegment(l.cfg.FS, l.cfg.Dir, l.segIdx+1)
	if err != nil {
		l.fail(err)
		return err
	}
	sealed, dirty, err := l.rotate(next)
	if err != nil {
		_ = next.Close()
		return err
	}
	if dirty {
		if err := sealed.Sync(); err != nil {
			_ = sealed.Close()
			l.fail(err)
			return err
		}
		l.cfg.Metrics.Inc(telemetry.WALFsyncs, 0)
	}
	_ = sealed.Close()

	// 2. Clock, then consistent scan.
	c0, w, err := l.scan()
	if err != nil {
		return err
	}

	// 3. Install the snapshot.
	err = w.finish(c0)
	if err == nil {
		err = installSnapshot(l.cfg.FS, l.cfg.Dir)
	}
	if err != nil {
		w.abandon(l.cfg.FS, l.cfg.Dir)
		return fmt.Errorf("wal: snapshot write skipped: %w", err)
	}

	// 4. Truncate.
	for idx := l.minSeg; idx < l.segIdx; idx++ {
		_ = l.cfg.FS.Remove(segPath(l.cfg.Dir, idx))
	}
	l.minSeg = l.segIdx
	l.cfg.Metrics.Inc(telemetry.WALSnapshots, 0)
	return nil
}

// rotate makes next the active segment under fileMu and returns the one it
// seals, dirty when that one holds bytes never fsynced. A failed log
// rotates nothing.
func (l *Log) rotate(next File) (sealed File, dirty bool, err error) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.Failed() {
		return nil, false, l.terminalErr()
	}
	sealed, dirty = l.f, l.unsynced.Load() > 0
	l.f = next
	l.unsynced.Store(0)
	l.lastSync.Store(obs.Now())
	l.segIdx++
	return sealed, dirty, nil
}

// scan runs step 2 of a snapshot cycle under fileMu: it streams a scan
// stamped c0 into snapshot.tmp.
func (l *Log) scan() (c0 uint64, w *snapWriter, err error) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	w, err = createSnapWriter(l.cfg.FS, l.cfg.Dir)
	if err != nil {
		return 0, nil, fmt.Errorf("wal: snapshot write skipped: %w", err)
	}
	c0 = l.cfg.Source.ClockNow()
	if err := l.cfg.Source.Scan(w.begin, w.put); err != nil {
		w.abandon(l.cfg.FS, l.cfg.Dir)
		return 0, nil, fmt.Errorf("wal: snapshot scan skipped: %w", err)
	}
	return c0, w, nil
}

// Stats reports the log's cumulative activity (mirrors the telemetry
// counters; handy for tests with detached metrics).
func (l *Log) Stats() (appends, bytes, fsyncs, snapshots uint64) {
	return l.cfg.Metrics.Load(telemetry.WALAppends), l.cfg.Metrics.Load(telemetry.WALBytes),
		l.cfg.Metrics.Load(telemetry.WALFsyncs), l.cfg.Metrics.Load(telemetry.WALSnapshots)
}
