package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"gstm/internal/trace"
	"gstm/internal/txid"
)

// Recovery is everything Read salvaged from a log directory: the latest
// durable snapshot, every structurally valid record above the snapshot
// stamp, and the replay bookkeeping the serving layer needs.
type Recovery struct {
	// SnapWV is the snapshot's clock stamp (0 when no snapshot exists);
	// SnapKeys/SnapVals are its KV image.
	SnapWV   uint64
	SnapKeys []uint64
	SnapVals []uint64

	// Commits holds the commit records to replay — only those with
	// wv > SnapWV, sorted ascending by wv (the global commit order).
	// Records at or below the stamp are already inside the snapshot;
	// re-applying them would clobber newer snapshot state.
	Commits []CommitRecord

	// Aborts holds every salvaged abort record (all wvs): input for the
	// guided-warmup trace, irrelevant to state reconstruction.
	Aborts []AbortRecord

	// MaxWV is the highest durable write version — max(SnapWV, commit
	// wvs). The shard clock must be advanced past it before serving.
	MaxWV uint64

	// Segments is how many log segments were scanned; DroppedBytes is the
	// total garbage tail abandoned across them (torn final writes).
	Segments     int
	DroppedBytes int

	// minSeg and maxSeg are the lowest and highest segment indices found
	// (0 and -1 when there are none): where Open resumes the log.
	minSeg, maxSeg int
}

// errNoLog is Read's answer for a directory that holds neither a segment
// nor a snapshot; Open takes it as a fresh log.
var errNoLog = errors.New("wal: no segment and no snapshot")

// Read loads dir's snapshot and scans every segment's valid prefix
// without changing the directory: unlike Open it creates nothing, leaves
// snapshot.tmp residue in place and starts no flusher, so it can inspect
// a crashed log and leave it recoverable. It fails when dir holds neither
// a segment nor a snapshot.
func Read(dir string) (*Recovery, error) { return read(OSFS{}, dir) }

// read is Read through fsys; Open recovers with it.
func read(fsys FS, dir string) (*Recovery, error) {
	rec := &Recovery{maxSeg: -1}
	var haveSnap bool
	var err error
	rec.SnapWV, rec.SnapKeys, rec.SnapVals, haveSnap, err = readSnapshotFile(fsys, dir)
	if err != nil {
		return nil, err
	}
	rec.MaxWV = rec.SnapWV

	names, err := fsys.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	idxs := make([]int, 0, len(names))
	for _, n := range names {
		var i int
		if _, err := fmt.Sscanf(filepath.Base(n), "seg-%d.log", &i); err == nil {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 && !haveSnap {
		return nil, fmt.Errorf("%w in %s", errNoLog, dir)
	}
	sort.Ints(idxs)
	if len(idxs) > 0 {
		rec.minSeg, rec.maxSeg = idxs[0], idxs[len(idxs)-1]
	}
	for _, i := range idxs {
		buf, rerr := fsys.ReadFile(segPath(dir, i))
		if rerr != nil {
			return nil, rerr
		}
		rec.Segments++
		rec.DroppedBytes += scanSegment(buf,
			func(c CommitRecord) {
				if c.WV > rec.MaxWV {
					rec.MaxWV = c.WV
				}
				if c.WV > rec.SnapWV {
					rec.Commits = append(rec.Commits, c)
				}
			},
			func(a AbortRecord) { rec.Aborts = append(rec.Aborts, a) })
	}
	// File order within a segment is append order, not commit order:
	// commits from different threads interleave arbitrarily. Sort by wv to
	// recover the serialization the STM chose. Stable is irrelevant —
	// single-shard wvs are unique while a sink is installed (and the log
	// IS a sink), and the only duplicates cross-shard commits can leave on
	// one shard come from transactions with disjoint write sets there
	// (overlapping ones serialize: the later commit ticks after the
	// earlier advanceTo, so its exchanged wv is strictly greater), making
	// replay order between equal-wv records irrelevant.
	sort.Slice(rec.Commits, func(i, j int) bool { return rec.Commits[i].WV < rec.Commits[j].WV })
	return rec, nil
}

// Replayed returns how many commit records replay will apply.
func (r *Recovery) Replayed() int { return len(r.Commits) }

// BuildTrace reconstructs the durable Tseq as a profiling trace: the
// recovered commits and aborts are fed through a trace.Collector, so the
// result is what Finalize produces from the same logged events — commits
// in wv order, each paired with the aborts attributed to it. It is not
// the whole live Tseq: the log records only commits that staged ops, so
// read-only commits (every served Get batch among them) are absent.
// Feeding it to gstm.BuildModel lets a recovering shard pre-train its TSA
// from the log and restart guided instead of cold (guided warmup).
// Returns nil when the log holds no commits.
func (r *Recovery) BuildTrace() *trace.Trace {
	if len(r.Commits) == 0 {
		return nil
	}
	c := trace.NewCollector()
	for _, cr := range r.Commits {
		c.TxCommit(txid.Pair{Txn: txid.TxnID(cr.Site), Thread: txid.ThreadID(cr.Thread)}, cr.WV, int(cr.Aborts))
	}
	for _, a := range r.Aborts {
		c.TxAbort(txid.Pair{Txn: txid.TxnID(a.Site), Thread: txid.ThreadID(a.Thread)}, a.ByWV, a.Known)
	}
	return c.Finalize()
}

// Apply folds the recovery into a fresh KV map — the sequential oracle
// the property tests compare STM replay against, and a convenient
// building block for simple embedders.
func (r *Recovery) Apply() map[uint64]uint64 {
	m := make(map[uint64]uint64, len(r.SnapKeys)+len(r.Commits))
	for i := range r.SnapKeys {
		m[r.SnapKeys[i]] = r.SnapVals[i]
	}
	for _, c := range r.Commits {
		for _, op := range c.Ops {
			if op.Del {
				delete(m, op.Key)
			} else {
				m[op.Key] = op.Val
			}
		}
	}
	return m
}
