package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot file layout:
//
//	8B magic | u64 snapWV | u64 count | count × (u64 key | u64 val) |
//	u32 crc32c(everything after the magic)
//
// Written to a temp file, fsynced, then renamed over the live name — the
// snapshot is either the complete old one or the complete new one, never
// a tear. The directory is fsynced after the rename so the new name
// itself is durable before any segment is deleted on its authority.
const snapName = "snapshot"

func snapPath(dir string) string { return filepath.Join(dir, snapName) }

const (
	// snapHdr is the byte offset of the first pair: magic, snapWV, count.
	snapHdr = 8 + 16
	// snapBufSize is the snapshot writer's one buffer: whole pairs, so a
	// cycle costs this much memory however large the shard is.
	snapBufSize = 1 << 16
)

// snapWriter streams one snapshot's pairs into snapshot.tmp through a
// fixed buffer. The pairs go in at their final offsets; the header, whose
// count is known only at the end, and the trailing checksum are written by
// finish. A write error latches: later puts are dropped and finish reports
// it.
type snapWriter struct {
	f     File
	buf   []byte
	off   int64  // file offset of buf[0]
	count uint64 // pairs put in the current attempt
	sum   uint32 // crc32c of the pairs flushed so far
	err   error
}

// createSnapWriter truncates or creates dir's snapshot.tmp.
func createSnapWriter(fsys FS, dir string) (*snapWriter, error) {
	f, err := fsys.OpenFile(snapPath(dir)+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return nil, err
	}
	return &snapWriter{f: f, buf: make([]byte, 0, snapBufSize), off: snapHdr}, nil
}

// begin starts a scan attempt: whatever an earlier attempt put is thrown
// away, on disk included.
func (w *snapWriter) begin() {
	if w.off > snapHdr && w.err == nil {
		w.err = w.f.Truncate(snapHdr)
	}
	w.buf, w.off, w.count, w.sum = w.buf[:0], snapHdr, 0, 0
}

// put appends one pair.
func (w *snapWriter) put(key, val uint64) {
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, key)
	w.buf = binary.BigEndian.AppendUint64(w.buf, val)
	w.count++
}

// flush writes the buffered pairs at their offset and folds them into the
// checksum.
func (w *snapWriter) flush() {
	if w.err == nil {
		_, w.err = w.f.WriteAt(w.buf, w.off)
	}
	w.sum = crc32.Update(w.sum, castagnoli, w.buf)
	w.off += int64(len(w.buf))
	w.buf = w.buf[:0]
}

// finish writes the trailing checksum and the header stamped snapWV, then
// fsyncs and closes the file. The checksum covers the 16 header bytes h
// ahead of the pairs p, but p was summed first, before the count in h was
// known. CRC is affine in its starting register, so
// crc(h ‖ p) = crc(p) ⊕ shift(crc(h), len(p)), where shift(s, n) =
// ^update(^s, n zero bytes) runs the bare register through n zeros.
func (w *snapWriter) finish(snapWV uint64) error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	var hdr [snapHdr]byte
	copy(hdr[:], snapMagic)
	binary.BigEndian.PutUint64(hdr[8:], snapWV)
	binary.BigEndian.PutUint64(hdr[16:], w.count)
	zeros := w.buf[:cap(w.buf)]
	clear(zeros)
	reg := ^crc32.Checksum(hdr[8:], castagnoli)
	for n := w.off - snapHdr; n > 0; n -= int64(len(zeros)) {
		reg = crc32.Update(reg, castagnoli, zeros[:min(n, int64(len(zeros)))])
	}
	sum := w.sum ^ ^reg
	if _, err := w.f.WriteAt(binary.BigEndian.AppendUint32(w.buf[:0], sum), w.off); err != nil {
		return err
	}
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// installSnapshot renames the finished snapshot.tmp over dir's snapshot
// and makes the new name durable.
func installSnapshot(fsys FS, dir string) error {
	if err := fsys.Rename(snapPath(dir)+".tmp", snapPath(dir)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// abandon closes (when still open) and removes snapshot.tmp after a
// failed cycle.
func (w *snapWriter) abandon(fsys FS, dir string) {
	if w.f != nil {
		_ = w.f.Close()
	}
	_ = fsys.Remove(snapPath(dir) + ".tmp")
}

// readSnapshotFile loads dir's snapshot. ok is false when none exists. A
// structurally invalid snapshot is an error — unlike a torn segment tail
// it cannot be the residue of a crash (the rename is atomic), so serving
// as if the state were empty would silently lose acked data.
func readSnapshotFile(fsys FS, dir string) (snapWV uint64, keys, vals []uint64, ok bool, err error) {
	buf, rerr := fsys.ReadFile(snapPath(dir))
	if rerr != nil {
		if errors.Is(rerr, os.ErrNotExist) {
			return 0, nil, nil, false, nil
		}
		return 0, nil, nil, false, rerr
	}
	snapWV, keys, vals, err = decodeSnapshot(buf)
	if err != nil {
		return 0, nil, nil, false, fmt.Errorf("wal: snapshot %s: %w", snapPath(dir), err)
	}
	return snapWV, keys, vals, true, nil
}

// decodeSnapshot parses a snapshot image. Never panics on any input.
func decodeSnapshot(buf []byte) (snapWV uint64, keys, vals []uint64, err error) {
	if len(buf) < len(snapMagic)+16+4 || string(buf[:len(snapMagic)]) != string(snapMagic) {
		return 0, nil, nil, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	body := buf[len(snapMagic) : len(buf)-4]
	sum := binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, nil, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	snapWV = binary.BigEndian.Uint64(body[0:8])
	count := binary.BigEndian.Uint64(body[8:16])
	if uint64(len(body)-16) != count*16 {
		return 0, nil, nil, fmt.Errorf("%w: snapshot of %d entries, %d body bytes", ErrCorrupt, count, len(body)-16)
	}
	keys = make([]uint64, count)
	vals = make([]uint64, count)
	for i := uint64(0); i < count; i++ {
		keys[i] = binary.BigEndian.Uint64(body[16+16*i:])
		vals[i] = binary.BigEndian.Uint64(body[24+16*i:])
	}
	return snapWV, keys, vals, nil
}
