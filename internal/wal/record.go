// Package wal is the durability layer: a per-shard write-ahead log of the
// shard's transaction sequence (Tseq). Because every commit draws a unique
// write version wv while an event sink is installed (see DESIGN.md
// "Commit-path deviations"), the commit stream the EventSink hook delivers
// IS a total order of the shard's state changes — this package writes that
// order to disk as length-prefixed redo records, group-commits them with a
// configurable fsync window, periodically snapshots the shard's KV state
// to truncate the log, and replays snapshot+log on startup.
//
// Two orderings must not be confused:
//
//   - Append order: TxCommit fires on the committing goroutine after its
//     locks release, so records from different threads reach the log in
//     nondeterministic file order.
//   - Commit order: each record carries its wv. Replay sorts by wv, which
//     reconstructs the exact serialization the STM chose.
//
// Durability contract: WaitAcked(seq) returns once record seq is in the
// OS page cache (relaxed mode, surviving process kills) or fsynced
// (strict mode, FsyncInterval == 0, surviving power loss). The serving
// layer withholds client responses until then, so "acked" always implies
// "will be recovered".
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record kinds.
const (
	kindCommit byte = 1
	kindAbort  byte = 2
)

// Redo op codes inside a commit record.
const (
	opPut byte = 1
	opDel byte = 2
)

// Segment and snapshot file magics, 8 bytes each.
var (
	segMagic  = []byte("GSTMWAL1")
	snapMagic = []byte("GSTMSNP1")
)

// MaxOps bounds ops per commit record: recovery reads a longer record as
// corruption, not data, so the serving layer cuts its batches to fit.
const MaxOps = 1 << 12

// maxPayload bounds one record's payload so a corrupt length prefix can
// never make recovery allocate or scan gigabytes.
const maxPayload = 16 + MaxOps*17

// castagnoli is the CRC-32C table used for record and snapshot checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a structurally invalid record during replay. Scanning
// stops at the first corrupt frame: everything before it is the valid
// prefix, everything after is an unreachable tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// Op is one redo image inside a commit record: a Put of Val under Key, or
// a Del of Key.
type Op struct {
	Del bool
	Key uint64
	Val uint64
}

// CommitRecord is one logged commit: the transaction's identity, its
// global write version, how many aborts it suffered, and its redo images.
type CommitRecord struct {
	WV     uint64
	Site   uint16
	Thread uint16
	Aborts uint8
	Ops    []Op
}

// AbortRecord is one logged abort event, kept so recovery can reconstruct
// the full Tseq (commit + the aborts it caused) and pre-train the shard's
// TSA — the guided warmup.
type AbortRecord struct {
	ByWV   uint64
	Site   uint16
	Thread uint16
	Known  bool
}

// appendCommit appends the framed encoding of a commit record to dst:
//
//	u32 paylen | payload | u32 crc32c(payload)
//	payload = u8 kind | u8 aborts | u16 site | u16 thread | u64 wv |
//	          u16 nops | nops × (u8 op | u64 key | [u64 val if put])
func appendCommit(dst []byte, r CommitRecord) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // paylen placeholder
	dst = append(dst, kindCommit, r.Aborts)
	dst = binary.BigEndian.AppendUint16(dst, r.Site)
	dst = binary.BigEndian.AppendUint16(dst, r.Thread)
	dst = binary.BigEndian.AppendUint64(dst, r.WV)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(r.Ops)))
	for _, op := range r.Ops {
		if op.Del {
			dst = append(dst, opDel)
			dst = binary.BigEndian.AppendUint64(dst, op.Key)
			continue
		}
		dst = append(dst, opPut)
		dst = binary.BigEndian.AppendUint64(dst, op.Key)
		dst = binary.BigEndian.AppendUint64(dst, op.Val)
	}
	return sealFrame(dst, start)
}

// appendAbort appends the framed encoding of an abort record to dst.
func appendAbort(dst []byte, r AbortRecord) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	known := byte(0)
	if r.Known {
		known = 1
	}
	dst = append(dst, kindAbort, known)
	dst = binary.BigEndian.AppendUint16(dst, r.Site)
	dst = binary.BigEndian.AppendUint16(dst, r.Thread)
	dst = binary.BigEndian.AppendUint64(dst, r.ByWV)
	return sealFrame(dst, start)
}

// sealFrame back-fills the length prefix at start and appends the payload
// checksum.
func sealFrame(dst []byte, start int) []byte {
	payload := dst[start+4:]
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// frameAt parses the frame starting at buf[off:]. It returns the payload
// and the offset just past the frame, or an error when the bytes from off
// on do not form a complete, checksummed frame (a torn or corrupt tail).
func frameAt(buf []byte, off int) (payload []byte, next int, err error) {
	if off+4 > len(buf) {
		return nil, 0, fmt.Errorf("%w: truncated length prefix", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(buf[off : off+4]))
	if n == 0 || n > maxPayload {
		return nil, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if off+4+n+4 > len(buf) {
		return nil, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	payload = buf[off+4 : off+4+n]
	sum := binary.BigEndian.Uint32(buf[off+4+n : off+8+n])
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, off + 8 + n, nil
}

// decodePayload decodes one checksummed payload into a commit or abort
// record (exactly one of the returns is meaningful; kind tells which).
func decodePayload(payload []byte) (kind byte, c CommitRecord, a AbortRecord, err error) {
	if len(payload) < 14 {
		return 0, c, a, fmt.Errorf("%w: payload of %d bytes", ErrCorrupt, len(payload))
	}
	kind = payload[0]
	switch kind {
	case kindCommit:
		c.Aborts = payload[1]
		c.Site = binary.BigEndian.Uint16(payload[2:4])
		c.Thread = binary.BigEndian.Uint16(payload[4:6])
		c.WV = binary.BigEndian.Uint64(payload[6:14])
		if len(payload) < 16 {
			return 0, c, a, fmt.Errorf("%w: commit header", ErrCorrupt)
		}
		nops := int(binary.BigEndian.Uint16(payload[14:16]))
		if nops > MaxOps {
			return 0, c, a, fmt.Errorf("%w: %d ops", ErrCorrupt, nops)
		}
		body := payload[16:]
		c.Ops = make([]Op, 0, nops)
		for i := 0; i < nops; i++ {
			if len(body) < 9 {
				return 0, c, a, fmt.Errorf("%w: truncated op", ErrCorrupt)
			}
			switch body[0] {
			case opDel:
				c.Ops = append(c.Ops, Op{Del: true, Key: binary.BigEndian.Uint64(body[1:9])})
				body = body[9:]
			case opPut:
				if len(body) < 17 {
					return 0, c, a, fmt.Errorf("%w: truncated put", ErrCorrupt)
				}
				c.Ops = append(c.Ops, Op{Key: binary.BigEndian.Uint64(body[1:9]), Val: binary.BigEndian.Uint64(body[9:17])})
				body = body[17:]
			default:
				return 0, c, a, fmt.Errorf("%w: op code %d", ErrCorrupt, body[0])
			}
		}
		if len(body) != 0 {
			return 0, c, a, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body))
		}
		return kind, c, a, nil
	case kindAbort:
		if len(payload) != 14 {
			return 0, c, a, fmt.Errorf("%w: abort of %d bytes", ErrCorrupt, len(payload))
		}
		a.Known = payload[1] != 0
		a.Site = binary.BigEndian.Uint16(payload[2:4])
		a.Thread = binary.BigEndian.Uint16(payload[4:6])
		a.ByWV = binary.BigEndian.Uint64(payload[6:14])
		return kind, c, a, nil
	default:
		return 0, c, a, fmt.Errorf("%w: record kind %d", ErrCorrupt, kind)
	}
}

// scanSegment walks a segment image (magic header + frames), calling
// onCommit/onAbort for each structurally valid record in file order. It
// stops at the first invalid frame — a torn tail from a crash mid-write,
// or bit rot — and reports how many trailing bytes it abandoned. A missing
// or wrong magic abandons the whole file. scanSegment never panics on any
// input; FuzzWALReplay holds it to that.
func scanSegment(buf []byte, onCommit func(CommitRecord), onAbort func(AbortRecord)) (dropped int) {
	if len(buf) < len(segMagic) || string(buf[:len(segMagic)]) != string(segMagic) {
		return len(buf)
	}
	off := len(segMagic)
	for off < len(buf) {
		payload, next, err := frameAt(buf, off)
		if err != nil {
			return len(buf) - off
		}
		kind, c, a, err := decodePayload(payload)
		if err != nil {
			return len(buf) - off
		}
		if kind == kindCommit {
			onCommit(c)
		} else {
			onAbort(a)
		}
		off = next
	}
	return 0
}
