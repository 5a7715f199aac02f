package main

import (
	"hash/fnv"
	"math"
	"time"

	"gstm/internal/server"
)

// Run shape shared by every workload (see README.md for how each value was
// chosen on the 2-core reference VM).
const (
	conns      = 2   // closed-loop client connections = server workers
	pipeWindow = 16  // requests outstanding per connection in pipe slices
	scanWindow = 128 // window of the preload and of the oracle's final scan
	warmOps    = 200_000
	chunkOps   = 2048 // hot_guided: extra warm-up granted per ModeGuided poll
	maxChunks  = 200
	setups     = 3 // set-ups timed per untraced run; setup_s is their median

	profileOps    = 2048
	profileSlices = 4
	snapshotEvery = 50_000
	// walFsyncInterval is the durable workload's flush policy, the same on
	// every commit measured: acknowledge on write(2), fsync in the
	// background at most this often. README.md "write_durable" says why it
	// is not strict.
	walFsyncInterval = time.Second
)

// workload is one traffic mix plus the server configuration it runs against.
// The mix fields alone determine the op stream, so hot_guided and
// hot_unguided — which differ only in guided — issue identical frames.
type workload struct {
	name string
	why  string

	shards int
	keys   int
	skew   float64 // key = keys·u^skew; 1 is uniform
	// Mix in percent; the remainder after get+put+txn is Add.
	getPct, putPct, txnPct int

	durable bool // WAL on
	guided  bool // lifecycle on with ForceGuidance; measured only in ModeGuided
}

var workloads = []workload{
	{
		name:   "read_uniform",
		why:    "90% Get / 10% Put, 262144 uniform keys, 2 shards, in-memory: codec, queue, batching and the tl2 read-only path; WAL, gate and coordinator idle",
		shards: 2, keys: 1 << 18, skew: 1, getPct: 90, putPct: 10,
	},
	{
		name:   "write_durable",
		why:    "100% Add on the same keyspace with the WAL on and snapshot cycles: wal append/group commit, acker and the tl2 lock/validate/publish path; catches read gains paid for by writes",
		shards: 2, keys: 1 << 18, skew: 1, durable: true,
	},
	{
		name:   "transfer_xshard",
		why:    "50% two-key zero-sum OpTxn transfers over Gets, 65536 keys, 2 shards: the coordinator and the cross-shard commit (xprepare/xpublish) dominate",
		shards: 2, keys: 1 << 16, skew: 1, getPct: 50, txnPct: 50,
	},
	{
		name:   "hot_unguided",
		why:    "80% Add / 20% Get on 128 skewed keys, 1 shard, gate bypassed: conflict, abort and retry inside tl2 dominate; the twin an engine change must also move",
		shards: 1, keys: 128, skew: 5, getPct: 20,
	},
	{
		name:   "hot_guided",
		why:    "byte-identical stream to hot_unguided with the TSA gate installed: only a guide/model change may move this and not its twin; their ratio is the paper's guidance cost",
		shards: 1, keys: 128, skew: 5, getPct: 20, guided: true,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// serverConfig is the server this workload is served by. Buckets follows the
// keyspace (load factor ≤ 1) the way an operator sizes a table for its data.
func (w *workload) serverConfig(walDir string) server.Config {
	cfg := server.Config{
		Addr:          "127.0.0.1:0",
		Shards:        w.shards,
		Workers:       conns,
		Buckets:       max(w.keys, 4096),
		Unguided:      !w.guided,
		ForceGuidance: w.guided,
		ProfileOps:    profileOps,
		ProfileSlices: profileSlices,
	}
	if w.durable {
		cfg.WALDir = walDir
		cfg.FsyncInterval = walFsyncInterval
		cfg.SnapshotEvery = snapshotEvery
	}
	return cfg
}

// mutatesValues reports whether a key's value ever differs from baseValue,
// i.e. whether single Gets stop being checkable.
func (w *workload) mutatesValues() bool { return w.getPct+w.putPct < 100 }

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opAdd
	opTxn // transfer 1 from key to key2
)

type op struct {
	kind      opKind
	key, key2 uint64
}

// baseValue is what the preload stores under key and what every Put of the
// mix stores again, so a Get on a Put/Get-only workload is checkable no
// matter how requests interleave.
func baseValue(key uint64) uint64 { return (key*0x9E3779B97F4A7C15)>>40 | 1 }

// rng is splitmix64. The bench owns its generator so the op stream cannot
// change when the program under test does.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Stream ids: connection c measures on stream c and warms up on
// warmStream+c, so the measured stream starts at the same op however long
// the warm-up ran.
const warmStream = 1 << 16

// stream is one connection's endless op sequence, a pure function of the
// workload's mix, the seed and the stream id.
type stream struct {
	w *workload
	r rng
}

func newStream(w *workload, seed uint64, id int) *stream {
	s := &stream{w: w, r: rng(seed ^ uint64(id+1)*0xD1B54A32D192ED03)}
	s.r.next()
	return s
}

func (s *stream) key() uint64 {
	u := s.r.next()
	if s.w.skew == 1 {
		return u % uint64(s.w.keys)
	}
	f := float64(u>>11) / (1 << 53)
	return uint64(float64(s.w.keys-1) * math.Pow(f, s.w.skew))
}

func (s *stream) next() op {
	w := s.w
	p := int(s.r.next() % 100)
	k := s.key()
	switch {
	case p < w.getPct:
		return op{kind: opGet, key: k}
	case p < w.getPct+w.putPct:
		return op{kind: opPut, key: k}
	case p < w.getPct+w.putPct+w.txnPct:
		k2 := s.key()
		if k2 == k {
			k2 = (k + 1) % uint64(w.keys)
		}
		return op{kind: opTxn, key: k, key2: k2}
	default:
		return op{kind: opAdd, key: k}
	}
}

// take returns the next n ops as a slice (the ladder's replay input).
func (s *stream) take(n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// limited yields the stream's next n ops, then reports exhaustion.
func (s *stream) limited(n int) func() (op, bool) {
	return func() (op, bool) {
		if n == 0 {
			return op{}, false
		}
		n--
		return s.next(), true
	}
}

func (s *stream) endless() func() (op, bool) {
	return func() (op, bool) { return s.next(), true }
}

// keyRange yields one op of kind per key lo, lo+step, … below hi: the
// preload (Put) and the oracle's final scan (Get).
func keyRange(kind opKind, lo, hi, step uint64) func() (op, bool) {
	return func() (op, bool) {
		if lo >= hi {
			return op{}, false
		}
		o := op{kind: kind, key: lo}
		lo += step
		return o, true
	}
}

// streamHash fingerprints the first n ops of every connection's measured
// stream.
func streamHash(w *workload, seed uint64, n int) uint64 {
	h := fnv.New64a()
	var b [17]byte
	for c := 0; c < conns; c++ {
		s := newStream(w, seed, c)
		for i := 0; i < n; i++ {
			o := s.next()
			b[0] = byte(o.kind)
			for j := 0; j < 8; j++ {
				b[1+j] = byte(o.key >> (8 * j))
				b[9+j] = byte(o.key2 >> (8 * j))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
