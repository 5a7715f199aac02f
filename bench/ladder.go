package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gstm"
	"gstm/internal/server"
	"gstm/internal/shard"
	"gstm/internal/stats"
	"gstm/internal/stmds"
	"gstm/internal/tl2"
	"gstm/internal/wal"
)

// The ladder replays one op stream, single goroutine, no socket, against
// each layer of the serving stack from the bottom up. Each rung contains the
// one beneath it, so a rung's self time is its ns/op minus the next lower
// rung's: ROADMAP's stacked ablation engine → stmds → router → durable, with
// the loopback server's residual on top (server.wire_ns_per_op).
const (
	ladderOps     = 100_000
	ladderRepeats = 3
)

// ladder holds each rung's median ns/op; a rung the workload does not have
// reads 0.
type ladder struct {
	codec, engine, table, router, wal float64
}

// deepest is the most complete in-process stack this workload has.
func (l ladder) deepest() float64 { return max(l.router, l.wal) }

// self is a rung's own cost: its ns/op minus the rung beneath it. A layer
// cannot take negative time, so when the two rungs measure within noise of
// each other the self time reads 0.
func self(rung, beneath float64) float64 { return max(rung-beneath, 0) }

// rung executes ops against one stack depth.
type rung struct {
	name  string
	run   func(ops []op) error
	close func()
}

func runLadder(w *workload, o options, tr *tracer, parent int) (ladder, error) {
	ops := newStream(w, o.seed, 0).take(o.ladderOps)
	rungs := []rung{codecRung(), engineRung(w), tableRung(w), routerRung(w, "")}
	if w.durable {
		dir, err := os.MkdirTemp(o.walRoot, "ladder-")
		if err != nil {
			return ladder{}, err
		}
		defer os.RemoveAll(dir)
		rungs = append(rungs, routerRung(w, dir))
	}
	defer func() {
		for _, r := range rungs {
			if r.close != nil {
				r.close()
			}
		}
	}()
	lsp := tr.begin("ladder", parent)
	defer tr.end(lsp)
	nsPerOp := make(map[string][]float64)
	for rep := 0; rep < ladderRepeats; rep++ {
		for _, r := range rungs {
			sp := tr.begin("rung:"+r.name, lsp)
			t0 := time.Now()
			err := r.run(ops)
			d := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return ladder{}, fmt.Errorf("rung %s: %w", r.name, err)
			}
			nsPerOp[r.name] = append(nsPerOp[r.name], float64(d)/float64(len(ops)))
		}
	}
	return ladder{
		codec:  stats.Median(nsPerOp["codec"]),
		engine: stats.Median(nsPerOp["engine"]),
		table:  stats.Median(nsPerOp["table"]),
		router: stats.Median(nsPerOp["router"]),
		wal:    stats.Median(nsPerOp["wal"]),
	}, nil
}

// codecRung encodes and decodes each op's request and a response, as the
// client and the server's reader and writer do between them.
func codecRung() rung {
	var buf []byte
	var txn [2]server.TxnOp
	var dec []server.TxnOp
	return rung{name: "codec", run: func(ops []op) error {
		for i, o := range ops {
			req := server.Request{ID: uint32(i), Key: o.key}
			var id uint32
			if o.kind == opTxn {
				txn[0] = server.TxnOp{Op: server.OpAdd, Key: o.key, Arg: ^uint64(0)}
				txn[1] = server.TxnOp{Op: server.OpAdd, Key: o.key2, Arg: 1}
				buf = server.AppendTxnRequest(buf[:0], req, txn[:])
				r, d, err := server.DecodeTxnRequest(buf[4:], dec[:0])
				if err != nil {
					return err
				}
				id, dec = r.ID, d
			} else {
				req.Op = [...]server.Op{opGet: server.OpGet, opPut: server.OpPut, opAdd: server.OpAdd}[o.kind]
				buf = server.AppendRequest(buf[:0], req)
				r, err := server.DecodeRequest(buf[4:])
				if err != nil {
					return err
				}
				id = r.ID
			}
			buf = server.AppendResponse(buf[:0], server.Response{ID: id, Value: o.key})
			if _, err := server.DecodeResponse(buf[4:]); err != nil {
				return err
			}
		}
		return nil
	}}
}

// engineRung is the bare STM: one tl2 transaction per op over an array
// indexed by key, no data structure and no System around it.
func engineRung(w *workload) rung {
	rt := tl2.New(tl2.Config{})
	arr := tl2.NewArray[uint64](w.keys)
	var cur op
	var sink uint64
	body := func(tx *tl2.Tx) error {
		k := int(cur.key)
		switch cur.kind {
		case opGet:
			sink += tl2.ReadAt(tx, arr, k)
		case opPut:
			tl2.WriteAt(tx, arr, k, baseValue(cur.key))
		case opAdd:
			tl2.WriteAt(tx, arr, k, tl2.ReadAt(tx, arr, k)+1)
		case opTxn:
			k2 := int(cur.key2)
			tl2.WriteAt(tx, arr, k, tl2.ReadAt(tx, arr, k)-1)
			tl2.WriteAt(tx, arr, k2, tl2.ReadAt(tx, arr, k2)+1)
		}
		return nil
	}
	return rung{name: "engine", run: func(ops []op) error {
		for _, cur = range ops {
			if err := rt.Run(nil, 0, gstm.TxnID(cur.kind), body, cur.kind == opGet, 0); err != nil {
				return err
			}
		}
		return nil
	}}
}

// applyTable performs one single-key op on a store the way the server's
// worker does, returning the value a mutation left behind.
func applyTable(tx *gstm.Tx, st *stmds.HashTable[uint64], kind opKind, key uint64, delta uint64) uint64 {
	k := int64(key)
	switch kind {
	case opGet:
		v, _ := st.Get(tx, k)
		return v
	case opPut:
		st.Set(tx, k, baseValue(key))
		return baseValue(key)
	default:
		v, _ := st.Get(tx, k)
		st.Set(tx, k, v+delta)
		return v + delta
	}
}

// fill stores baseValue under every key homed (per home) on st.
func fill(sys *gstm.System, st *stmds.HashTable[uint64], keys int, mine func(key uint64) bool) {
	const batch = 512
	for lo := 0; lo < keys; lo += batch {
		// A body error is impossible here: the transaction only inserts.
		_ = sys.Run(nil, 0, 0, func(tx *gstm.Tx) error {
			for k := lo; k < min(lo+batch, keys); k++ {
				if mine(uint64(k)) {
					st.InsertNoCount(tx, int64(k), baseValue(uint64(k)))
				}
			}
			return nil
		})
	}
}

var readOnly = []gstm.TxOption{gstm.WithReadOnly()}

// tableRung adds gstm.System and the stmds hash table. The keys are split by
// key mod shards over as many tables as the router rung has stores, each the
// same size as one of those, so the two rungs walk the same memory and differ
// only in what the router adds.
func tableRung(w *workload) rung {
	sys := gstm.NewSystem(gstm.Config{Threads: 1, Label: "bench-ladder-table"})
	n := uint64(w.shards)
	stores := make([]*stmds.HashTable[uint64], n)
	for i := range stores {
		stores[i] = stmds.NewHashTable[uint64](max(w.keys, 4096) / w.shards)
		fill(sys, stores[i], w.keys, func(k uint64) bool { return k%n == uint64(i) })
	}
	var cur op
	body := func(tx *gstm.Tx) error {
		if cur.kind == opTxn {
			applyTable(tx, stores[cur.key%n], opAdd, cur.key, ^uint64(0))
			applyTable(tx, stores[cur.key2%n], opAdd, cur.key2, 1)
			return nil
		}
		applyTable(tx, stores[cur.key%n], cur.kind, cur.key, 1)
		return nil
	}
	return rung{name: "table", run: func(ops []op) error {
		for _, cur = range ops {
			var opts []gstm.TxOption
			if cur.kind == opGet {
				opts = readOnly
			}
			if err := sys.Run(nil, 0, gstm.TxnID(cur.kind), body, opts...); err != nil {
				return err
			}
		}
		return nil
	}}
}

// routerRung adds the shard router: per-shard Systems and stores, a Plan
// built and run per op, RunMulti for transfers. With a walDir it becomes the
// durable rung: each shard's log tapped in, redo staged in the body and the
// log's acknowledgment awaited per op, under the server's flush policy.
func routerRung(w *workload, walDir string) rung {
	r := shard.New(shard.Config{Shards: w.shards, Threads: 1, LabelPrefix: "bench-ladder-shard"})
	stores := make([]*stmds.HashTable[uint64], w.shards)
	for sh := range stores {
		stores[sh] = stmds.NewHashTable[uint64](max(w.keys, 4096) / w.shards)
		fill(r.System(sh), stores[sh], w.keys, func(k uint64) bool { return r.HomeOf(k) == sh })
	}
	name := "router"
	var logs []*wal.Log
	var openErr error
	if walDir != "" {
		name = "wal"
		for sh := 0; sh < w.shards && openErr == nil; sh++ {
			l, _, err := wal.Open(wal.Config{
				Dir:           filepath.Join(walDir, fmt.Sprintf("shard%d", sh)),
				Threads:       1,
				FsyncInterval: walFsyncInterval,
			})
			if err != nil {
				openErr = err
				break
			}
			r.System(sh).SetTap(l)
			logs = append(logs, l)
		}
	}
	plan := r.NewPlan()
	var cur op
	key := func(int) uint64 { return cur.key }
	body := func(tx *gstm.Tx, sh int, _ []int) error {
		v := applyTable(tx, stores[sh], cur.kind, cur.key, 1)
		if logs != nil && cur.kind != opGet {
			logs[sh].Stage(0, uint16(cur.kind)).Put(cur.key, v)
		}
		return nil
	}
	ro := shard.WithTxOptions(readOnly...)
	var parts [2]int
	multi := func(m *shard.MultiTx) error {
		applyTable(m.On(parts[0]), stores[parts[0]], opAdd, cur.key, ^uint64(0))
		applyTable(m.On(parts[1]), stores[parts[1]], opAdd, cur.key2, 1)
		return nil
	}
	return rung{
		name: name,
		run: func(ops []op) error {
			if openErr != nil {
				return openErr
			}
			for _, cur = range ops {
				if cur.kind == opTxn {
					parts = [2]int{r.HomeOf(cur.key), r.HomeOf(cur.key2)}
					if err := r.RunMulti(nil, parts[:], 0, gstm.TxnID(cur.kind), multi); err != nil {
						return err
					}
					continue
				}
				plan.Build(1, key)
				ok := false
				if cur.kind == opGet {
					ok = plan.Run(nil, 0, gstm.TxnID(cur.kind), body, ro)
				} else {
					ok = plan.Run(nil, 0, gstm.TxnID(cur.kind), body)
				}
				sh := plan.Active()[0]
				if !ok {
					return plan.Err(sh)
				}
				if logs != nil && cur.kind != opGet {
					if err := logs[sh].WaitThread(0); err != nil {
						return err
					}
				}
			}
			return nil
		},
		close: func() {
			for _, l := range logs {
				_ = l.Close() // the rung's log is scratch; its directory is removed next
			}
		},
	}
}
