package server

import (
	"sync"
	"testing"
	"time"

	"gstm/internal/xrand"
)

// TestShardedServerOracle runs the sequential-oracle workload shape
// against a 4-shard server: shared keys take only commutative adds,
// private keys are tracked exactly, and every shard commits.
func TestShardedServerOracle(t *testing.T) {
	s := startServer(t, Config{Shards: 4, Workers: 4, Batch: 8, Unguided: true})
	addr := s.Addr().String()
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", s.Shards())
	}

	const (
		clients   = 6
		opsPer    = 300
		sharedLen = 8
	)
	shared := make([][sharedLen]uint64, clients)
	type priv struct {
		present bool
		val     uint64
	}
	privs := make([]priv, clients)
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			pk := uint64(5000 + ci)
			r := xrand.NewThread(23, ci)
			for i := 0; i < opsPer; i++ {
				switch r.Intn(3) {
				case 0:
					k := uint64(r.Intn(sharedLen))
					d := uint64(r.Intn(9) + 1)
					if _, err := cl.Add(k, int64(d)); err != nil {
						errc <- err
						return
					}
					shared[ci][k] += d
				case 1:
					v := r.Uint64() >> 1
					existed, err := cl.Put(pk, v)
					if err != nil {
						errc <- err
						return
					}
					if existed != privs[ci].present {
						errc <- errMismatch(ci, "put", existed, privs[ci].present)
						return
					}
					privs[ci] = priv{present: true, val: v}
				default:
					removed, err := cl.Del(pk)
					if err != nil {
						errc <- err
						return
					}
					if removed != privs[ci].present {
						errc <- errMismatch(ci, "del", removed, privs[ci].present)
						return
					}
					privs[ci] = priv{}
				}
			}
		}(ci)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k := 0; k < sharedLen; k++ {
		var want uint64
		for ci := range shared {
			want += shared[ci][k]
		}
		got, ok, err := cl.Get(uint64(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || got != want {
			t.Fatalf("shared key %d: got (%d,%v), want %d", k, got, ok, want)
		}
	}
	for ci := range privs {
		got, ok, err := cl.Get(uint64(5000 + ci))
		if err != nil {
			t.Fatal(err)
		}
		if ok != privs[ci].present || (ok && got != privs[ci].val) {
			t.Fatalf("private key %d: got (%d,%v), oracle %+v", ci, got, ok, privs[ci])
		}
	}

	// Every shard saw traffic: 8 shared keys + privates spread by hash.
	if n, err := cl.Info(InfoShards); err != nil || n != 4 {
		t.Fatalf("InfoShards = %d (err %v), want 4", n, err)
	}
	for sh := 0; sh < 4; sh++ {
		if c, _ := s.Router().System(sh).Stats(); c == 0 {
			t.Fatalf("shard %d committed nothing", sh)
		}
	}
}

func errMismatch(ci int, op string, got, want bool) error {
	return &mismatchError{ci: ci, op: op, got: got, want: want}
}

type mismatchError struct {
	ci        int
	op        string
	got, want bool
}

func (e *mismatchError) Error() string {
	return "client " + e.op + " oracle mismatch"
}

// TestShardedLifecycleIndependence drives a 2-shard server through the
// live lifecycle, each shard at its own pace, then puts shard 0 in the
// state an analyzer rejection leaves (guidance off, ModeRejected) mid-run:
// shard 1 must stay guided, the aggregate mode must keep reporting guided,
// and traffic must stay correct throughout.
func TestShardedLifecycleIndependence(t *testing.T) {
	s := startServer(t, Config{
		Shards:        2,
		Workers:       2,
		Batch:         4,
		ProfileOps:    48,
		ProfileSlices: 2,
		ForceGuidance: true,
	})
	addr := s.Addr().String()

	const clients = 4
	stopLoad := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	totals := make([]uint64, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			r := xrand.NewThread(31, ci)
			for {
				select {
				case <-stopLoad:
					return
				default:
				}
				if _, err := cl.Add(uint64(r.Intn(16)), 1); err != nil {
					errc <- err
					return
				}
				totals[ci]++
			}
		}(ci)
	}

	ctl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	// Wait for BOTH shards to go guided: each counts its own ProfileOps.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m0, m1 := s.ShardMode(0), s.ShardMode(1)
		if m0 == ModeGuided && m1 == ModeGuided {
			break
		}
		if time.Now().After(deadline) {
			close(stopLoad)
			wg.Wait()
			t.Fatalf("shards never both guided (shard0 %v, shard1 %v)", m0, m1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reject shard 0 under load; shard 1 must not notice.
	s.Router().System(0).DisableGuidance()
	s.lcs[0].mode.Store(uint32(ModeRejected))
	if m := s.ShardMode(0); m != ModeRejected {
		t.Fatalf("shard 0 mode = %v, want rejected", m)
	}
	if m := s.ShardMode(1); m != ModeGuided {
		t.Fatalf("shard 1 mode = %v, want guided", m)
	}
	if m := s.Mode(); m != ModeGuided {
		t.Fatalf("aggregate mode = %v, want guided (rejected neighbor must not demote)", m)
	}
	if !s.Router().System(1).Guided() {
		t.Fatal("shard 1 lost its gate when shard 0 was rejected")
	}

	// Keep serving with the split topology, then verify the sum.
	time.Sleep(50 * time.Millisecond)
	close(stopLoad)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	var want uint64
	for _, n := range totals {
		want += n
	}
	var got uint64
	for k := 0; k < 16; k++ {
		if v, ok, err := ctl.Get(uint64(k)); err != nil {
			t.Fatal(err)
		} else if ok {
			got += v
		}
	}
	if got != want {
		t.Fatalf("sum across keys = %d, want %d acknowledged adds", got, want)
	}
}
