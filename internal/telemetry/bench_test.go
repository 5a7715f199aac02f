package telemetry

import (
	"sync/atomic"
	"testing"

	"gstm/internal/obs"
)

// BenchmarkTelemetryOverhead measures the record-path cost the engines pay
// per transaction. The acceptance budget: zero allocations everywhere, and
// the counter path within a small constant of a plain atomic add.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("baseline-atomic-add", func(b *testing.B) {
		var n atomic.Uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n.Add(1)
		}
	})

	b.Run("counter-inc", func(b *testing.B) {
		c := NewCounters(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc(uint64(i)&7, 0)
		}
	})

	b.Run("counter-inc-parallel", func(b *testing.B) {
		c := NewCounters(1)
		var next atomic.Uint64
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			thread := next.Add(1)
			for pb.Next() {
				c.Inc(thread, 0)
			}
		})
	})

	b.Run("txstart-txcommit", func(b *testing.B) {
		m := NewDetached("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.TxStart(1)
			m.TxCommit(1)
		}
	})

	b.Run("histogram-observe", func(b *testing.B) {
		var h obs.Hist
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(500 + i%1000))
		}
	})

	b.Run("observe-commit-sampled", func(b *testing.B) {
		// The full per-commit cost when the attempt is the 1-in-SampleEvery
		// sampled one: obs.Now stamps plus two histogram observations.
		m := NewDetached("bench")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := obs.Now()
			m.ObserveCommit(uint64(obs.Now()-t0), uint64(obs.Now()-t0), true)
		}
	})

	b.Run("gate-arrival", func(b *testing.B) {
		m := NewDetached("bench")
		cell := m.GateCell("s0/w2")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.GateArrival(cell, GatePass, uint64(i)&7, 0)
		}
	})

	b.Run("snapshot", func(b *testing.B) {
		m := NewDetached("bench")
		for i := 0; i < 1000; i++ {
			m.TxStart(uint64(i))
			m.TxCommit(uint64(i))
			m.ObserveCommit(uint64(i), 0, false)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.Snapshot()
		}
	})
}
