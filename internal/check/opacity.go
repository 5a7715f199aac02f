// Package check is an opacity oracle for the engines' tests: a Recorder per
// goroutine logs a run's attempts, and Opacity decides the whole history.
package check

import (
	"fmt"
	"slices"
)

// An Access reads or writes version Val of location Loc. Each location starts
// at version 0; the values a test writes to it are positive, unique and
// increase in commit order, so they are its version order.
type Access struct {
	Loc int
	Val int64
}

// An Attempt is one run of a transaction body: what it read before it
// committed or aborted, and what it wrote, once per location.
type Attempt struct {
	Reads, Writes []Access
	Committed     bool
}

// A Recorder logs one goroutine's attempts. A body calls Begin first, then
// Read or Write beside each engine access; the engine's result goes through
// Done. An attempt Done never closed is one the engine aborted.
type Recorder []Attempt

// Begin opens an attempt; Read and Write record an access of it and return val.
func (r *Recorder) Begin()                         { *r = append(*r, Attempt{}) }
func (r *Recorder) Read(loc int, val int64) int64  { return add(&r.open().Reads, loc, val) }
func (r *Recorder) Write(loc int, val int64) int64 { return add(&r.open().Writes, loc, val) }

// Done marks the open attempt committed if err is nil, and returns err.
func (r *Recorder) Done(err error) error {
	r.open().Committed = err == nil
	return err
}

func (r *Recorder) open() *Attempt { return &(*r)[len(*r)-1] }

func add(s *[]Access, loc int, val int64) int64 {
	*s = append(*s, Access{loc, val})
	return val
}

// Opacity returns the first violation in the history of recs, or nil. All
// attempts, committed or aborted, must fit one serial order whose edges are
// version order (a version's writer before the next version's), read-from (a
// writer before its readers) and anti-dependency (readers before the next
// version's writer): every attempt reads a prefix of one commit order, the
// wv-prefix condition of Guerraoui & Kapalka with the order learnt from the
// values. So a cycle, a duplicate version or a read of a version never
// written is a violation. Past one sort per location, the check is linear.
func Opacity(recs ...Recorder) error {
	all := slices.Concat(recs...)
	writer, next := map[Access]int{}, map[Access]int{} // a version's writer, and its successor's
	vals := map[int][]int64{}                          // each location's versions
	for n, a := range all {
		if !a.Committed {
			continue
		}
		for _, w := range a.Writes {
			if _, dup := writer[w]; dup {
				return fmt.Errorf("two commits wrote loc %d = %d", w.Loc, w.Val)
			}
			writer[w] = n
			vals[w.Loc] = append(vals[w.Loc], w.Val)
		}
	}
	for loc, vs := range vals {
		slices.Sort(vs)
		vs = slices.Insert(vs, 0, 0) // version 0 precedes every write
		for i := 1; i < len(vs); i++ {
			next[Access{loc, vs[i-1]}] = writer[Access{loc, vs[i]}]
		}
	}
	succ, indeg := make([][]int, len(all)), make([]int, len(all))
	edge := func(from, to int) {
		if from != to {
			succ[from] = append(succ[from], to)
			indeg[to]++
		}
	}
	for v, n := range next {
		if w, ok := writer[v]; ok {
			edge(w, n)
		}
	}
	for n, a := range all {
		for _, r := range a.Reads {
			if w, ok := writer[r]; ok {
				edge(w, n)
			} else if r.Val != 0 {
				return fmt.Errorf("read of loc %d = %d, which no commit wrote", r.Loc, r.Val)
			}
			if w, ok := next[r]; ok {
				edge(n, w)
			}
		}
	}
	var order []int // Kahn's topological sort
	for n, d := range indeg {
		if d == 0 {
			order = append(order, n)
		}
	}
	for k := 0; k < len(order); k++ {
		for _, s := range succ[order[k]] {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, s)
			}
		}
	}
	if len(order) < len(all) {
		a := all[slices.IndexFunc(indeg, func(d int) bool { return d > 0 })]
		return fmt.Errorf("%d of %d attempts lie on or after a cycle, as %+v", len(all)-len(order), len(all), a)
	}
	return nil
}
