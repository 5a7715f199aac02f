// Package trace implements the paper's profiling instrumentation: it
// captures the transaction sequence (Tseq) — every commit paired with the
// aborts it caused — and folds each such tuple into a thread transactional
// state (TTS, Section II-B).
//
// A TTS is the tuple {<aborted pairs...>, <committing pair>}: the set of
// (transaction, thread) pairs that aborted because of one commit, together
// with the pair that committed. The number of distinct TTSes exercised by a
// run is the paper's measure of non-determinism; the succession of TTSes is
// the input to model generation (internal/model).
package trace

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"gstm/internal/txid"
)

// State is a thread transactional state. Aborted is sorted and duplicate
// free; a state with no aborts ({<c3>} in the paper's notation) is a commit
// that conflicted with nobody.
type State struct {
	Aborted []txid.Packed
	Commit  txid.Packed
}

// Key is a compact, comparable encoding of a State, used as a map key by
// the model and resolved once per state by the guided-execution
// controller: 4 big-endian bytes per participant, aborted pairs first
// (sorted), committing pair last.
type Key string

// NewState builds a normalized State: aborted is copied, sorted and
// de-duplicated.
func NewState(aborted []txid.Packed, commit txid.Packed) State {
	if len(aborted) == 0 {
		return State{Commit: commit}
	}
	cp := append([]txid.Packed(nil), aborted...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	out := cp[:1]
	for _, p := range cp[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return State{Aborted: out, Commit: commit}
}

// Key returns the state's compact encoding.
func (s State) Key() Key {
	return Key(AppendKey(make([]byte, 0, 4*(len(s.Aborted)+1)), s.Aborted, s.Commit))
}

// AppendKey appends the key of NewState(aborted, commit) to buf without
// building the State: aborted is sorted in place unless it already is, and
// de-duplicated as it is encoded. It lets an online tracker reuse one buffer
// for every state.
func AppendKey(buf []byte, aborted []txid.Packed, commit txid.Packed) []byte {
	if !slices.IsSorted(aborted) {
		slices.Sort(aborted)
	}
	for i, p := range aborted {
		if i == 0 || p != aborted[i-1] {
			buf = appendPacked(buf, p)
		}
	}
	return appendPacked(buf, commit)
}

func appendPacked(buf []byte, p txid.Packed) []byte {
	return append(buf, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
}

// ParseKey decodes a Key back into its State. It returns an error when the
// key length is not a positive multiple of four bytes.
func ParseKey(k Key) (State, error) {
	b := []byte(k)
	if len(b) == 0 || len(b)%4 != 0 {
		return State{}, fmt.Errorf("trace: malformed state key of %d bytes", len(b))
	}
	n := len(b)/4 - 1
	s := State{}
	if n > 0 {
		s.Aborted = make([]txid.Packed, n)
	}
	for i := 0; i <= n; i++ {
		p := txid.Packed(uint32(b[4*i])<<24 | uint32(b[4*i+1])<<16 | uint32(b[4*i+2])<<8 | uint32(b[4*i+3]))
		if i == n {
			s.Commit = p
		} else {
			s.Aborted[i] = p
		}
	}
	return s, nil
}

// Participants reports every pair appearing in the state (aborted or
// committing).
func (s State) Participants() []txid.Packed {
	out := make([]txid.Packed, 0, len(s.Aborted)+1)
	out = append(out, s.Aborted...)
	return append(out, s.Commit)
}

// String renders the state in the paper's notation, e.g.
// "{<a1b2c3>, <d4>}" for threads 1,2,3 aborted by thread 4 committing d,
// or "{<c3>}" for an uncontended commit by thread 3.
func (s State) String() string {
	var b strings.Builder
	b.WriteByte('{')
	if len(s.Aborted) > 0 {
		b.WriteByte('<')
		for _, p := range s.Aborted {
			b.WriteString(p.String())
		}
		b.WriteString(">, ")
	}
	b.WriteByte('<')
	b.WriteString(s.Commit.String())
	b.WriteString(">}")
	return b.String()
}
