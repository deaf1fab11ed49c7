package instrument

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/fp"
)

// Side identifies one direction of a conditional branch.
type Side struct {
	Site  int
	Taken bool
}

// MarshalText encodes the side as "site:t" / "site:f", making
// Side-keyed maps (coverage reports) JSON-serializable.
func (s Side) MarshalText() ([]byte, error) {
	out := strconv.AppendInt(nil, int64(s.Site), 10)
	if s.Taken {
		return append(out, ":t"...), nil
	}
	return append(out, ":f"...), nil
}

// UnmarshalText decodes the MarshalText form.
func (s *Side) UnmarshalText(text []byte) error {
	str := string(text)
	i := strings.IndexByte(str, ':')
	if i < 0 {
		return fmt.Errorf("bad side %q, want site:t or site:f", str)
	}
	site, err := strconv.Atoi(str[:i])
	if err != nil {
		return fmt.Errorf("bad side %q: %v", str, err)
	}
	var taken bool
	switch str[i+1:] {
	case "t":
		taken = true
	case "f":
		taken = false
	default:
		return fmt.Errorf("bad side %q, want site:t or site:f", str)
	}
	s.Site, s.Taken = site, taken
	return nil
}

// SideSet is a set of branch sides stored as a bitset: side (site,
// taken) is bit 2·site+taken. Branch site IDs are dense from 0
// (rt.BranchInfo.ID), so a program's whole side space fits in a few
// words, and a membership test is a shift and a mask instead of a
// hashed map lookup. The zero value is an empty set; a nil *SideSet
// reads as empty.
type SideSet struct {
	words []uint64
}

// pair returns site's two side bits: bit 0 is the not-taken side, bit
// 1 the taken side. Both live in one word because 2·site is even.
func (s *SideSet) pair(site int) uint64 {
	b := uint(2 * site)
	if s == nil || b/64 >= uint(len(s.words)) {
		return 0 // also rejects negative sites, which wrap to huge b
	}
	return s.words[b/64] >> (b % 64) & 3
}

// Has reports whether side is in the set.
func (s *SideSet) Has(side Side) bool {
	return s.pair(side.Site)>>takenBit(side.Taken)&1 != 0
}

// Add inserts side. Branch site IDs are never negative.
func (s *SideSet) Add(side Side) {
	if side.Site < 0 {
		panic("instrument: SideSet.Add of a negative branch site")
	}
	b := uint(2*side.Site) + takenBit(side.Taken)
	for b/64 >= uint(len(s.words)) {
		s.words = append(s.words, 0)
	}
	s.words[b/64] |= 1 << (b % 64)
}

// Clear empties the set, keeping its storage.
func (s *SideSet) Clear() { clear(s.words) }

// Clone returns a copy that shares no storage with s.
func (s *SideSet) Clone() *SideSet {
	return &SideSet{words: append([]uint64(nil), s.words...)}
}

func takenBit(taken bool) uint {
	if taken {
		return 1
	}
	return 0
}

// Coverage accumulates the branch-coverage weak distance (§2 Instance 4,
// the CoverMe construction [17]): given the set B of branch sides already
// covered, W(x) is zero iff executing on x takes some side outside B.
// While the execution only takes covered sides, every branch whose
// opposite side is still uncovered contributes the branch distance
// toward flipping it, steering the search toward the uncovered frontier.
// B is a SideSet, so each branch event reads both of its site's sides
// with one word load.
//
// With ULP set, distances are measured on the ULP scale.
type Coverage struct {
	// Covered is the set B. The analysis driver hands every monitor of
	// a round the same snapshot and grows its own copy after each
	// successful round; monitors only read it.
	Covered *SideSet
	// ULP selects the ULP branch distance.
	ULP bool

	w      float64
	hitNew bool
}

// NewCoverage returns a monitor with an empty covered set.
func NewCoverage() *Coverage {
	return &Coverage{Covered: &SideSet{}}
}

// Reset implements rt.Monitor.
func (m *Coverage) Reset() {
	m.w = 0
	m.hitNew = false
}

// Branch implements rt.Monitor.
func (m *Coverage) Branch(site int, op fp.CmpOp, a, b float64) {
	t := takenBit(op.Eval(a, b))
	pair := m.Covered.pair(site)
	if pair>>t&1 == 0 {
		m.hitNew = true // this execution covers something new: a solution
		return
	}
	if pair>>(t^1)&1 == 0 {
		// Opposite side uncovered: add the distance to flipping this
		// branch.
		required := op.Negate()
		var d float64
		if m.ULP {
			d = fp.BranchDistULP(required, a, b)
		} else {
			d = fp.BranchDist(required, a, b)
		}
		m.w += d
		if math.IsInf(m.w, 0) || math.IsNaN(m.w) {
			m.w = fp.MaxFloat
		}
	}
}

// FPOp implements rt.Monitor.
func (m *Coverage) FPOp(int, float64) bool { return false }

// Value implements rt.Monitor: zero iff a new side was taken; otherwise
// the accumulated flip distances, with a positive floor so W never
// vanishes on a non-solution (Def. 3.1(b)).
func (m *Coverage) Value() float64 {
	if m.hitNew {
		return 0
	}
	if m.w > 0 {
		return m.w
	}
	// No uncovered side is adjacent to this execution: flat region.
	return 1
}

// RecordNewSides is a monitor capturing which uncovered sides an
// execution takes. The driver replays a solution under it and merges the
// result into Covered.
type RecordNewSides struct {
	// Covered is the set of sides not to report; nil reports every side
	// the execution takes.
	Covered *SideSet

	sides []Side
	seen  SideSet
}

// Reset implements rt.Monitor.
func (m *RecordNewSides) Reset() {
	m.sides = m.sides[:0]
	m.seen.Clear()
}

// Branch implements rt.Monitor.
func (m *RecordNewSides) Branch(site int, op fp.CmpOp, a, b float64) {
	s := Side{site, op.Eval(a, b)}
	if !m.Covered.Has(s) && !m.seen.Has(s) {
		m.seen.Add(s)
		m.sides = append(m.sides, s)
	}
}

// FPOp implements rt.Monitor.
func (m *RecordNewSides) FPOp(int, float64) bool { return false }

// Value implements rt.Monitor.
func (m *RecordNewSides) Value() float64 {
	if len(m.sides) > 0 {
		return 0
	}
	return 1
}

// Sides returns the newly covered sides in first-hit order.
func (m *RecordNewSides) Sides() []Side { return m.sides }
