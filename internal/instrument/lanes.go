// Lane support for the batch evaluation contract.
//
// A lane-parallel sweep (rt.Program.ExecuteBatch over a compiled
// program) drives one monitor instance per lane, so per-lane
// accumulation — identical traces and weak distances to K serial
// runs — falls out of the monitors being ordinary single-execution
// state machines. What lives here are the rt.FPOpFree declarations
// for every branch-only monitor. Their FPOp methods are pure no-ops,
// so a batch engine may skip the per-lane FPOp dispatch on arithmetic
// instructions — the dominant dispatch cost of a sweep — without
// changing a single observable. The overflow and non-finite monitors
// observe FP operations (and request Algorithm-3 early stops), so
// they deliberately carry no declaration and keep the full dispatch.

package instrument

import "repro/internal/rt"

// FPOpFree implements rt.FPOpFree: boundary distances observe branches
// only.
func (m *Boundary) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree.
func (m *BoundaryWitness) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree: coverage distances observe branches
// only.
func (m *Coverage) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree.
func (m *RecordNewSides) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree: path distances observe branches
// only.
func (m *Path) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree.
func (m *PathWitness) FPOpFree() bool { return true }

// FPOpFree implements rt.FPOpFree.
func (m *Characteristic) FPOpFree() bool { return true }

var (
	_ rt.FPOpFree = (*Boundary)(nil)
	_ rt.FPOpFree = (*BoundaryWitness)(nil)
	_ rt.FPOpFree = (*Coverage)(nil)
	_ rt.FPOpFree = (*RecordNewSides)(nil)
	_ rt.FPOpFree = (*Path)(nil)
	_ rt.FPOpFree = (*PathWitness)(nil)
	_ rt.FPOpFree = (*Characteristic)(nil)
)
