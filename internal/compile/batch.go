package compile

import (
	"fmt"
	"math"

	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/rt"
)

// BatchMachine executes compiled code on K inputs at once in
// structure-of-arrays lanes: register row r of lane column c lives at
// fr[r*K+c], so one instruction dispatch — the step check, the decode,
// the switch — is amortized over every lane that is executing it.
//
// Correctness is defined by the serial Machine: a batched sweep must be
// bit-identical, lane by lane, to K independent Machine.Run calls —
// same results, same per-lane monitor observation sequences, same
// assert-failure logs (ordered by lane), same step-budget aborts. The
// mechanism is the lane group: a set of lanes whose control state
// (function, pc, call stack, step count) is identical because they have
// executed the same instruction sequence so far. Groups start as the
// full batch and split at divergent conditional branches; a group's
// single step counter therefore equals every member lane's serial step
// counter, so a budget abort hits exactly the lanes (and exactly the
// instruction) it would have hit serially. Lanes leave their group
// early when their monitor requests a stop or when the entry function
// returns; a dead group's column segment is simply abandoned.
//
// A group's lanes always occupy a contiguous column range [lo, hi) of
// the register arenas, so the per-instruction inner loops are plain
// contiguous slice walks — no indirection, bounds checks eliminated.
// The price is paid where it is rare instead of per instruction: a
// divergent branch stably partitions the group's columns (perm plus
// every live register row) so both halves stay contiguous. perm maps
// column to original lane, which is all that monitors, inputs, outputs
// and failure buffers ever see.
//
// Group scheduling order is unobservable: monitors, results, and
// failure buffers are all per-lane, so running the else-half of a split
// before the then-half (or vice versa) changes nothing a caller can
// see.
type BatchMachine struct {
	mod *Module

	// MaxSteps bounds instructions per lane per sweep; zero selects
	// DefaultMaxSteps. A lane exceeding the bound reports NaN, exactly
	// like the serial Machine.
	MaxSteps int

	// OnAssertFailure, when non-nil, receives every assertion violation
	// (flushed in lane order at the end of the sweep); otherwise
	// violations accumulate in Failures.
	OnAssertFailure func(AssertFailure)
	// Failures collects assertion violations when no OnAssertFailure
	// sink is installed.
	Failures []AssertFailure
	// IgnoreAsserts skips violated assertions without building a
	// failure record, for callers that never read one.
	IgnoreAsserts bool

	k      int               // lane capacity: columns per register row
	rows   int               // allocated register rows
	fr     []float64         // float arena; register row r, column c at [r*k+c]
	br     []bool            // bool arena, parallel to fr
	perm   []int32           // column -> original lane, partitioned with the data
	take   []bool            // per-column branch outcome / survivor scratch
	partI  []int32           // stable-partition scratch: perm spill
	partF  []float64         // stable-partition scratch: float row spill
	partB  []bool            // stable-partition scratch: bool row spill
	groups []bgroup          // pending (deferred) group stack
	cur    []frame           // call stack of the running group
	fails  [][]AssertFailure // per-lane assert buffers, flushed in lane order
	nfails int

	// bnds, when non-nil during a sweep, holds every lane's monitor as a
	// plain-configuration *instrument.Boundary: the branch loops then
	// apply the boundary product through the concrete receiver
	// (inlined), skipping the per-lane interface dispatch. bndbuf
	// retains the slice's capacity across sweeps that disable the path.
	bnds   []*instrument.Boundary
	bndbuf []*instrument.Boundary

	// res holds Sweep's program-result scratch (Sweep reports monitor
	// values; the machine-level results stay internal).
	res []float64
}

// bgroup is one deferred lane group: a column segment plus the uniform
// control state its lanes share.
type bgroup struct {
	lo, hi int // columns [lo, hi)
	fidx   int32
	base   int32
	pc     int32
	steps  int
	sp     int
	stack  []frame
}

// NewBatchMachine returns a machine executing the module's code on up
// to k lanes per sweep. Like Machine, a BatchMachine owns mutable
// per-execution state and must not be used concurrently; any number of
// machines can share one Module.
func (cm *Module) NewBatchMachine(k int) *BatchMachine {
	if k < 1 {
		k = 1
	}
	return &BatchMachine{
		mod:    cm,
		k:      k,
		perm:   make([]int32, k),
		take:   make([]bool, k),
		partI:  make([]int32, 0, k),
		partF:  make([]float64, 0, k),
		partB:  make([]bool, 0, k),
		bndbuf: make([]*instrument.Boundary, 0, k),
		fails:  make([][]AssertFailure, k),
		cur:    make([]frame, 16),
	}
}

// K returns the machine's lane capacity.
func (vm *BatchMachine) K() int { return vm.k }

// ensureRows grows the arenas to hold at least n register rows,
// preserving every live row (the layout is row-major, so a prefix copy
// keeps all existing addressing valid).
func (vm *BatchMachine) ensureRows(n int) {
	if n <= vm.rows {
		return
	}
	grow := 2*vm.rows + 64
	if grow < n {
		grow = n
	}
	nf := make([]float64, grow*vm.k)
	copy(nf, vm.fr)
	vm.fr = nf
	nb := make([]bool, grow*vm.k)
	copy(nb, vm.br)
	vm.br = nb
	vm.rows = grow
}

// Run executes fn on every input of xs (len(xs) <= K lanes), writing
// lane l's result to out[l] under mons[l]: the program result for a
// completed lane, NaN for a budget abort, 0 after a monitor stop —
// the same values K serial Machine.Run calls would produce. Monitors
// are NOT reset here (the caller owns that, mirroring Machine.Run
// under rt.Program.Execute).
func (vm *BatchMachine) Run(mons []rt.Monitor, fn *Func, xs [][]float64, out []float64) {
	K := len(xs)
	if K == 0 {
		return
	}
	if len(out) != K {
		panic("compile: xs/out length mismatch")
	}
	skipFPOp := vm.prepare(mons, fn, xs)
	vm.exec(mons, fn, xs, out, skipFPOp)
}

// Sweep is the weak-distance batch evaluation: it resets every
// monitor, executes fn on all lanes, and writes lane l's accumulated
// weak distance — mons[l].Value(), exactly what rt.Program.Execute
// returns — to w[l]. It is Run plus the monitor bracketing, with the
// reset and collection loops devirtualized on the plain-Boundary fast
// path; rt.Program.RunBatch wires to it.
func (vm *BatchMachine) Sweep(mons []rt.Monitor, fn *Func, xs [][]float64, w []float64) {
	K := len(xs)
	if K == 0 {
		return
	}
	if len(w) != K {
		panic("compile: xs/w length mismatch")
	}
	skipFPOp := vm.prepare(mons, fn, xs)
	if vm.bnds != nil {
		for _, b := range vm.bnds {
			b.ResetPlain()
		}
	} else {
		for _, m := range mons {
			m.Reset()
		}
	}
	if vm.res == nil {
		vm.res = make([]float64, vm.k)
	}
	vm.exec(mons, fn, xs, vm.res[:K], skipFPOp)
	if bn := vm.bnds; bn != nil {
		for i := range w {
			w[i] = bn[i].ValuePlain()
		}
	} else {
		for i := range w {
			w[i] = mons[i].Value()
		}
	}
}

// prepare validates the batch, loads parameters into the lane columns,
// resets the permutation, and decides the sweep's two fast paths in
// the same pass over the monitors:
//   - skipFPOp (returned): every monitor declares FPOp a pure no-op,
//     so the per-lane FPOp dispatch on arithmetic can be elided;
//   - vm.bnds: every monitor is a plain-configuration
//     *instrument.Boundary (the common case — boundary value analysis
//     sweeps), so branch loops bypass the Monitor interface entirely.
func (vm *BatchMachine) prepare(mons []rt.Monitor, fn *Func, xs [][]float64) bool {
	K := len(xs)
	if K > vm.k {
		panic(fmt.Sprintf("compile: batch of %d lanes on a %d-lane machine", K, vm.k))
	}
	if len(mons) != K {
		panic("compile: mons/xs length mismatch")
	}
	if vm.nfails > 0 { // residue from an abandoned sweep
		for i := range vm.fails {
			vm.fails[i] = vm.fails[i][:0]
		}
		vm.nfails = 0
	}

	k := vm.k
	vm.ensureRows(fn.nregs)
	if fn.zeroFrame {
		for r := 0; r < fn.nregs; r++ {
			frow := vm.fr[r*k : r*k+K]
			for i := range frow {
				frow[i] = 0
			}
			brow := vm.br[r*k : r*k+K]
			for i := range brow {
				brow[i] = false
			}
		}
	}

	fr := vm.fr
	perm := vm.perm
	np := fn.NParams
	skipFPOp := true
	bnds := vm.bndbuf[:0]
	allBnd := true
	for c := 0; c < K; c++ {
		x := xs[c]
		if len(x) != np {
			panic(fmt.Sprintf("compile: %s expects %d inputs, got %d", fn.Name, np, len(x)))
		}
		for i := range x {
			fr[i*k+c] = x[i]
		}
		perm[c] = int32(c)
		if b, ok := mons[c].(*instrument.Boundary); ok {
			// Boundary's FPOp is always a no-op, whatever its config.
			if allBnd && b.PlainConfig() {
				bnds = append(bnds, b)
			} else {
				allBnd = false
			}
			continue
		}
		allBnd = false
		if ff, ok := mons[c].(rt.FPOpFree); !ok || !ff.FPOpFree() {
			skipFPOp = false
		}
	}
	vm.bndbuf = bnds
	if allBnd && len(bnds) == K {
		vm.bnds = bnds
	} else {
		vm.bnds = nil
	}
	return skipFPOp
}

// exec runs the prepared batch: the group loop plus the lane-ordered
// assert flush.
func (vm *BatchMachine) exec(mons []rt.Monitor, fn *Func, xs [][]float64, out []float64, skipFPOp bool) {
	K := len(xs)
	vm.groups = vm.groups[:0]
	vm.pushGroup(0, K, fn.idx, 0, 0, 0, nil, 0)
	for len(vm.groups) > 0 {
		n := len(vm.groups) - 1
		g := vm.groups[n]
		vm.groups = vm.groups[:n]
		// Copy the group's call stack into the running buffer: the slot
		// (and its slice) may be reused by a push while this group runs.
		if cap(vm.cur) < g.sp {
			vm.cur = make([]frame, 2*g.sp+8)
		}
		copy(vm.cur[:g.sp], g.stack[:g.sp])
		vm.runGroup(mons, g, xs, out, skipFPOp)
	}

	if vm.nfails > 0 {
		for ln := 0; ln < K; ln++ {
			for _, fail := range vm.fails[ln] {
				if vm.OnAssertFailure != nil {
					vm.OnAssertFailure(fail)
				} else {
					vm.Failures = append(vm.Failures, fail)
				}
			}
			vm.fails[ln] = vm.fails[ln][:0]
		}
		vm.nfails = 0
	}
}

// pushGroup defers a lane group, copying the given call stack prefix
// into the slot (slot capacity is reused across sweeps).
func (vm *BatchMachine) pushGroup(lo, hi int, fidx int32, base int, pc int32, steps int, stack []frame, sp int) {
	if len(vm.groups) < cap(vm.groups) {
		vm.groups = vm.groups[:len(vm.groups)+1]
	} else {
		vm.groups = append(vm.groups, bgroup{})
	}
	g := &vm.groups[len(vm.groups)-1]
	g.lo, g.hi = lo, hi
	g.fidx, g.base, g.pc = fidx, int32(base), pc
	g.steps, g.sp = steps, sp
	g.stack = append(g.stack[:0], stack[:sp]...)
}

// runGroup executes one lane group to completion, splitting off
// deferred groups at divergent branches. It mirrors Machine.exec
// instruction for instruction; every step-accounting comment there
// applies here with "per run" replaced by "per group".
func (vm *BatchMachine) runGroup(mons []rt.Monitor, g bgroup, xs [][]float64, out []float64, skipFPOp bool) {
	lo, hi := g.lo, g.hi
	f := vm.mod.list[g.fidx]
	base := int(g.base)
	pc := int(g.pc)
	steps := g.steps
	sp := g.sp
	stack := vm.cur
	code := f.code
	list := vm.mod.list
	fr := vm.fr
	br := vm.br
	k := vm.k
	bnds := vm.bnds
	limit := vm.MaxSteps
	if limit == 0 {
		limit = DefaultMaxSteps
	}

	// abortBudget marks every lane of the group as budget-aborted.
	abortBudget := func() {
		for _, ln := range vm.perm[lo:hi] {
			out[ln] = math.NaN()
		}
	}

	for {
		steps++
		if steps > limit {
			abortBudget()
			vm.cur = stack
			return
		}
		in := &code[pc]
		pc++
		switch in.op {
		case opConstF:
			c := f.consts[in.a]
			o := (base + int(in.dst)) * k
			d := fr[o+lo : o+hi]
			for i := range d {
				d[i] = c
			}
		case opConstB:
			v := in.a != 0
			o := (base + int(in.dst)) * k
			d := br[o+lo : o+hi]
			for i := range d {
				d[i] = v
			}
		case opMovF:
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			copy(fr[do+lo:do+hi], fr[so+lo:so+hi])
		case opMovB:
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			copy(br[do+lo:do+hi], br[so+lo:so+hi])
		case opFAdd, opFSub, opFMul, opFDiv:
			ao := (base + int(in.a)) * k
			bo := (base + int(in.b)) * k
			do := (base + int(in.dst)) * k
			d := fr[do+lo : do+hi]
			a := fr[ao+lo : ao+hi][:len(d)]
			b := fr[bo+lo : bo+hi][:len(d)]
			if skipFPOp {
				switch in.op {
				case opFAdd:
					for i := range d {
						d[i] = a[i] + b[i]
					}
				case opFSub:
					for i := range d {
						d[i] = a[i] - b[i]
					}
				case opFMul:
					for i := range d {
						d[i] = a[i] * b[i]
					}
				default:
					for i := range d {
						d[i] = a[i] / b[i]
					}
				}
				break
			}
			site := int(in.site)
			op := in.op
			pm := vm.perm[lo:hi][:len(d)]
			take := vm.take
			stopped := false
			for i := range d {
				var v float64
				switch op {
				case opFAdd:
					v = a[i] + b[i]
				case opFSub:
					v = a[i] - b[i]
				case opFMul:
					v = a[i] * b[i]
				default:
					v = a[i] / b[i]
				}
				if mons[pm[i]].FPOp(site, v) {
					out[pm[i]] = 0
					take[lo+i] = false
					stopped = true
					continue
				}
				d[i] = v
				take[lo+i] = true
			}
			if stopped {
				hi = vm.partitionCols(lo, hi, base+f.nregs)
				if lo == hi {
					vm.cur = stack
					return
				}
			}
		case opAddCL, opAddCR, opSubCL, opSubCR, opMulCL, opMulCR, opDivCL, opDivCR:
			// Fused constant-load + arithmetic: the dispatch check above
			// covered the constant's step; this is the operation's step,
			// checked before the observation.
			steps++
			if steps > limit {
				abortBudget()
				vm.cur = stack
				return
			}
			ao := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			c := f.consts[in.b]
			d := fr[do+lo : do+hi]
			a := fr[ao+lo : ao+hi][:len(d)]
			op := in.op
			if skipFPOp {
				// Operand order mirrors the serial machine exactly: even
				// commutative ops must not swap (NaN-payload bit-identity).
				switch op {
				case opAddCL:
					for i := range d {
						d[i] = c + a[i]
					}
				case opAddCR:
					for i := range d {
						d[i] = a[i] + c
					}
				case opSubCL:
					for i := range d {
						d[i] = c - a[i]
					}
				case opSubCR:
					for i := range d {
						d[i] = a[i] - c
					}
				case opMulCL:
					for i := range d {
						d[i] = c * a[i]
					}
				case opMulCR:
					for i := range d {
						d[i] = a[i] * c
					}
				case opDivCL:
					for i := range d {
						d[i] = c / a[i]
					}
				default:
					for i := range d {
						d[i] = a[i] / c
					}
				}
				break
			}
			site := int(in.site)
			pm := vm.perm[lo:hi][:len(d)]
			take := vm.take
			stopped := false
			for i := range d {
				v := fusedConstOp(op, c, a[i])
				if mons[pm[i]].FPOp(site, v) {
					out[pm[i]] = 0
					take[lo+i] = false
					stopped = true
					continue
				}
				d[i] = v
				take[lo+i] = true
			}
			if stopped {
				hi = vm.partitionCols(lo, hi, base+f.nregs)
				if lo == hi {
					vm.cur = stack
					return
				}
			}
		case opFNeg:
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			d := fr[do+lo : do+hi]
			s := fr[so+lo : so+hi][:len(d)]
			for i := range d {
				d[i] = -s[i]
			}
		case opFCmp:
			ao := (base + int(in.a)) * k
			bo := (base + int(in.b)) * k
			do := (base + int(in.dst)) * k
			d := br[do+lo : do+hi]
			a := fr[ao+lo : ao+hi][:len(d)]
			b := fr[bo+lo : bo+hi][:len(d)]
			site, pred := int(in.site), in.pred
			pm := vm.perm[lo:hi][:len(d)]
			if bnds != nil {
				for i := range d {
					av, bv := a[i], b[i]
					dist := fp.Abs(av - bv)
					if !(dist <= fp.MaxFloat) {
						dist = fp.BoundaryDist(av, bv)
					}
					bnds[pm[i]].MulFactor(dist)
					d[i] = pred.Eval(av, bv)
				}
			} else {
				for i := range d {
					av, bv := a[i], b[i]
					mons[pm[i]].Branch(site, pred, av, bv)
					d[i] = pred.Eval(av, bv)
				}
			}
		case opCmpCL:
			steps++
			if steps > limit {
				abortBudget()
				vm.cur = stack
				return
			}
			c := f.consts[in.b]
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			d := br[do+lo : do+hi]
			b := fr[so+lo : so+hi][:len(d)]
			site, pred := int(in.site), in.pred
			pm := vm.perm[lo:hi][:len(d)]
			if bnds != nil {
				for i := range d {
					bv := b[i]
					dist := fp.Abs(c - bv)
					if !(dist <= fp.MaxFloat) {
						dist = fp.BoundaryDist(c, bv)
					}
					bnds[pm[i]].MulFactor(dist)
					d[i] = pred.Eval(c, bv)
				}
			} else {
				for i := range d {
					bv := b[i]
					mons[pm[i]].Branch(site, pred, c, bv)
					d[i] = pred.Eval(c, bv)
				}
			}
		case opCmpCR:
			steps++
			if steps > limit {
				abortBudget()
				vm.cur = stack
				return
			}
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			c := f.consts[in.b]
			d := br[do+lo : do+hi]
			a := fr[so+lo : so+hi][:len(d)]
			site, pred := int(in.site), in.pred
			pm := vm.perm[lo:hi][:len(d)]
			if bnds != nil {
				for i := range d {
					av := a[i]
					dist := fp.Abs(av - c)
					if !(dist <= fp.MaxFloat) {
						dist = fp.BoundaryDist(av, c)
					}
					bnds[pm[i]].MulFactor(dist)
					d[i] = pred.Eval(av, c)
				}
			} else {
				for i := range d {
					av := a[i]
					mons[pm[i]].Branch(site, pred, av, c)
					d[i] = pred.Eval(av, c)
				}
			}
		case opFCmpJmp:
			ao := (base + int(in.a)) * k
			bo := (base + int(in.b)) * k
			a := fr[ao+lo : ao+hi]
			b := fr[bo+lo : bo+hi][:len(a)]
			site, pred := int(in.site), in.pred
			pm := vm.perm[lo:hi][:len(a)]
			take := vm.take
			nt := 0
			if bnds != nil {
				for i := range a {
					av, bv := a[i], b[i]
					dist := fp.Abs(av - bv)
					if !(dist <= fp.MaxFloat) {
						dist = fp.BoundaryDist(av, bv)
					}
					bnds[pm[i]].MulFactor(dist)
					t := pred.Eval(av, bv)
					take[lo+i] = t
					if t {
						nt++
					}
				}
			} else {
				for i := range a {
					av, bv := a[i], b[i]
					mons[pm[i]].Branch(site, pred, av, bv)
					t := pred.Eval(av, bv)
					take[lo+i] = t
					if t {
						nt++
					}
				}
			}
			steps++ // the fused CondJmp's step; checked at next dispatch
			if nt == hi-lo {
				pc = int(in.target)
				continue
			}
			if nt == 0 {
				pc = int(in.els)
				continue
			}
			hi = vm.split(lo, hi, f.idx, base, base+f.nregs, int32(in.els), steps, stack, sp)
			pc = int(in.target)
			continue
		case opCmpCLJmp, opCmpCRJmp:
			steps++
			if steps > limit {
				abortBudget()
				vm.cur = stack
				return
			}
			so := (base + int(in.a)) * k
			s := fr[so+lo : so+hi]
			c := f.consts[in.b]
			site, pred := int(in.site), in.pred
			pm := vm.perm[lo:hi][:len(s)]
			take := vm.take
			nt := 0
			if bnds != nil {
				// Boundary's factor |a-b| is symmetric, so the CL/CR
				// operand order only matters for pred.Eval — but mirror
				// BoundaryDist's argument order anyway on the cold path.
				if in.op == opCmpCLJmp {
					for i := range s {
						bv := s[i]
						dist := fp.Abs(c - bv)
						if !(dist <= fp.MaxFloat) {
							dist = fp.BoundaryDist(c, bv)
						}
						bnds[pm[i]].MulFactor(dist)
						t := pred.Eval(c, bv)
						take[lo+i] = t
						if t {
							nt++
						}
					}
				} else {
					for i := range s {
						av := s[i]
						dist := fp.Abs(av - c)
						if !(dist <= fp.MaxFloat) {
							dist = fp.BoundaryDist(av, c)
						}
						bnds[pm[i]].MulFactor(dist)
						t := pred.Eval(av, c)
						take[lo+i] = t
						if t {
							nt++
						}
					}
				}
			} else if in.op == opCmpCLJmp {
				for i := range s {
					bv := s[i]
					mons[pm[i]].Branch(site, pred, c, bv)
					t := pred.Eval(c, bv)
					take[lo+i] = t
					if t {
						nt++
					}
				}
			} else {
				for i := range s {
					av := s[i]
					mons[pm[i]].Branch(site, pred, av, c)
					t := pred.Eval(av, c)
					take[lo+i] = t
					if t {
						nt++
					}
				}
			}
			steps++
			if nt == hi-lo {
				pc = int(in.target)
				continue
			}
			if nt == 0 {
				pc = int(in.els)
				continue
			}
			hi = vm.split(lo, hi, f.idx, base, base+f.nregs, int32(in.els), steps, stack, sp)
			pc = int(in.target)
			continue
		case opNot:
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			d := br[do+lo : do+hi]
			s := br[so+lo : so+hi][:len(d)]
			for i := range d {
				d[i] = !s[i]
			}
		case opBuiltin1:
			fn1 := f.b1[in.target]
			so := (base + int(in.a)) * k
			do := (base + int(in.dst)) * k
			d := fr[do+lo : do+hi]
			s := fr[so+lo : so+hi][:len(d)]
			if skipFPOp {
				for i := range d {
					d[i] = fn1(s[i])
				}
				break
			}
			site := int(in.site)
			pm := vm.perm[lo:hi][:len(d)]
			take := vm.take
			stopped := false
			for i := range d {
				v := fn1(s[i])
				if mons[pm[i]].FPOp(site, v) {
					out[pm[i]] = 0
					take[lo+i] = false
					stopped = true
					continue
				}
				d[i] = v
				take[lo+i] = true
			}
			if stopped {
				hi = vm.partitionCols(lo, hi, base+f.nregs)
				if lo == hi {
					vm.cur = stack
					return
				}
			}
		case opBuiltin2:
			fn2 := f.b2[in.target]
			ao := (base + int(in.a)) * k
			bo := (base + int(in.b)) * k
			do := (base + int(in.dst)) * k
			d := fr[do+lo : do+hi]
			a := fr[ao+lo : ao+hi][:len(d)]
			b := fr[bo+lo : bo+hi][:len(d)]
			if skipFPOp {
				for i := range d {
					d[i] = fn2(a[i], b[i])
				}
				break
			}
			site := int(in.site)
			pm := vm.perm[lo:hi][:len(d)]
			take := vm.take
			stopped := false
			for i := range d {
				v := fn2(a[i], b[i])
				if mons[pm[i]].FPOp(site, v) {
					out[pm[i]] = 0
					take[lo+i] = false
					stopped = true
					continue
				}
				d[i] = v
				take[lo+i] = true
			}
			if stopped {
				hi = vm.partitionCols(lo, hi, base+f.nregs)
				if lo == hi {
					vm.cur = stack
					return
				}
			}
		case opCallF, opCallB, opCallVoid:
			ci := &f.calls[in.a]
			callee := ci.fn
			cb := base + f.nregs
			vm.ensureRows(cb + callee.nregs)
			// The arenas may have moved; re-fetch before touching them.
			fr = vm.fr
			br = vm.br
			if callee.zeroFrame {
				// Zero only this group's lane columns: rows past cb may
				// hold live activations of OTHER groups' lanes (groups at
				// equal depth share row space; columns are disjoint).
				for r := cb; r < cb+callee.nregs; r++ {
					frow := fr[r*k+lo : r*k+hi]
					for i := range frow {
						frow[i] = 0
					}
					brow := br[r*k+lo : r*k+hi]
					for i := range brow {
						brow[i] = false
					}
				}
			}
			for ai, arg := range ci.args {
				so := (base + int(arg)) * k
				do := (cb + ai) * k
				copy(fr[do+lo:do+hi], fr[so+lo:so+hi])
			}
			if sp == len(stack) {
				stack = append(stack, make([]frame, len(stack)+8)...)
			}
			top := &stack[sp]
			sp++
			top.fidx, top.base, top.pc = f.idx, int32(base), int32(pc)
			top.dst, top.op, top.extra = in.dst, in.op, in.extra
			f, base, pc = callee, cb, 0
			code = f.code
			continue // in.extra is charged at return, not at call
		case opJmp:
			pc = int(in.target)
			continue
		case opCondJmp:
			so := (base + int(in.a)) * k
			s := br[so+lo : so+hi]
			nt := 0
			for i := range s {
				if s[i] {
					nt++
				}
			}
			if nt == hi-lo {
				pc = int(in.target)
				continue
			}
			if nt == 0 {
				pc = int(in.els)
				continue
			}
			take := vm.take
			for i := range s {
				take[lo+i] = s[i]
			}
			hi = vm.split(lo, hi, f.idx, base, base+f.nregs, int32(in.els), steps, stack, sp)
			pc = int(in.target)
			continue
		case opRetF, opRetB, opRetVoid:
			if sp == 0 {
				pm := vm.perm[lo:hi]
				switch in.op {
				case opRetF:
					so := (base + int(in.a)) * k
					s := fr[so+lo : so+hi][:len(pm)]
					for i := range pm {
						out[pm[i]] = s[i]
					}
				case opRetB:
					so := (base + int(in.a)) * k
					s := br[so+lo : so+hi][:len(pm)]
					for i := range pm {
						if s[i] {
							out[pm[i]] = 1
						} else {
							out[pm[i]] = 0
						}
					}
				default:
					for i := range pm {
						out[pm[i]] = 0
					}
				}
				vm.cur = stack
				return
			}
			sp--
			top := &stack[sp]
			caller := list[top.fidx]
			nbase := int(top.base)
			// Caller rows precede callee rows, so reads from the callee
			// frame and writes to the caller's dst never overlap.
			switch top.op {
			case opCallF:
				do := (nbase + int(top.dst)) * k
				d := fr[do+lo : do+hi]
				switch in.op {
				case opRetF:
					so := (base + int(in.a)) * k
					copy(d, fr[so+lo:so+hi])
				case opRetB:
					so := (base + int(in.a)) * k
					s := br[so+lo : so+hi][:len(d)]
					for i := range d {
						if s[i] {
							d[i] = 1
						} else {
							d[i] = 0
						}
					}
				default:
					for i := range d {
						d[i] = 0
					}
				}
			case opCallB:
				do := (nbase + int(top.dst)) * k
				d := br[do+lo : do+hi]
				switch in.op {
				case opRetF:
					so := (base + int(in.a)) * k
					s := fr[so+lo : so+hi][:len(d)]
					for i := range d {
						d[i] = s[i] != 0
					}
				case opRetB:
					so := (base + int(in.a)) * k
					copy(d, br[so+lo:so+hi])
				default:
					for i := range d {
						d[i] = false
					}
				}
			}
			f, base, pc = caller, nbase, int(top.pc)
			code = f.code
			steps += int(top.extra) // mov fused into the call site
			continue
		case opAssert:
			if vm.IgnoreAsserts {
				break
			}
			so := (base + int(in.a)) * k
			s := br[so+lo : so+hi]
			pm := vm.perm[lo:hi][:len(s)]
			for i := range s {
				if !s[i] {
					ln := pm[i]
					info := vm.mod.asserts[in.site]
					vm.fails[ln] = append(vm.fails[ln], AssertFailure{
						Pos:   info.pos,
						Label: info.label,
						Input: append([]float64(nil), xs[ln]...),
					})
					vm.nfails++
				}
			}
		default:
			panic(fmt.Sprintf("compile: unknown opcode %d", in.op))
		}
		// Deferred charge of a post-observation fused sub-step (a mov
		// folded into the producing instruction); the next dispatch
		// check accounts for it before anything observable happens.
		steps += int(in.extra)
	}
}

// partitionCols stably moves the take[c]-true columns of [lo, hi) to
// the front of the segment — across perm and every one of the first
// liveRows register rows of both arenas — and returns the boundary w:
// the kept half is [lo, w), the rest [w, hi) in original order. Only
// columns inside [lo, hi) are touched, so other groups' segments (and
// their deeper frames, which live in disjoint columns) are unaffected.
func (vm *BatchMachine) partitionCols(lo, hi, liveRows int) int {
	take := vm.take
	perm := vm.perm
	w := lo
	pi := vm.partI[:0]
	for c := lo; c < hi; c++ {
		if take[c] {
			perm[w] = perm[c]
			w++
		} else {
			pi = append(pi, perm[c])
		}
	}
	copy(perm[w:hi], pi)
	if w == lo || w == hi {
		return w // identity: no data movement needed
	}
	k := vm.k
	for r := 0; r < liveRows; r++ {
		row := vm.fr[r*k:]
		rw := lo
		pf := vm.partF[:0]
		for c := lo; c < hi; c++ {
			if take[c] {
				row[rw] = row[c]
				rw++
			} else {
				pf = append(pf, row[c])
			}
		}
		copy(row[rw:hi], pf)
		brow := vm.br[r*k:]
		rw = lo
		pb := vm.partB[:0]
		for c := lo; c < hi; c++ {
			if take[c] {
				brow[rw] = brow[c]
				rw++
			} else {
				pb = append(pb, brow[c])
			}
		}
		copy(brow[rw:hi], pb)
	}
	return w
}

// split stably partitions the group's columns by vm.take, defers the
// not-taken half as a new group continuing at elsPC with the current
// control state, and returns the new hi of the taken half.
func (vm *BatchMachine) split(lo, hi int, fidx int32, base, liveRows int, elsPC int32, steps int, stack []frame, sp int) int {
	w := vm.partitionCols(lo, hi, liveRows)
	vm.pushGroup(w, hi, fidx, base, elsPC, steps, stack, sp)
	return w
}

// fusedConstOp applies one fused constant-operand arithmetic opcode:
// c is the constant, r the register operand (mirroring Machine.exec's
// inner switch).
func fusedConstOp(op opcode, c, r float64) float64 {
	switch op {
	case opAddCL:
		return c + r
	case opAddCR:
		return r + c
	case opSubCL:
		return c - r
	case opSubCR:
		return r - c
	case opMulCL:
		return c * r
	case opMulCR:
		return r * c
	case opDivCL:
		return c / r
	default:
		return r / c
	}
}
