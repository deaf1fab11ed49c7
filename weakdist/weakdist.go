// Package weakdist is the public API of the weak-distance minimization
// framework (Fu & Su, PLDI 2019): floating-point analysis problems —
// boundary value analysis, path reachability, overflow detection,
// branch-coverage testing, and floating-point satisfiability — solved by
// minimizing weak distances with black-box mathematical optimization.
//
// # Concepts
//
// A Program is an instrumentable floating-point computation: it exposes
// every floating-point operation and branch comparison to a Monitor.
// Programs come from three sources:
//
//   - native Go code wrapped with observation calls (see NewContext and
//     the Program type),
//   - FPL source compiled with CompileFPL (a small C-like language;
//     instrumentation is automatic),
//   - the built-in benchmark ports (glibc sin, GSL special functions)
//     in internal packages, reachable through the cmd/ tools.
//
// A Monitor is a weak-distance state machine (Def. 3.1): it accumulates
// a nonnegative value w during execution that is zero exactly when the
// execution witnesses the analysis target. The provided monitors are
// Boundary, Path, Overflow, Coverage, and Characteristic.
//
// User Programs and Monitors must be deterministic per run: a
// Program's Run depends only on its input, and a Monitor's Reset
// clears every piece of per-run state, so the weak distance of an
// execution is a function of the input alone. Program.WeakDistance
// relies on this to skip re-executing an input it ran recently. After
// such a repeat the monitor still holds the state of the last input
// actually executed, so inspect a monitor only after calling
// Program.Execute.
//
// Solve (Algorithm 2) minimizes any weak distance with a Minimizer
// backend (Basinhopping by default) and re-verifies candidate solutions
// with a user-supplied membership oracle. The higher-level entry points
// BoundaryValues, ReachPath, DetectOverflows and Cover bundle the
// construction, minimization, and verification for each analysis.
//
// # Quick example
//
//	p := &weakdist.Program{
//	    Name: "prog", Dim: 1,
//	    Branches: []weakdist.BranchInfo{{ID: 0, Label: "x < 1", Op: weakdist.LT}},
//	    Run: func(ctx *weakdist.Ctx, x []float64) {
//	        ctx.Cmp(0, weakdist.LT, x[0], 1)
//	    },
//	}
//	rep := weakdist.BoundaryValues(context.Background(), p,
//	    weakdist.BoundaryOptions{Seed: 1})
package weakdist

import (
	"context"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fp"
	"repro/internal/instrument"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rt"
	"repro/internal/sat"
)

// --- Programs and observation (internal/rt) ---

// Program is an instrumentable floating-point program.
type Program = rt.Program

// Ctx is the observation context passed to a Program's Run function.
type Ctx = rt.Ctx

// Monitor receives execution observations and accumulates a weak
// distance.
type Monitor = rt.Monitor

// NopMonitor observes nothing (plain concrete execution).
type NopMonitor = rt.NopMonitor

// OpInfo describes a floating-point operation site.
type OpInfo = rt.OpInfo

// BranchInfo describes a branch comparison site.
type BranchInfo = rt.BranchInfo

// NewContext wraps a monitor for direct execution; most callers use
// Program.Execute instead.
func NewContext(m Monitor) *Ctx { return rt.NewCtx(m) }

// --- Comparison operators and distances (internal/fp) ---

// CmpOp is a floating-point comparison operator.
type CmpOp = fp.CmpOp

// Comparison operators.
const (
	LT = fp.LT
	LE = fp.LE
	GT = fp.GT
	GE = fp.GE
	EQ = fp.EQ
	NE = fp.NE
)

// ULPDiff is the integer ULP distance between two floats — a true
// metric on the finite binary64 lattice.
func ULPDiff(a, b float64) uint64 { return fp.ULPDiff(a, b) }

// BranchDist is the branch distance θ(op, a, b): zero iff `a op b`
// holds, growing with the violation.
func BranchDist(op CmpOp, a, b float64) float64 { return fp.BranchDist(op, a, b) }

// --- Weak-distance monitors (internal/instrument) ---

// Boundary is the multiplicative boundary value analysis weak distance
// (§4.2).
type Boundary = instrument.Boundary

// Path is the additive path-reachability weak distance (§4.3).
type Path = instrument.Path

// Decision is one branch decision of a target path.
type Decision = instrument.Decision

// Overflow is the Algorithm 3 overflow-detection weak distance (§4.4).
type Overflow = instrument.Overflow

// NewOverflow returns an overflow monitor with an empty tracked set.
func NewOverflow() *Overflow { return instrument.NewOverflow() }

// Coverage is the CoverMe-style branch-coverage weak distance.
type Coverage = instrument.Coverage

// Side identifies one direction of a branch.
type Side = instrument.Side

// Characteristic is the flat 0/1 weak distance of Fig. 7 (for
// ablations; it degenerates search into random testing).
type Characteristic = instrument.Characteristic

// --- Optimization backends (internal/opt) ---

// Minimizer is a black-box global optimization backend.
type Minimizer = opt.Minimizer

// Objective is a function to minimize.
type Objective = opt.Objective

// Bound is a per-dimension search interval.
type Bound = opt.Bound

// Config carries backend knobs (seed, budget, bounds, traces).
type Config = opt.Config

// Trace records a sampling sequence.
type Trace = opt.Trace

// Basinhopping is the default backend: MCMC over local minima.
type Basinhopping = opt.Basinhopping

// DifferentialEvolution is a population-based backend.
type DifferentialEvolution = opt.DifferentialEvolution

// Powell is a derivative-free local direction-set backend.
type Powell = opt.Powell

// NelderMead is a derivative-free simplex local minimizer.
type NelderMead = opt.NelderMead

// RandomSearch is the pure random baseline.
type RandomSearch = opt.RandomSearch

// --- The reduction theory (internal/core) ---

// WeakDistance is a weak-distance objective W : F^N → F.
type WeakDistance = core.WeakDistance

// Problem packages ⟨Prog; S⟩ with its weak distance and membership
// oracle.
type Problem = core.Problem

// SolveOptions configures Solve.
type SolveOptions = core.Options

// SolveResult is the outcome of Algorithm 2.
type SolveResult = core.Result

// Solve runs Algorithm 2: minimize the weak distance; return a verified
// solution or "not found". The context cancels the search at
// weak-distance-evaluation granularity; pass context.Background() for
// an unbounded run.
func Solve(ctx context.Context, p Problem, o SolveOptions) SolveResult {
	return core.Solve(ctx, p, o)
}

// --- End-user analyses (internal/analysis) ---

// BoundaryOptions configures BoundaryValues.
type BoundaryOptions = analysis.BoundaryOptions

// BoundaryReport is the boundary value analysis result.
type BoundaryReport = analysis.BoundaryReport

// BoundaryValues finds inputs triggering boundary conditions (§4.2,
// §6.2).
func BoundaryValues(ctx context.Context, p *Program, o BoundaryOptions) *BoundaryReport {
	return analysis.BoundaryValues(ctx, p, o)
}

// ReachOptions configures ReachPath.
type ReachOptions = analysis.ReachOptions

// ReachPath finds an input driving the program along the target path
// (§4.3).
func ReachPath(ctx context.Context, p *Program, target []Decision, o ReachOptions) SolveResult {
	return analysis.ReachPath(ctx, p, target, o)
}

// OverflowOptions configures DetectOverflows.
type OverflowOptions = analysis.OverflowOptions

// OverflowReport is the Algorithm 3 result.
type OverflowReport = analysis.OverflowReport

// DetectOverflows runs Algorithm 3: generate inputs overflowing as many
// floating-point operations as possible (§4.4, §6.3).
func DetectOverflows(ctx context.Context, p *Program, o OverflowOptions) *OverflowReport {
	return analysis.DetectOverflows(ctx, p, o)
}

// CoverOptions configures Cover.
type CoverOptions = analysis.CoverOptions

// CoverReport is the branch-coverage result.
type CoverReport = analysis.CoverReport

// Cover runs branch-coverage-based testing (§2 Instance 4).
func Cover(ctx context.Context, p *Program, o CoverOptions) *CoverReport {
	return analysis.Cover(ctx, p, o)
}

// NonFiniteOptions configures FindNonFinite.
type NonFiniteOptions = analysis.NonFiniteOptions

// NonFiniteReport is the NaN/domain-error finder result.
type NonFiniteReport = analysis.NonFiniteReport

// FindNonFinite generates inputs driving FP operations to non-finite
// results (the registry's sixth analysis).
func FindNonFinite(ctx context.Context, p *Program, o NonFiniteOptions) *NonFiniteReport {
	return analysis.FindNonFinite(ctx, p, o)
}

// --- Floating-point satisfiability (internal/sat) ---

// Formula is a CNF over floating-point atoms.
type Formula = sat.Formula

// SatOptions configures SolveSAT.
type SatOptions = sat.Options

// SatResult is a satisfiability answer.
type SatResult = sat.Result

// ParseFormula reads a CNF from text, e.g. "x < 1 && x + 1 >= 2".
func ParseFormula(src string) (*Formula, map[string]int, error) { return sat.Parse(src) }

// SolveSAT decides a floating-point CNF by weak-distance minimization
// (§2 Instance 5).
func SolveSAT(ctx context.Context, f *Formula, o SatOptions) SatResult {
	return sat.Solve(ctx, f, o)
}

// --- Analysis registry and pipeline (internal/analysis, internal/pipeline) ---

// AnalysisSpec is the uniform, JSON-serializable configuration of a
// registered analysis (seed, evals, bounds, backend name, workers, ULP,
// engine, plus per-analysis knobs).
type AnalysisSpec = analysis.Spec

// AnalysisReport is the typed result of a registered analysis.
type AnalysisReport = analysis.Report

// AnalysisInput is what a registered analysis runs on.
type AnalysisInput = analysis.Input

// Job is one batch unit: a program (built-in name or inline FPL
// source) plus the spec of the analysis to run on it.
type Job = pipeline.Job

// JobResult is the outcome of one job.
type JobResult = pipeline.JobResult

// Pipeline schedules job batches over a worker pool with a shared
// compiled-module cache; results are identical for every worker count.
type Pipeline = pipeline.Pipeline

// Analyses lists the registered analysis names (the five paper
// instances plus the NaN/domain-error finder; extensions register
// alongside them).
func Analyses() []string { return analysis.Names() }

// LookupAnalysis resolves a registered analysis by name or alias.
func LookupAnalysis(name string) (analysis.Analysis, error) { return analysis.Lookup(name) }

// NewPipeline returns a pipeline with a fresh module cache. workers
// bounds concurrently running jobs (0 = all CPUs).
func NewPipeline(workers int) *Pipeline { return pipeline.New(workers) }

// AnalysisError is the typed spec/flag validation error shared by the
// CLIs and the fpserve /v1 problem+json error model.
type AnalysisError = analysis.SpecError

// Run executes one analysis job on a throwaway pipeline. Callers with
// many jobs should use RunBatch or a shared NewPipeline so repeated
// sources hit the module cache.
func Run(ctx context.Context, job Job) JobResult { return pipeline.New(1).RunJob(ctx, 0, job) }

// RunBatch fans the jobs over workers (0 = all CPUs) and returns
// results in job order — bit-identical for every worker count. The
// context cancels the batch at weak-distance-evaluation granularity.
func RunBatch(ctx context.Context, jobs []Job, workers int) []JobResult {
	return pipeline.New(workers).RunBatch(ctx, jobs)
}

// --- FPL compilation (internal/lang, internal/ir, internal/interp) ---

// CompileFPL compiles FPL source (a small C-like language; see the
// package documentation of repro/internal/lang) and returns the named
// function — empty for the first declared — as an automatically
// instrumented Program.
func CompileFPL(src, fn string) (*Program, error) {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil, err
	}
	if fn == "" {
		fn = mod.Order[0]
	}
	return interp.New(mod).Program(fn)
}
