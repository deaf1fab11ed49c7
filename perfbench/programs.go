package main

// Program catalogs and seeded job generation for the three workloads.
// Everything a workload submits is derived here from (workload, seed):
// the program under test only ever sees the generated jobs.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/fplgen"
	"repro/internal/gofront"
	"repro/internal/gsl/lift"
	"repro/internal/instrument"
	"repro/internal/pipeline"
)

// langOf resolves a job's language name; job generation only produces
// valid names.
func langOf(name string) gofront.Lang {
	lg, _ := gofront.ParseLang(name)
	return lg
}

// program is one analyzable program: a builtin native port, or a
// source in FPL or Go with the function to analyze.
type program struct {
	Builtin string
	Source  string
	Lang    string // "" (FPL) or "go"
	Func    string
	Dim     int
	// Branches and Ops count the program's instrumentation sites.
	Branches, Ops int
}

func (p program) job(spec analysis.Spec) pipeline.Job {
	return pipeline.Job{Builtin: p.Builtin, Source: p.Source, Lang: p.Lang, Func: p.Func, Spec: spec}
}

// programAnalyses are the analyses that run on a program (xsat runs on
// formulas instead).
var programAnalyses = []string{"bva", "coverage", "overflow", "nan", "reach"}

// allAnalyses is the registry's full set, as the per-layer metrics name
// them.
var allAnalyses = []string{"bva", "coverage", "overflow", "nan", "reach", "xsat"}

// builtinNames are the hand-ported programs in the search mix: the GSL
// ports (whose lifted twins are in the mix too), glibc sin and Fig. 2.
var builtinNames = []string{"airy", "bessel", "hyperg", "sin", "fig2"}

// fixtures are the FPL test programs of the repository, with the
// function each workload analyzes.
var fixtures = []struct{ file, fn string }{
	{"fig2.fpl", "prog"},
	{"newton.fpl", "newton_sqrt"},
	{"sin_fig8.fpl", "sin_dispatch"},
	{"sum3.fpl", "prog"},
	{"assertion.fpl", "prog"},
}

// repoRoot finds the repository the benchmark was built from: the
// nearest ancestor of the working directory holding the repro go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			strings.HasPrefix(string(b), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("repository root (go.mod of module repro) not found above the working directory")
		}
		dir = parent
	}
}

// loadFixtures reads the FPL fixtures from the repository's testdata.
func loadFixtures() ([]program, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	var out []program
	for _, f := range fixtures {
		b, err := os.ReadFile(filepath.Join(root, "testdata", f.file))
		if err != nil {
			return nil, err
		}
		out = append(out, program{Source: string(b), Func: f.fn})
	}
	return out, nil
}

// describe fills in a program's arity and site counts by loading it
// through the oracle's tree engine (or the builtin table).
func describe(o *oracle, p program) (program, error) {
	t, err := o.target(p.job(analysis.Spec{}))
	if err != nil {
		return p, err
	}
	p.Dim, p.Branches, p.Ops = t.prog.Dim, len(t.prog.Branches), len(t.prog.Ops)
	return p, nil
}

// randInput draws a point with log-uniform magnitudes in [1e-3, 1e3]
// and random signs (zero one time in eight).
func randInput(rng *rand.Rand, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		if rng.Intn(8) == 0 {
			continue
		}
		x[i] = math.Pow(10, -3+6*rng.Float64())
		if rng.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	return x
}

// feasiblePath replays a random input and returns a prefix (1 to 6
// decisions) of the path it takes, so the reach target is reachable by
// construction. ok is false when the input takes no branch.
func feasiblePath(o *oracle, p program, rng *rand.Rand) ([]instrument.Decision, bool) {
	t, err := o.target(p.job(analysis.Spec{}))
	if err != nil {
		return nil, false
	}
	rec := &recorder{}
	t.prog.Execute(rec, randInput(rng, p.Dim))
	var path []instrument.Decision
	for _, e := range rec.ev {
		if e.branch {
			path = append(path, instrument.Decision{Site: e.site, Taken: e.taken})
		}
	}
	if len(path) == 0 {
		return nil, false
	}
	return path[:1+rng.Intn(min(6, len(path)))], true
}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// budget sizes a job's search effort.
type budget struct{ evals, starts, rounds, stall, lanes int }

// spec builds a spec under budget b, with a search seed from rng.
func (b budget) spec(rng *rand.Rand, an string) analysis.Spec {
	return analysis.Spec{
		Analysis: an,
		Seed:     1 + rng.Int63n(1<<30),
		Evals:    b.evals,
		Starts:   b.starts,
		Rounds:   b.rounds,
		Stall:    b.stall,
		Lanes:    b.lanes,
		Workers:  1,
	}
}

// programJob draws a job of analysis an on p, or ok=false when the
// analysis has nothing to do on p (no branches, no ops, no path).
func programJob(o *oracle, rng *rand.Rand, p program, an string, b budget) (pipeline.Job, bool) {
	switch an {
	case "bva", "coverage", "reach":
		if p.Branches == 0 {
			return pipeline.Job{}, false
		}
	case "overflow", "nan":
		if p.Ops == 0 {
			return pipeline.Job{}, false
		}
	}
	spec := b.spec(rng, an)
	if an == "reach" {
		path, ok := feasiblePath(o, p, rng)
		if !ok {
			return pipeline.Job{}, false
		}
		spec.Path = path
	}
	return p.job(spec), true
}

// formulaJob draws an xsat job over a generated formula in dim
// variables.
func formulaJob(rng *rand.Rand, b budget, dim int) pipeline.Job {
	b.lanes = 0
	spec := b.spec(rng, "xsat")
	spec.Formula = fplgen.Formula(rng, dim)
	return pipeline.Job{Spec: spec}
}

// searchCatalog is the search workload's program mix: the hand-ported
// builtins, every function of the lifted GSL corpus, and the FPL
// fixtures. tiny keeps a handful of each for self-tests.
func searchCatalog(o *oracle, tiny bool) ([]program, error) {
	var progs []program
	names := builtinNames
	if tiny {
		names = names[:2]
	}
	for _, n := range names {
		progs = append(progs, program{Builtin: n})
	}
	combined := lift.CombinedSource()
	fns := lift.FuncNames()
	if tiny {
		fns = []string{"gslCosVal", "airyAiVal"}
	}
	for _, fn := range fns {
		progs = append(progs, program{Source: combined, Lang: "go", Func: fn})
	}
	fix, err := loadFixtures()
	if err != nil {
		return nil, err
	}
	if tiny {
		fix = fix[:2]
	}
	progs = append(progs, fix...)
	for i := range progs {
		if progs[i], err = describe(o, progs[i]); err != nil {
			return nil, err
		}
	}
	return progs, nil
}

// searchEvals and searchLanes span the search workload's budgets: on
// the scale of the paper's per-problem runs, cut to milliseconds of
// search per job.
var (
	searchEvals = []int{500, 1000, 2000}
	searchLanes = []int{1, 16}
)

// searchJobs is a balanced design: every applicable (program, analysis)
// cell at every budget and lane width, plus xsat formulas over 1 to 3
// variables at every budget, in seeded order. A seed draws the search
// seeds, reach targets and formulas; the mix itself is the same for
// every seed, so the cost per job varies little between seeds.
func searchJobs(o *oracle, progs []program, seed int64, tiny bool) []pipeline.Job {
	rng := rand.New(rand.NewSource(seed))
	evals, nsat := searchEvals, 48
	if tiny {
		evals, nsat = evals[:1], 3
	}
	var jobs []pipeline.Job
	for _, p := range progs {
		for _, an := range programAnalyses {
			for _, ev := range evals {
				for _, lanes := range searchLanes {
					b := budget{evals: ev, starts: 2, rounds: 2, stall: 2, lanes: lanes}
					if j, ok := programJob(o, rng, p, an, b); ok {
						jobs = append(jobs, j)
					}
				}
			}
		}
	}
	for i := 0; i < nsat; i++ {
		jobs = append(jobs, formulaJob(rng, budget{evals: evals[i%len(evals)], starts: 2}, 1+i%3))
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// churnPoolSize is about four times the module cache's capacity, so a
// skewed reuse pattern both hits and evicts.
const churnPoolSize = 4 * pipeline.DefaultMaxModules

// catalogSeed fixes the generated programs of the churn pool and of the
// service workload's registered set. They are the deployed catalog; a
// run's seed draws the traffic over them — which programs, analyses,
// budgets, search seeds, reach targets and formulas — so that the
// catalog's content does not move the figures from one seed to the
// next.
const catalogSeed = 20190622

// churnPool builds the churn workload's distinct sources, indexed by
// popularity rank: generated FPL modules (six ranks in eight, sized by
// the rank), the FPL fixtures and the lifted GSL corpus (one rank in
// eight each), every slot made distinct by a trailing comment.
func churnPool(size int) ([]program, error) {
	rng := rand.New(rand.NewSource(catalogSeed))
	fix, err := loadFixtures()
	if err != nil {
		return nil, err
	}
	combined := lift.CombinedSource()
	fns := lift.FuncNames()
	pool := make([]program, size)
	for i := range pool {
		tag := fmt.Sprintf("\n// pool slot %d\n", i)
		switch i % 8 {
		case 6:
			f := fix[(i/8)%len(fix)]
			pool[i] = program{Source: f.Source + tag, Func: f.Func}
		case 7:
			fn := fns[rng.Intn(len(fns))]
			pool[i] = program{Source: combined + tag, Lang: "go", Func: fn}
		default:
			pool[i] = generated(rng, i)
			pool[i].Source += tag
		}
	}
	return pool, nil
}

// generated is an fplgen module whose size budgets are fixed by k.
func generated(rng *rand.Rand, k int) program {
	g := fplgen.Generator{Config: fplgen.Config{
		Params:     1 + k%3,
		MaxHelpers: 1 + (k/3)%4,
		MinStmts:   2 + (k/12)%4,
		StmtRange:  2 + (k/2)%6,
		ExprDepth:  2 + (k/5)%2,
	}}
	return program{Source: g.Module(rng), Func: "f", Dim: g.Config.Params}
}

// churnBudget keeps the search tiny (≤ 100 evaluations), so compile and
// cache work dominate.
var churnBudget = budget{evals: 100, starts: 1, rounds: 1, stall: 1}

// churnJobs builds n jobs whose sources follow a Zipf law over the
// pool's ranks, P(k) ∝ (8+k)^-1.1. The law is met by quota rather than
// by independent draws — rank k appears n·P(k) times, rounded by
// largest remainder — so every seed accesses the same multiset of
// sources and the seed only orders them. One job in sixteen is an xsat
// formula, which bypasses the cache; the other jobs split evenly over
// the program analyses and over lanes {1, 16}. Reach targets need the
// program's branch structure, so the slots drawn for reach are loaded
// (through the oracle's tree engine) while generating.
func churnJobs(o *oracle, pool []program, seed int64, n int) ([]pipeline.Job, error) {
	rng := rand.New(rand.NewSource(seed))
	nsat := n / 16
	ranks := zipfQuota(len(pool), n-nsat)
	rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	jobs := make([]pipeline.Job, 0, n)
	for i, k := range ranks {
		b := churnBudget
		b.lanes = []int{1, 16}[i%2]
		an := programAnalyses[(i/2)%len(programAnalyses)]
		j, ok := pipeline.Job{}, false
		if an == "reach" {
			d, err := describe(o, pool[k])
			if err != nil {
				return nil, err
			}
			j, ok = programJob(o, rng, d, an, b)
		}
		if !ok {
			if an == "reach" {
				an = "coverage" // an input that takes no branch gives no target
			}
			j = pool[k].job(b.spec(rng, an))
		}
		jobs = append(jobs, j)
	}
	for i := 0; i < nsat; i++ {
		jobs = append(jobs, formulaJob(rng, churnBudget, 1+i%3))
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, nil
}

// zipfQuota returns n ranks in [0, size) in which rank k appears
// n·P(k) times, P(k) ∝ (8+k)^-1.1, rounded by largest remainder.
func zipfQuota(size, n int) []int {
	w := make([]float64, size)
	var sum float64
	for k := range w {
		w[k] = math.Pow(float64(8+k), -1.1)
		sum += w[k]
	}
	counts := make([]int, size)
	rem := make([]int, size)
	left := n
	for k := range w {
		counts[k] = int(float64(n) * w[k] / sum)
		left -= counts[k]
		rem[k] = k
	}
	frac := func(k int) float64 { return float64(n)*w[k]/sum - float64(counts[k]) }
	sort.Slice(rem, func(i, j int) bool { return frac(rem[i]) > frac(rem[j]) })
	for _, k := range rem[:left] {
		counts[k]++
	}
	var ranks []int
	for k, c := range counts {
		for ; c > 0; c-- {
			ranks = append(ranks, k)
		}
	}
	return ranks
}

// vmInputs is the VM-vs-tree input battery for a source program.
func vmInputs(seed int64, dim int) [][]float64 {
	return fplgen.Inputs(rand.New(rand.NewSource(seed)), dim)
}
