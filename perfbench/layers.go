package main

// Per-layer measurement for the traced run. Every number here comes
// from spans and counters the benchmark records around calls into a
// layer's public API; nothing inside the program is instrumented.

import (
	"bytes"
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/compile"
	"repro/internal/gofront"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// evalSampleEvery is the stride of timed scalar evaluations: timing
// every call would cost as much as a small evaluation.
const evalSampleEvery = 8

// maxReplaySamples bounds the recorded (monitor, input) pairs per job
// used for the instrument-overhead replay.
const maxReplaySamples = 16

type replaySample struct {
	mon rt.Monitor
	x   []float64
}

// evalCounter counts and times the evaluations of one job's program. It
// wraps Run, RunBatch and NewInstance, so every instance an analysis
// forks reports here.
type evalCounter struct {
	width int // the job's lane width

	scalar, sampled, sampledNs atomic.Int64
	sweeps, lanes, sweepNs     atomic.Int64

	mu      sync.Mutex
	samples []replaySample
}

func (c *evalCounter) keep(m rt.Monitor, x []float64) {
	c.mu.Lock()
	if len(c.samples) < maxReplaySamples {
		c.samples = append(c.samples, replaySample{m, append([]float64(nil), x...)})
	}
	c.mu.Unlock()
}

func (c *evalCounter) wrap(p *rt.Program) *rt.Program {
	w := *p
	run := p.Run
	w.Run = func(ctx *rt.Ctx, x []float64) {
		if c.scalar.Add(1)%evalSampleEvery != 0 {
			run(ctx, x)
			return
		}
		c.keep(ctx.Monitor(), x)
		t := time.Now()
		run(ctx, x)
		c.sampledNs.Add(int64(time.Since(t)))
		c.sampled.Add(1)
	}
	if rb := p.RunBatch; rb != nil {
		w.RunBatch = func(mons []rt.Monitor, xs [][]float64, out []float64) {
			if len(xs) > 0 {
				c.keep(mons[0], xs[0])
			}
			t := time.Now()
			rb(mons, xs, out)
			c.sweepNs.Add(int64(time.Since(t)))
			c.sweeps.Add(1)
			c.lanes.Add(int64(len(xs)))
		}
	}
	if ni := p.NewInstance; ni != nil {
		w.NewInstance = func() *rt.Program { return c.wrap(ni()) }
	}
	return &w
}

// evals is the number of program evaluations (scalar runs plus lanes).
func (c *evalCounter) evals() int64 { return c.scalar.Load() + c.lanes.Load() }

// evalTime estimates the time spent evaluating: the sampled scalar
// runs scaled to all of them, plus every sweep.
func (c *evalCounter) evalTime() time.Duration {
	var scalar float64
	if n := c.sampled.Load(); n > 0 {
		scalar = float64(c.sampledNs.Load()) / float64(n) * float64(c.scalar.Load())
	}
	return time.Duration(scalar) + time.Duration(c.sweepNs.Load())
}

// layerStats accumulates the decomposed per-job layer measurements of a
// traced run. Safe for concurrent use.
type layerStats struct {
	mu sync.Mutex

	jobs, findings int
	evals          int64
	analysisTime   time.Duration
	evalTime       time.Duration

	vmEvals, vmSampled int64
	vmSampledNs        int64
	sweeps, lanes      int64
	laneSlots          int64
	sweepNs            int64

	monNs, nopNs int64

	overheadUs []float64
	mismatches int
}

// replayJob runs one job again through the layers RunJob composes —
// module cache (a shadow cache with the pipeline's capacity), the
// analysis, MarshalResult — each under its own span, and compares the
// outcome with the result the pipeline gave. runBatch is the duration
// of the pipeline's RunBatch call for the same job; what remains of it
// after the cache and the analysis is the pipeline's own per-job
// overhead (RunBatch does not marshal).
func (ls *layerStats) replayJob(tr *Tracer, parent, req int64, shadow *pipeline.ModuleCache,
	j pipeline.Job, runBatch time.Duration, want pipeline.JobResult) {
	ctx := context.Background()
	a, err := analysis.Lookup(j.Spec.Analysis)
	if err != nil {
		ls.mismatch()
		return
	}
	spec := j.Spec
	var in analysis.Input
	var cacheDur time.Duration
	isVM := false
	if a.Knobs().Program {
		t0 := time.Now()
		var p *rt.Program
		name := "cli.Builtin"
		if j.Builtin != "" {
			p, err = cli.Builtin(j.Builtin)
			in.SF = cli.SFForBuiltin(j.Builtin)
		} else {
			lg, _ := gofront.ParseLang(j.Lang)
			var hit bool
			p, hit, err = shadow.Program(lg, j.Source, j.Func, interp.EngineVM)
			name = "pipeline.cache_miss"
			if hit {
				name = "pipeline.cache_hit"
			}
			isVM = true
		}
		t1 := time.Now()
		cacheDur = t1.Sub(t0)
		tr.Record(name, parent, req, t0, t1)
		if err != nil {
			ls.mismatch()
			return
		}
		in.Program = p
		if spec.Bounds, err = opt.BroadcastBounds(spec.Bounds, p.Dim); err != nil {
			ls.mismatch()
			return
		}
	}
	t0 := time.Now()
	rep, err := a.Run(ctx, in, spec)
	t1 := time.Now()
	tr.Record("analysis."+a.Name(), parent, req, t0, t1)
	if err != nil {
		ls.mismatch()
		return
	}
	orig := in.Program
	res := pipeline.JobResult{Index: want.Index, Analysis: a.Name(), Report: rep,
		Summary: rep.Summary(), Failed: rep.Failed(), Canceled: rep.Interrupted()}
	if orig != nil {
		res.Program = orig.Name
	}
	t2 := time.Now()
	got := pipeline.MarshalResult(res)
	t3 := time.Now()
	tr.Record("pipeline.MarshalResult", parent, req, t2, t3)
	same := bytes.Equal(pipeline.NormalizeDurations(got),
		pipeline.NormalizeDurations(pipeline.MarshalResult(want)))

	// The same analysis once more on a program whose evaluations are
	// counted and sampled: the VM and search metrics come from this run,
	// so the timed run above carries no wrapper cost.
	ctr := &evalCounter{width: spec.Lanes}
	if orig != nil {
		in.Program = ctr.wrap(orig)
	}
	c0 := time.Now()
	if _, err := a.Run(ctx, in, spec); err != nil {
		ls.mismatch()
		return
	}
	c1 := time.Now()
	tr.Record("analysis.counted", parent, req, c0, c1)

	// Instrument overhead: the recorded inputs again, under the
	// analysis' own monitor and under the no-op monitor.
	var monNs, nopNs int64
	if orig != nil {
		inst := orig.Instance()
		for _, s := range ctr.samples {
			t := time.Now()
			inst.Execute(s.mon, s.x)
			monNs += int64(time.Since(t))
			t = time.Now()
			inst.Execute(rt.NopMonitor{}, s.x)
			nopNs += int64(time.Since(t))
		}
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	if !same {
		ls.mismatches++
	}
	ls.jobs++
	ls.findings += findingCount(rep)
	ls.evals += ctr.evals()
	ls.analysisTime += c1.Sub(c0)
	ls.evalTime += ctr.evalTime()
	if isVM {
		ls.vmEvals += ctr.scalar.Load()
		ls.vmSampled += ctr.sampled.Load()
		ls.vmSampledNs += ctr.sampledNs.Load()
	}
	ls.sweeps += ctr.sweeps.Load()
	ls.lanes += ctr.lanes.Load()
	ls.laneSlots += ctr.sweeps.Load() * int64(max(ctr.width, 1))
	ls.sweepNs += ctr.sweepNs.Load()
	ls.monNs += monNs
	ls.nopNs += nopNs
	if runBatch > 0 {
		ls.overheadUs = append(ls.overheadUs, us(runBatch-cacheDur-t1.Sub(t0)))
	}
}

func (ls *layerStats) mismatch() {
	ls.mu.Lock()
	ls.mismatches++
	ls.mu.Unlock()
}

// findingCount is a report's number of findings: boundary conditions
// hit, branch sides covered, overflowing or non-finite sites, a reached
// path or a decided formula.
func findingCount(rep analysis.Report) int {
	switch r := rep.(type) {
	case *analysis.BoundaryReport:
		return len(r.Conditions)
	case *analysis.CoverReport:
		return len(r.Covered)
	case *analysis.OverflowRun:
		return len(r.Findings)
	case *analysis.NonFiniteReport:
		return len(r.Findings)
	case *analysis.ReachRun:
		if r.Found {
			return 1
		}
	case *analysis.SatRun:
		if r.Verdict == 1 {
			return 1
		}
	}
	return 0
}

// metrics fills the layer metrics the decomposed replay measures.
func (ls *layerStats) metrics(m map[string]float64, lt layerTimes) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	for _, an := range allAnalyses {
		m["analysis."+an+"_ms"] = mean(lt.total["analysis."+an]) / 1000
	}
	m["analysis.evals_per_job"] = ratio(float64(ls.evals), float64(ls.jobs))
	m["analysis.search_self_frac"] = ratio(float64(ls.analysisTime-ls.evalTime), float64(ls.analysisTime))
	m["analysis.findings_per_kilo_eval"] = ratio(float64(ls.findings), float64(ls.evals)) * 1000
	m["compile.vm_evals"] = float64(ls.vmEvals)
	m["compile.vm_ns_per_eval"] = ratio(float64(ls.vmSampledNs), float64(ls.vmSampled))
	m["compile.batch_sweeps"] = float64(ls.sweeps)
	m["compile.batch_ns_per_lane"] = ratio(float64(ls.sweepNs), float64(ls.lanes))
	m["compile.batch_lane_fill"] = ratio(float64(ls.lanes), float64(ls.laneSlots))
	m["instrument.overhead_frac"] = ratio(float64(ls.monNs-ls.nopNs), float64(ls.monNs))
	m["pipeline.job_overhead_us"] = mean(ls.overheadUs)
}

// probeFrontends times the frontend and compile layers on a workload's
// distinct sources: lang.Parse, lang.Check and ir.Lower (FPL) or
// gofront.CompileSource (Go), compile.Compile, interp.Program with the
// flat code already built, and a fresh ModuleCache's miss then hit. Each
// source is measured reps times.
func probeFrontends(tr *Tracer, srcs []program, reps int) error {
	for r := 0; r < reps; r++ {
		cache := pipeline.NewModuleCache()
		for i, p := range srcs {
			req := int64(i)
			root := tr.Open()
			start := time.Now()
			var mod *ir.Module
			var err error
			if p.Lang == "go" {
				t0 := time.Now()
				mod, err = gofront.CompileSource(gofront.LangGo, "", p.Source)
				tr.Record("gofront.CompileSource", root, req, t0, time.Now())
			} else {
				t0 := time.Now()
				var f *lang.File
				f, err = lang.Parse(p.Source)
				t1 := time.Now()
				tr.Record("lang.Parse", root, req, t0, t1)
				if err == nil {
					err = lang.Check(f)
					t2 := time.Now()
					tr.Record("lang.Check", root, req, t1, t2)
					if err == nil {
						mod, err = ir.Lower(f)
						tr.Record("ir.Lower", root, req, t2, time.Now())
					}
				}
			}
			if err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			t0 := time.Now()
			if _, err := compile.Compile(mod); err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			tr.Record("compile.Compile", root, req, t0, time.Now())
			it := interp.New(mod)
			it.Engine = interp.EngineVM
			if _, err := it.Program(p.Func); err != nil { // builds the flat code
				return fmt.Errorf("frontend probe: %w", err)
			}
			t0 = time.Now()
			if _, err := it.Program(p.Func); err != nil {
				return fmt.Errorf("frontend probe: %w", err)
			}
			tr.Record("interp.Program", root, req, t0, time.Now())
			lg, _ := gofront.ParseLang(p.Lang)
			for k := 0; k < 2; k++ {
				t0 = time.Now()
				_, hit, err := cache.Program(lg, p.Source, p.Func, interp.EngineVM)
				if err != nil {
					return fmt.Errorf("frontend probe: %w", err)
				}
				name := "pipeline.cache_miss"
				if hit {
					name = "pipeline.cache_hit"
				}
				tr.Record(name, root, req, t0, time.Now())
			}
			tr.Close(root, "frontend", 0, req, start, time.Now())
		}
	}
	return nil
}

// frontendMetrics reads the frontend and cache-latency metrics from the
// spans.
func frontendMetrics(m map[string]float64, lt layerTimes) {
	for name, span := range map[string]string{
		"lang.parse_us":          "lang.Parse",
		"lang.check_us":          "lang.Check",
		"ir.lower_us":            "ir.Lower",
		"gofront.compile_us":     "gofront.CompileSource",
		"compile.compile_us":     "compile.Compile",
		"interp.program_us":      "interp.Program",
		"pipeline.cache_miss_us": "pipeline.cache_miss",
		"pipeline.cache_hit_us":  "pipeline.cache_hit",
		"pipeline.marshal_us":    "pipeline.MarshalResult",
	} {
		m[name] = mean(lt.self[span])
	}
}

// distinctSources returns the distinct source programs of a job list,
// in first-use order, at most limit of them.
func distinctSources(jobs []pipeline.Job, limit int) []program {
	seen := map[string]bool{}
	var out []program
	for _, j := range jobs {
		if j.Source == "" {
			continue
		}
		key := j.Lang + "\x00" + j.Func + "\x00" + j.Source
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, program{Source: j.Source, Lang: j.Lang, Func: j.Func})
		if len(out) == limit {
			break
		}
	}
	return out
}

// goStats is a runtime/metrics snapshot.
type goStats struct{ allocs, allocBytes, gcCPU, totalCPU float64 }

var goMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{v(0), v(1), v(2), v(3)}
}

// goMetrics reports the runtime's allocation and GC cost per job
// between two snapshots.
func goMetrics(m map[string]float64, a, b goStats, jobs int) {
	m["go.allocs_per_job"] = ratio(b.allocs-a.allocs, float64(jobs))
	m["go.alloc_kb_per_job"] = ratio(b.allocBytes-a.allocBytes, float64(jobs)) / 1024
	m["go.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU)
}
