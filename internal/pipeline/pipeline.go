// Package pipeline is the batched analysis layer on top of the
// analysis registry: it fans a batch of ⟨program, analysis, spec⟩ jobs
// over a worker pool, with a compiled-module cache keyed by source hash
// so repeated requests for the same FPL source skip compilation
// entirely. Jobs are independent — each runs over its own program
// instance with its own spec-level parallelism (reusing the
// opt.ParallelStarts determinism contract) — so batch results are
// bit-identical for every worker count. The package also hosts the
// fpserve HTTP handler (server.go).
package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"regexp"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/gofront"
	"repro/internal/interp"
	"repro/internal/opt"
)

// Job is one unit of batch work: a program (built-in name or inline FPL
// source) plus the spec of the analysis to run on it.
type Job struct {
	// Builtin names a built-in benchmark program.
	Builtin string `json:"builtin,omitempty"`
	// Source is inline source (compiled through the module cache).
	Source string `json:"source,omitempty"`
	// Lang names the language Source is written in: "fpl" (the
	// default) or "go". Ignored for builtin programs.
	Lang string `json:"lang,omitempty"`
	// Func selects the function within Source (empty = first declared).
	Func string `json:"func,omitempty"`
	// Spec selects and configures the analysis. Formula-based analyses
	// (xsat) need no program fields.
	Spec analysis.Spec `json:"spec"`
}

// JobResult is the outcome of one job. Report is the typed analysis
// report; it serializes under its concrete type's JSON shape.
type JobResult struct {
	// Index is the job's position in the batch; results are delivered
	// in index order.
	Index int `json:"index"`
	// Analysis is the canonical analysis name.
	Analysis string `json:"analysis"`
	// Program is the resolved program name, when the analysis ran on
	// one.
	Program string `json:"program,omitempty"`
	// CacheHit reports that the job's module came from the cache. It
	// depends on scheduling order under concurrency, so it is excluded
	// from the wire format — streamed batch output stays bit-identical
	// for every worker count; cache effectiveness is served by /stats.
	CacheHit bool `json:"-"`
	// Summary is the report's one-line outcome.
	Summary string `json:"summary,omitempty"`
	// Failed mirrors Report.Failed (path unreached, formula undecided).
	Failed bool `json:"failed,omitempty"`
	// Error is set when the job could not run.
	Error string `json:"error,omitempty"`
	// Canceled reports the job was cancelled (or hit its deadline): it
	// either never ran, or ran partially — Report then holds whatever
	// the analysis had produced when the context fired.
	Canceled bool `json:"canceled,omitempty"`
	// Report is the typed analysis report.
	Report analysis.Report `json:"report,omitempty"`
}

// MarshalResult encodes a result as JSON. Reports containing
// non-finite floats (a possibility for analyses hunting overflow) are
// not representable in JSON; such results degrade to summary-only
// rather than failing the batch.
func MarshalResult(r JobResult) []byte {
	b, err := json.Marshal(r)
	if err != nil {
		r.Report = nil
		if r.Error == "" {
			r.Error = "report not JSON-serializable: " + err.Error()
		}
		b, _ = json.Marshal(r)
	}
	return b
}

// durationField matches the wall-clock duration of the site-hunt
// reports — the only nondeterministic bytes of a wire result.
var durationField = regexp.MustCompile(`"duration":\d+`)

// NormalizeDurations masks the wall-clock duration fields of a wire
// result, leaving every seed-deterministic byte intact. Byte-exact
// consumers of MarshalResult output (the fuzz harness's determinism
// oracle, the golden tests) compare through it; if another
// nondeterministic field is ever added to a report, extend this
// function — it is the single definition of "what may differ between
// identical runs".
func NormalizeDurations(b []byte) []byte {
	return durationField.ReplaceAll(b, []byte(`"duration":0`))
}

// Pipeline schedules batches of analysis jobs over a worker pool with a
// shared module cache. The pool is shared by every Stream/RunBatch call
// (and, under fpserve, every in-flight request), so Workers is a global
// concurrency bound. The zero value is not ready; use New.
type Pipeline struct {
	// Workers bounds concurrently running jobs; 0 selects
	// runtime.NumCPU(). Worker count never changes results, only
	// wall-clock time.
	Workers int
	// Cache is the compiled-module cache, shared by every batch (and,
	// under fpserve, every request).
	Cache *ModuleCache
	// InjectPanic is a fault-injection hook: when non-nil and returning
	// a non-empty message for a job, that job panics with it inside the
	// recover boundary — exercising the isolation path without a real
	// bug. Nil in production.
	InjectPanic func(idx int, j Job) string
	// PanicHook observes recovered panics (full stack included) — the
	// server logs them; the wire result carries only the digest.
	PanicHook func(idx int, j Job, v any, stack []byte)

	semOnce sync.Once
	sem     chan struct{}
	panics  atomic.Int64
}

// New returns a pipeline with a fresh module cache.
func New(workers int) *Pipeline {
	return &Pipeline{Workers: workers, Cache: NewModuleCache()}
}

// slots returns the shared job-concurrency semaphore.
func (pl *Pipeline) slots() chan struct{} {
	pl.semOnce.Do(func() {
		w := pl.Workers
		if w <= 0 {
			w = runtime.NumCPU()
		}
		pl.sem = make(chan struct{}, w)
	})
	return pl.sem
}

// Panics reports how many jobs hit the recover boundary since start.
func (pl *Pipeline) Panics() int64 { return pl.panics.Load() }

// stackAddr matches the run-varying tokens of a goroutine stack trace
// (heap addresses, frame offsets, goroutine numbers). stackDigest
// strips them so the same panic site digests identically across runs —
// the crash-recovery harness compares re-executed results
// byte-for-byte, and a digest that embedded addresses would break that
// for injected panics.
var stackAddr = regexp.MustCompile(`0x[0-9a-f]+|goroutine \d+`)

// stackDigest condenses a panic stack to a short stable fingerprint:
// the client-visible correlation key for the full stack the server
// logs. The goroutine header (varying ID) and all addresses are
// normalized away.
func stackDigest(stack []byte) string {
	norm := stack
	if i := bytes.IndexByte(norm, '\n'); i >= 0 {
		norm = norm[i+1:] // drop "goroutine N [running]:"
	}
	norm = stackAddr.ReplaceAll(norm, []byte("0x?"))
	sum := sha256.Sum256(norm)
	return fmt.Sprintf("%x", sum[:6])
}

// runJobSafe is RunJob behind the per-job recover boundary: a panic —
// a poisoned program tripping a bug in an analysis, or an injected
// fault — fails that one job with an internal-error result carrying
// the stack digest, instead of unwinding the worker goroutine and
// killing the whole server.
func (pl *Pipeline) runJobSafe(ctx context.Context, idx int, j Job) (res JobResult) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		stack := debug.Stack()
		pl.panics.Add(1)
		if pl.PanicHook != nil {
			pl.PanicHook(idx, j, v, stack)
		}
		res = JobResult{
			Index:    idx,
			Analysis: j.Spec.Analysis,
			Failed:   true,
			Error:    fmt.Sprintf("internal error: panic: %v [stack sha256:%s]", v, stackDigest(stack)),
		}
	}()
	if fp := pl.InjectPanic; fp != nil {
		if msg := fp(idx, j); msg != "" {
			panic(msg)
		}
	}
	return pl.RunJob(ctx, idx, j)
}

// RunJob executes one job. The context cancels it cooperatively at
// weak-distance-evaluation granularity: a job cancelled mid-analysis
// returns promptly with a partial report and Canceled set.
func (pl *Pipeline) RunJob(ctx context.Context, idx int, j Job) JobResult {
	res := JobResult{Index: idx, Analysis: j.Spec.Analysis}
	a, err := analysis.Lookup(j.Spec.Analysis)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Analysis = a.Name()

	var in analysis.Input
	spec := j.Spec
	if a.Knobs().Program {
		switch {
		case j.Builtin != "" && j.Source != "":
			res.Error = "use either builtin or source, not both"
			return res
		case j.Builtin != "":
			p, err := cli.Builtin(j.Builtin)
			if err != nil {
				res.Error = err.Error()
				return res
			}
			in.Program = p
			in.SF = cli.SFForBuiltin(j.Builtin)
		case j.Source != "":
			lg, err := gofront.ParseLang(j.Lang)
			if err != nil {
				res.Error = (&analysis.SpecError{Field: "lang", Value: j.Lang, Reason: err.Error()}).Error()
				return res
			}
			p, hit, err := pl.Cache.Program(lg, j.Source, j.Func, interp.EngineVM)
			if err != nil {
				res.Error = err.Error()
				return res
			}
			in.Program = p
			res.CacheHit = hit
		default:
			res.Error = fmt.Sprintf("analysis %q needs a program: set builtin or source", a.Name())
			return res
		}
		res.Program = in.Program.Name
		spec.Bounds, err = opt.BroadcastBounds(spec.Bounds, in.Program.Dim)
		if err != nil {
			res.Error = (&analysis.SpecError{Field: "bounds", Reason: err.Error()}).Error()
			return res
		}
	}

	rep, err := a.Run(ctx, in, spec)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	res.Report = rep
	res.Summary = rep.Summary()
	res.Failed = rep.Failed()
	// The report's own flag, not ctx.Err(): a context that fires after
	// the analysis completed must not mislabel a complete report as
	// partial.
	res.Canceled = rep.Interrupted()
	return res
}

// Stream runs the batch over the worker pool and delivers results to
// emit in job order, each as soon as it (and all its predecessors) is
// done. Results are bit-identical for every Workers value.
//
// The context cancels the batch: jobs not yet dispatched when ctx fires
// are reported as canceled instead of run (so an abandoned request
// stops occupying the shared worker pool), and jobs already running are
// cancelled at weak-distance-evaluation granularity, returning partial
// reports. Pass context.Background() for the uncancellable form.
func (pl *Pipeline) Stream(ctx context.Context, jobs []Job, emit func(JobResult)) {
	n := len(jobs)
	if n == 0 {
		return
	}
	sem := pl.slots()
	done := make([]chan JobResult, n)
	for i := range done {
		done[i] = make(chan JobResult, 1)
	}
	queue := make(chan int, n)
	for i := 0; i < n; i++ {
		queue <- i
	}
	close(queue)
	// A bounded set of runner goroutines pulls job indices; each job
	// additionally holds a slot of the pipeline-wide semaphore, so
	// concurrency is bounded both per call and across calls.
	runners := cap(sem)
	if runners > n {
		runners = n
	}
	for w := 0; w < runners; w++ {
		go func() {
			for i := range queue {
				// Acquire a pool slot or observe cancellation, whichever
				// comes first: a dead request must not consume a slot
				// that frees up later.
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					done[i] <- JobResult{Index: i, Analysis: jobs[i].Spec.Analysis,
						Canceled: true, Error: "canceled: " + ctx.Err().Error()}
					continue
				}
				if err := ctx.Err(); err != nil {
					<-sem
					done[i] <- JobResult{Index: i, Analysis: jobs[i].Spec.Analysis,
						Canceled: true, Error: "canceled: " + err.Error()}
					continue
				}
				done[i] <- pl.runJobSafe(ctx, i, jobs[i])
				<-sem
			}
		}()
	}
	for i := 0; i < n; i++ {
		emit(<-done[i])
	}
}

// RunBatch runs the batch and returns all results in job order.
func (pl *Pipeline) RunBatch(ctx context.Context, jobs []Job) []JobResult {
	out := make([]JobResult, 0, len(jobs))
	pl.Stream(ctx, jobs, func(r JobResult) { out = append(out, r) })
	return out
}
