package main

// The closed-loop workloads, search and churn: nproc clients, each
// calling Pipeline.RunBatch with one job and sending the next job only
// after the previous one returned.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/pipeline"
)

// closedPhase is one timed pass of a closed loop.
type closedPhase struct {
	latMs   []float64 // per completed job, call → result
	doneS   []float64 // per completed job, seconds since the phase started
	elapsed time.Duration
	errors  int
}

// closedLoop runs jobs round-robin (job i%len(jobs) is the i-th sent)
// from the given number of clients until dur has elapsed — or, with
// limit > 0, until limit jobs were sent — recording each job's first
// result in firsts. after, when non-nil, runs on the client after each
// job, outside its latency.
func closedLoop(pl *pipeline.Pipeline, jobs []pipeline.Job, clients int, dur time.Duration, limit int,
	firsts *resultSet, after func(idx int, r pipeline.JobResult, t0, t1 time.Time)) closedPhase {
	var (
		next  atomic.Int64
		mu    sync.Mutex
		phase closedPhase
		last  time.Time
		wg    sync.WaitGroup
	)
	ctx := context.Background()
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				if limit > 0 && n >= limit {
					return
				}
				idx := n % len(jobs)
				t0 := time.Now()
				r := pl.RunBatch(ctx, jobs[idx:idx+1])[0]
				t1 := time.Now()
				mu.Lock()
				phase.latMs = append(phase.latMs, ms(t1.Sub(t0)))
				phase.doneS = append(phase.doneS, t1.Sub(start).Seconds())
				if t1.After(last) {
					last = t1
				}
				if r.Error != "" || r.Canceled {
					phase.errors++
				}
				mu.Unlock()
				firsts.put(idx, r)
				if after != nil {
					after(idx, r, t0, t1)
				}
			}
		}()
	}
	wg.Wait()
	phase.elapsed = last.Sub(start)
	return phase
}

// resultSet keeps the first result of every job index.
type resultSet struct {
	mu  sync.Mutex
	res map[int]pipeline.JobResult
}

func newResultSet() *resultSet { return &resultSet{res: map[int]pipeline.JobResult{}} }

func (s *resultSet) put(idx int, r pipeline.JobResult) {
	s.mu.Lock()
	if _, ok := s.res[idx]; !ok {
		s.res[idx] = r
	}
	s.mu.Unlock()
}

// closedState is what a closed workload's set-up produces.
type closedState struct {
	pl     *pipeline.Pipeline
	jobs   []pipeline.Job
	firsts *resultSet // filled by the warm-up
}

// runClosed drives a closed workload: set-up repeated (the last one is
// kept), an untraced timed phase, and with tracing a second, traced
// phase plus the layer probes. Throughput and latency quantiles are
// medians over the phase's windows.
func runClosed(o options, setup func() (*closedState, error)) (*outcome, error) {
	var st *closedState
	setupS, err := repeatSetup(o.setupReps(), func() (func(), error) {
		s, err := setup()
		if err != nil {
			return nil, err
		}
		st = s
		return func() {}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	firsts := st.firsts
	settle()
	g0 := readGoStats()
	phase := closedLoop(st.pl, st.jobs, o.clients, o.duration(), 0, firsts, nil)
	g1 := readGoStats()
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.attempted = len(phase.latMs)
	out.failed = phase.errors
	rate, q := windowed(phase.doneS, phase.latMs, o.phaseSeconds(), o.windows(), 0.5, o.tailQ)
	out.metrics["setup_s"] = setupS
	out.metrics["jobs_per_s"] = rate
	out.metrics["job_latency_p50_ms"] = q[0]
	out.metrics["job_latency_tail_ms"] = q[1]
	out.tailSamples = len(phase.latMs) / o.windows()

	if o.trace {
		if err := tracedClosed(o, st, phase, out, firsts); err != nil {
			return nil, err
		}
		goMetrics(out.metrics, g0, g1, len(phase.latMs))
	}

	// The oracle, outside every timed region: each distinct job's
	// first result.
	res := firsts.snapshot()
	if len(res) < len(st.jobs) && !o.tiny {
		out.problems = append(out.problems, fmt.Sprintf(
			"only %d of %d distinct jobs completed in the run; findings_per_job would depend on speed", len(res), len(st.jobs)))
	}
	var findings int
	orc := newOracle()
	for idx, r := range res {
		v := orc.check(st.jobs[idx], r)
		findings += v.findings
		for _, p := range v.problems {
			out.problems = append(out.problems, fmt.Sprintf("job %d (%s): %s", idx, st.jobs[idx].Spec.Analysis, p))
		}
	}
	// Every source program must give VM = tree on the input battery.
	for _, p := range distinctSources(st.jobs, len(st.jobs)) {
		t, err := orc.target(p.job(analysis.Spec{}))
		if err == nil {
			err = vmMatchesTree(p.Lang, p.Source, p.Func, vmInputs(o.seed, t.prog.Dim))
		}
		if err != nil {
			out.problems = append(out.problems, "vm vs tree: "+err.Error())
		}
	}
	out.metrics["findings_per_job"] = ratio(float64(findings), float64(len(res)))
	return out, nil
}

func (s *resultSet) snapshot() map[int]pipeline.JobResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]pipeline.JobResult, len(s.res))
	for k, v := range s.res {
		out[k] = v
	}
	return out
}

// tracedClosed is the traced phase of a closed workload: the same loop,
// with every job replayed through its layers after RunBatch returns,
// then the frontend probe and the service probe on the workload's own
// jobs.
func tracedClosed(o options, st *closedState, untraced closedPhase, out *outcome, firsts *resultSet) error {
	tr := newTracer()
	ls := &layerStats{}
	shadow := pipeline.NewModuleCache()
	shadow.MaxModules = st.pl.Cache.MaxModules
	for _, p := range distinctSources(st.jobs, pipeline.DefaultMaxModules) {
		if _, _, err := shadow.Program(langOf(p.Lang), p.Source, p.Func, interp.EngineVM); err != nil {
			return err
		}
	}
	c0 := st.pl.Cache.Stats()
	var seq atomic.Int64
	dur, limit := o.duration(), 0
	if o.tiny {
		// Self-tests need every analysis traced: one full pass.
		dur, limit = time.Hour, len(st.jobs)
	}
	traced := closedLoop(st.pl, st.jobs, o.clients, dur, limit, firsts,
		func(idx int, r pipeline.JobResult, t0, t1 time.Time) {
			req := seq.Add(1)
			root := tr.Open()
			tr.Record("pipeline.RunBatch", root, req, t0, t1)
			ls.replayJob(tr, root, req, shadow, st.jobs[idx], t1.Sub(t0), r)
			tr.Close(root, "job", 0, req, t0, time.Now())
		})
	c1 := st.pl.Cache.Stats()
	out.failed += traced.errors
	out.attempted += len(traced.latMs)

	reps, nsrc := 10, 16
	if o.workload == "churn" {
		reps, nsrc = 1, 64
	}
	if o.tiny {
		reps = 1
	}
	if err := probeFrontends(tr, distinctSources(st.jobs, nsrc), reps); err != nil {
		return err
	}
	probe, registerMs, err := serviceProbe(o, tr, st.jobs)
	if err != nil {
		return err
	}

	m := out.metrics
	lt := aggregate(tr.Spans())
	ls.metrics(m, lt)
	frontendMetrics(m, lt)
	probe.metrics(m, lt, registerMs)
	hits, compiles := c1.Hits-c0.Hits, c1.Compiles-c0.Compiles
	m["pipeline.cache_hit_frac"] = ratio(float64(hits), float64(hits+compiles))
	m["pipeline.compiles"] = float64(compiles)
	m["bench.trace_overhead_frac"] = ratio(mean(traced.latMs)-mean(untraced.latMs), mean(untraced.latMs))
	if ls.mismatches > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d jobs differ between RunBatch and the layer-by-layer replay", ls.mismatches))
	}
	out.spans = tr.Spans()
	return nil
}

// --- search ---

func searchSetup(o options) (*closedState, error) {
	orc := newOracle()
	progs, err := searchCatalog(orc, o.tiny)
	if err != nil {
		return nil, err
	}
	jobs := searchJobs(orc, progs, o.seed, o.tiny)
	pl := pipeline.New(o.clients)
	// Warm-up: every job once, which also compiles every source.
	firsts := newResultSet()
	closedLoop(pl, jobs, o.clients, time.Hour, len(jobs), firsts, nil)
	return &closedState{pl: pl, jobs: jobs, firsts: firsts}, nil
}

// --- churn ---

func churnSetup(o options) (*closedState, error) {
	orc := newOracle()
	size, n := churnPoolSize, 4096
	if o.tiny {
		size, n = 48, 96
	}
	pool, err := churnPool(size)
	if err != nil {
		return nil, err
	}
	jobs, err := churnJobs(orc, pool, o.seed, n)
	if err != nil {
		return nil, err
	}
	pl := pipeline.New(o.clients)
	if o.tiny {
		pl.Cache.MaxModules = size / 4
	}
	// Warm-up: the first two cache-fulls of draws.
	firsts := newResultSet()
	closedLoop(pl, jobs, o.clients, time.Hour, 2*pipeline.DefaultMaxModules, firsts, nil)
	return &closedState{pl: pl, jobs: jobs, firsts: firsts}, nil
}
