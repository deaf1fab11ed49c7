package main

// The service workload, and the service probe the closed workloads'
// traced runs use: a /v1 coordinator front with a fsynced job journal,
// dispatching to two in-process workers over loopback HTTP, driven by an
// open-loop generator.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/gsl/lift"
	"repro/internal/journal"
	"repro/internal/pipeline"
)

// serviceRate is the offered load of the service workload in batches
// per second: about half the closed-loop capacity of the stack on a
// 2-core host (-capacity measures it; see README.md).
const serviceRate = 64.0

// serviceWorkers is the in-process fleet size.
const serviceWorkers = 2

// arrivalSpans links the spans of one submitted batch. Jobs carry
// unique spec seeds, which is how the journal and runner wrappers find
// the batch a call belongs to.
type arrivalSpans struct {
	idx  int64
	root int64        // the batch's root span (reserved at send time)
	sub  atomic.Int64 // the client's http.submit span
	run  atomic.Int64 // the front's cluster.Run span
}

// hooks carries the tracer (nil when untraced) into the wrappers the
// stack installs around the journal and the runners.
type hooks struct {
	tr     atomic.Pointer[Tracer]
	bySeed sync.Map // spec seed → *arrivalSpans
	byID   sync.Map // front job ID → *arrivalSpans
}

func (h *hooks) arrival(seed int64) *arrivalSpans {
	if a, ok := h.bySeed.Load(seed); ok {
		return a.(*arrivalSpans)
	}
	return &arrivalSpans{}
}

// tracedStore times the front's journal appends.
type tracedStore struct {
	*pipeline.DurableStore
	h *hooks
}

func (s tracedStore) JobSubmitted(id string, jobs []pipeline.Job, timeout time.Duration, created time.Time) error {
	tr := s.h.tr.Load()
	t0 := time.Now()
	err := s.DurableStore.JobSubmitted(id, jobs, timeout, created)
	if tr != nil && len(jobs) > 0 {
		a := s.h.arrival(jobs[0].Spec.Seed)
		s.h.byID.Store(id, a)
		tr.Record("journal.submit", a.sub.Load(), a.idx, t0, time.Now())
	}
	return err
}

func (s tracedStore) ResultAppended(id string, index int, result json.RawMessage) error {
	tr := s.h.tr.Load()
	t0 := time.Now()
	err := s.DurableStore.ResultAppended(id, index, result)
	if tr != nil {
		if v, ok := s.h.byID.Load(id); ok {
			a := v.(*arrivalSpans)
			tr.Record("journal.result", a.run.Load(), a.idx, t0, time.Now())
		}
	}
	return err
}

// stack is one running service: front, coordinator, workers, journal
// and the benchmark's client.
type stack struct {
	h       *hooks
	workers []*pipeline.Server
	wts     []*httptest.Server
	coord   *cluster.Coordinator
	front   *pipeline.Server
	fts     *httptest.Server
	store   *pipeline.DurableStore
	dir     string
	tp      *http.Transport
	cli     *cluster.Client

	registerMs []float64
}

func newStack(o options) (*stack, error) {
	if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpDir, "journal-")
	if err != nil {
		return nil, err
	}
	s := &stack{h: &hooks{}, dir: dir}
	var addrs []string
	for i := 0; i < serviceWorkers; i++ {
		srv := pipeline.NewServer(1)
		srv.Engine.Runner = s.workerRunner(srv)
		ts := httptest.NewServer(srv.Handler())
		s.workers = append(s.workers, srv)
		s.wts = append(s.wts, ts)
		addrs = append(addrs, ts.URL)
	}
	s.coord, err = cluster.New(cluster.Config{Workers: addrs, Seed: o.seed})
	if err != nil {
		s.close()
		return nil, err
	}
	s.coord.Start()
	s.store, err = pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		s.close()
		return nil, err
	}
	s.front = pipeline.NewServer(1)
	s.front.Engine.Store = tracedStore{s.store, s.h}
	s.front.Engine.Runner = s.frontRunner()
	s.front.Engine.AdmitHook = s.coord.Admit
	s.front.ClusterStats = s.coord.StatsDoc
	s.fts = httptest.NewServer(s.front.Handler())
	s.tp = &http.Transport{MaxConnsPerHost: o.clients, MaxIdleConnsPerHost: o.clients}
	s.cli = &cluster.Client{Base: s.fts.URL, HC: &http.Client{Transport: s.tp}}
	return s, nil
}

// frontRunner wraps Coordinator.Run in the cluster.Run span.
func (s *stack) frontRunner() pipeline.Runner {
	return func(ctx context.Context, jobs []pipeline.Job, base int, emit func(int, json.RawMessage)) {
		tr := s.h.tr.Load()
		if tr == nil || len(jobs) == 0 {
			s.coord.Run(ctx, jobs, base, emit)
			return
		}
		a := s.h.arrival(jobs[0].Spec.Seed)
		id := tr.Open()
		a.run.Store(id)
		t0 := time.Now()
		s.coord.Run(ctx, jobs, base, emit)
		tr.Close(id, "cluster.Run", a.root, a.idx, t0, time.Now())
	}
}

// workerRunner is the worker engine's default runner (the shared
// pipeline, results marshalled in batch order), with the worker-side
// span and a span around each MarshalResult.
func (s *stack) workerRunner(srv *pipeline.Server) pipeline.Runner {
	return func(ctx context.Context, jobs []pipeline.Job, base int, emit func(int, json.RawMessage)) {
		tr := s.h.tr.Load()
		var a *arrivalSpans
		var id int64
		if tr != nil && len(jobs) > 0 {
			a = s.h.arrival(jobs[0].Spec.Seed)
			id = tr.Open()
		}
		t0 := time.Now()
		srv.PL.Stream(ctx, jobs, func(r pipeline.JobResult) {
			r.Index += base
			m0 := time.Now()
			b := pipeline.MarshalResult(r)
			if a != nil {
				tr.Record("pipeline.MarshalResult", id, a.idx, m0, time.Now())
			}
			emit(r.Index, b)
		})
		if a != nil {
			tr.Close(id, "worker.run", a.run.Load(), a.idx, t0, time.Now())
		}
	}
}

func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.front != nil {
		s.front.Engine.Shutdown(ctx)
	}
	if s.fts != nil {
		s.fts.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for i, w := range s.workers {
		w.Engine.Shutdown(ctx)
		s.wts[i].Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.tp != nil {
		s.tp.CloseIdleConnections()
	}
	os.RemoveAll(s.dir)
}

// register registers a program with the front and returns its ID.
func (s *stack) register(p program) (string, error) {
	t0 := time.Now()
	id, err := s.cli.RegisterProgram(context.Background(), p.Source, p.Lang, p.Func)
	s.registerMs = append(s.registerMs, ms(time.Since(t0)))
	return id, err
}

// cacheStats sums the workers' module-cache counters.
func (s *stack) cacheStats() (hits, compiles int64) {
	for _, w := range s.workers {
		st := w.PL.Cache.Stats()
		hits += st.Hits
		compiles += st.Compiles
	}
	return hits, compiles
}

// arrival is one batch of the open-loop schedule.
type arrival struct {
	at    time.Duration // due time after the phase starts
	jobs  []pipeline.V1Job
	local []pipeline.Job // the same jobs, resolved, for the oracle
}

// openPhase is one run of an arrival schedule.
type openPhase struct {
	latMs, lateMs     []float64 // per arrival: due → terminal; due → sent
	doneS             []float64 // per arrival: terminal, seconds since the phase started
	submitMs, pollMs  []float64 // client RTTs
	jobs, failed      int
	submits, shed     int
	elapsed           time.Duration
	results           [][]json.RawMessage // per arrival, in index order
	problems          []string
	syncs, requeued   int64
	routed            []int64
	cacheHits, cacheC int64
}

// pending is a submitted batch awaiting its terminal state.
type pending struct {
	i       int
	id      string
	due     time.Time
	results []json.RawMessage
}

// openLoop sends the schedule from one sender goroutine — each batch at
// its due time, 429 refusals retried after their Retry-After hint —
// while one poller goroutine pages every outstanding batch to its
// terminal state. Latency runs from the due time, so a stall also
// charges the batches it delayed. With window > 0 the due times are
// ignored and the sender keeps window batches outstanding instead: the
// closed loop that measures the stack's capacity.
func (s *stack) openLoop(sched []arrival, tr *Tracer, window int) openPhase {
	ph := openPhase{results: make([][]json.RawMessage, len(sched))}
	s.h.tr.Store(tr)
	defer s.h.tr.Store(nil)
	syncs0 := s.store.Stats().Syncs
	cs0 := s.coord.Stats()
	h0, c0 := s.cacheStats()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var (
		mu      sync.Mutex
		queue   []*pending
		sent    atomic.Bool
		last    time.Time
		wg      sync.WaitGroup
		spans   = make([]*arrivalSpans, len(sched))
		failedN atomic.Int64
	)
	start := time.Now()
	wg.Add(2)
	go func() { // sender
		defer wg.Done()
		defer sent.Store(true)
		for i, a := range sched {
			due := start.Add(a.at)
			if window > 0 {
				for {
					mu.Lock()
					n := len(queue)
					mu.Unlock()
					if n < window {
						break
					}
					time.Sleep(100 * time.Microsecond)
				}
				due = time.Now()
			}
			time.Sleep(time.Until(due))
			sendAt := time.Now()
			sp := &arrivalSpans{idx: int64(i), root: tr.Open()}
			spans[i] = sp
			for _, j := range a.local {
				s.h.bySeed.Store(j.Spec.Seed, sp)
			}
			var id string
			var err error
			for {
				sub := tr.Open()
				sp.sub.Store(sub)
				t0 := time.Now()
				id, err = s.cli.SubmitJobs(ctx, a.jobs)
				t1 := time.Now()
				tr.Close(sub, "http.submit", sp.root, sp.idx, t0, t1)
				mu.Lock()
				ph.submitMs = append(ph.submitMs, ms(t1.Sub(t0)))
				ph.submits++
				mu.Unlock()
				var busy *cluster.ErrWorkerBusy
				if !errors.As(err, &busy) {
					break
				}
				mu.Lock()
				ph.shed++
				mu.Unlock()
				time.Sleep(min(max(busy.RetryAfter, 10*time.Millisecond), time.Second))
			}
			mu.Lock()
			ph.lateMs = append(ph.lateMs, ms(sendAt.Sub(due)))
			if err != nil {
				ph.problems = append(ph.problems, fmt.Sprintf("batch %d: submit: %v", i, err))
				failedN.Add(int64(len(a.jobs)))
			} else {
				queue = append(queue, &pending{i: i, id: id, due: due})
			}
			mu.Unlock()
		}
	}()
	go func() { // poller
		defer wg.Done()
		for {
			// Read sent before the queue: the sender queues its last
			// batch before it sets sent.
			done := sent.Load()
			mu.Lock()
			q := append([]*pending(nil), queue...)
			mu.Unlock()
			if len(q) == 0 && done {
				return
			}
			if ctx.Err() != nil {
				mu.Lock()
				for _, p := range queue {
					ph.problems = append(ph.problems, fmt.Sprintf("batch %d: not terminal before the deadline", p.i))
					failedN.Add(int64(len(sched[p.i].jobs)))
				}
				mu.Unlock()
				return
			}
			for _, p := range q {
				t0 := time.Now()
				v, err := s.cli.Page(ctx, p.id, len(p.results), 256)
				t1 := time.Now()
				sp := spans[p.i]
				tr.Record("http.poll", sp.root, sp.idx, t0, t1)
				mu.Lock()
				ph.pollMs = append(ph.pollMs, ms(t1.Sub(t0)))
				mu.Unlock()
				if err != nil {
					if ctx.Err() == nil {
						continue
					}
					break
				}
				p.results = append(p.results, v.Results...)
				if v.Status == pipeline.JobRunning || v.NextOffset != nil {
					continue
				}
				n := len(sched[p.i].jobs)
				mu.Lock()
				if v.Status != pipeline.JobCompleted || len(p.results) != n {
					ph.problems = append(ph.problems, fmt.Sprintf("batch %d ended %q with %d/%d results", p.i, v.Status, len(p.results), n))
					failedN.Add(int64(n))
				} else {
					ph.jobs += n
				}
				ph.latMs = append(ph.latMs, ms(t1.Sub(p.due)))
				ph.doneS = append(ph.doneS, t1.Sub(start).Seconds())
				ph.results[p.i] = p.results
				if t1.After(last) {
					last = t1
				}
				for k, e := range queue {
					if e == p {
						queue = append(queue[:k], queue[k+1:]...)
						break
					}
				}
				mu.Unlock()
				tr.Close(sp.root, "service.batch", 0, sp.idx, p.due, t1)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	ph.elapsed = last.Sub(start)
	ph.failed = int(failedN.Load())
	ph.syncs = s.store.Stats().Syncs - syncs0
	cs1 := s.coord.Stats()
	ph.requeued = cs1.Requeued - cs0.Requeued
	for i, w := range cs1.Workers {
		ph.routed = append(ph.routed, w.Routed-cs0.Workers[i].Routed)
	}
	h1, c1 := s.cacheStats()
	ph.cacheHits, ph.cacheC = h1-h0, c1-c0
	return ph
}

// metrics fills the HTTP, journal, coordinator and generator metrics
// of a traced open-loop phase.
func (ph openPhase) metrics(m map[string]float64, lt layerTimes, registerMs []float64) {
	m["http.register_ms"] = median(registerMs)
	m["http.register_tail_ms"] = tail(registerMs)
	m["http.submit_ms"] = median(ph.submitMs)
	m["http.submit_tail_ms"] = tail(ph.submitMs)
	m["http.poll_ms"] = median(ph.pollMs)
	m["http.poll_tail_ms"] = tail(ph.pollMs)
	m["pipeline.shed_frac"] = ratio(float64(ph.shed), float64(ph.submits))
	m["journal.submit_us"] = mean(lt.self["journal.submit"])
	m["journal.result_us"] = mean(lt.self["journal.result"])
	m["journal.syncs_per_job"] = ratio(float64(ph.syncs), float64(ph.jobs))
	m["cluster.run_ms"] = mean(lt.total["cluster.Run"]) / 1000
	m["cluster.hop_ms"] = mean(lt.self["cluster.Run"]) / 1000
	m["cluster.requeued"] = float64(ph.requeued)
	var total, top int64
	for _, r := range ph.routed {
		total += r
		top = max(top, r)
	}
	m["cluster.route_max_share"] = ratio(float64(top), float64(total))
	m["loadgen.late_p99_ms"] = quantile(ph.lateMs, 0.99)
}

// serviceProbe sends a sample of a closed workload's own jobs through
// the service stack at a low open-loop rate, so the traced run of every
// workload reports the HTTP, journal and coordinator layers. Spec seeds
// are renumbered to be unique, which the span linking needs.
func serviceProbe(o options, tr *Tracer, jobs []pipeline.Job) (openPhase, []float64, error) {
	s, err := newStack(o)
	if err != nil {
		return openPhase{}, nil, err
	}
	defer s.close()
	n := 48
	if o.tiny {
		n = 6
	}
	ids := map[string]string{}
	var sched []arrival
	for i := 0; i < n && i < len(jobs); {
		a := arrival{at: time.Duration(len(sched)) * 50 * time.Millisecond}
		for k := 0; k < 1+len(sched)%3 && i < n && i < len(jobs); k++ {
			j := jobs[i]
			i++
			j.Spec.Seed = int64(1_000_000_000 + i)
			vj := pipeline.V1Job{Builtin: j.Builtin, Func: j.Func, Spec: j.Spec}
			if j.Source != "" {
				key := j.Lang + "\x00" + j.Source
				if ids[key] == "" {
					if ids[key], err = s.register(program{Source: j.Source, Lang: j.Lang, Func: j.Func}); err != nil {
						return openPhase{}, nil, err
					}
				}
				vj.Program = ids[key]
			}
			a.jobs = append(a.jobs, vj)
			a.local = append(a.local, j)
		}
		sched = append(sched, a)
	}
	ph := s.openLoop(sched, tr, 0)
	if len(ph.problems) > 0 {
		return openPhase{}, nil, fmt.Errorf("service probe: %s", ph.problems[0])
	}
	return ph, s.registerMs, nil
}

// --- the service workload ---

// serviceState is the service workload's set-up.
type serviceState struct {
	s     *stack
	sched []arrival
	orc   *oracle
}

// serviceLifted are the lifted GSL functions among the service
// workload's programs.
var serviceLifted = []string{"gslCosVal", "hyperg2F0Val"}

// serviceSetup starts the stack, registers the workload's 12 programs
// (the five FPL fixtures, two lifted GSL functions and five generated
// modules of the fixed catalog), draws the arrival schedule and warms
// the workers' caches with one job per program.
func serviceSetup(o options) (*serviceState, error) {
	rng := rand.New(rand.NewSource(o.seed))
	orc := newOracle()
	progs, err := loadFixtures()
	if err != nil {
		return nil, err
	}
	for _, fn := range serviceLifted {
		progs = append(progs, program{Source: lift.CombinedSource(), Lang: "go", Func: fn})
	}
	catalog := rand.New(rand.NewSource(catalogSeed))
	for k := 0; k < 5; k++ {
		progs = append(progs, generated(catalog, k))
	}
	for i := range progs {
		if progs[i], err = describe(orc, progs[i]); err != nil {
			return nil, err
		}
	}
	s, err := newStack(o)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(progs))
	for i, p := range progs {
		if ids[i], err = s.register(p); err != nil {
			s.close()
			return nil, err
		}
	}

	// The schedule: a fixed number of arrivals at uniformly random times
	// (a Poisson process conditioned on its count), batch sizes cycling
	// through 1..8, and jobs spread evenly over every applicable
	// (program, analysis) pair, xsat taking one job in six — all in
	// seeded order.
	rate := serviceRate
	if o.tiny {
		rate = 20
	}
	n := max(4, int(rate*o.phaseSeconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * o.phaseSeconds()
	}
	sort.Float64s(times)
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + i%8
		total += sizes[i]
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	type pair struct{ prog, an int }
	var pairs []pair
	for pi, p := range progs {
		for ai, an := range programAnalyses {
			if (an == "overflow" || an == "nan") && p.Ops == 0 || (an != "overflow" && an != "nan") && p.Branches == 0 {
				continue
			}
			pairs = append(pairs, pair{pi, ai})
		}
	}
	for k, m := 0, max(1, len(pairs)/5); k < m; k++ {
		pairs = append(pairs, pair{-1, -1}) // xsat
	}
	var draws []pair
	for len(draws) < total {
		draws = append(draws, pairs...)
	}
	rng.Shuffle(len(draws), func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	sched := make([]arrival, n)
	next := 0
	for i := range sched {
		a := arrival{at: time.Duration(times[i] * float64(time.Second))}
		for k := 0; k < sizes[i]; k++ {
			d := draws[next]
			next++
			b := budget{evals: 50 + rng.Intn(251), starts: 1 + rng.Intn(2), rounds: 1 + rng.Intn(2),
				stall: 1 + rng.Intn(2), lanes: pick(rng, 0, 64)}
			var j pipeline.Job
			var vj pipeline.V1Job
			if d.prog < 0 {
				j = formulaJob(rng, b, 1+rng.Intn(3))
				vj = pipeline.V1Job{Spec: j.Spec}
			} else {
				p := progs[d.prog]
				var ok bool
				if j, ok = programJob(orc, rng, p, programAnalyses[d.an], b); !ok {
					// An input that takes no branch gives no reach target.
					j = p.job(b.spec(rng, "coverage"))
				}
				vj = pipeline.V1Job{Program: ids[d.prog], Func: j.Func, Spec: j.Spec}
			}
			j.Spec.Seed = int64(1 + i*8 + k)
			vj.Spec.Seed = j.Spec.Seed
			a.jobs = append(a.jobs, vj)
			a.local = append(a.local, j)
		}
		sched[i] = a
	}

	// Warm-up: one small job per program, through the whole stack.
	var warm arrival
	for i, p := range progs {
		spec := budget{evals: 50, starts: 1}.spec(rng, "bva")
		spec.Seed = int64(-1 - i)
		warm.jobs = append(warm.jobs, pipeline.V1Job{Program: ids[i], Func: p.Func, Spec: spec})
		warm.local = append(warm.local, p.job(spec))
	}
	if ph := s.openLoop([]arrival{warm}, nil, 0); len(ph.problems) > 0 {
		s.close()
		return nil, fmt.Errorf("service warm-up: %s", ph.problems[0])
	}
	return &serviceState{s: s, sched: sched, orc: orc}, nil
}

// checkService compares every result the service returned with a local
// Pipeline.RunJob of the same job (byte-identical after
// NormalizeDurations) and replays the local result's findings. It
// returns the mean findings per job.
func checkService(st *serviceState, ph openPhase, clients int) (float64, []string) {
	pl := pipeline.New(clients)
	var (
		mu       sync.Mutex
		problems []string
		findings int
		jobs     int
		wg       sync.WaitGroup
		next     atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(st.sched) {
					return
				}
				got := ph.results[i]
				if got == nil {
					continue // already counted as failed
				}
				for k, j := range st.sched[i].local {
					r := pl.RunJob(context.Background(), k, j)
					want := pipeline.NormalizeDurations(pipeline.MarshalResult(r))
					v := st.orc.check(j, r)
					mu.Lock()
					jobs++
					findings += v.findings
					if k >= len(got) || !bytes.Equal(pipeline.NormalizeDurations(got[k]), want) {
						problems = append(problems, fmt.Sprintf("batch %d job %d: service result differs from a local RunJob", i, k))
					}
					for _, p := range v.problems {
						problems = append(problems, fmt.Sprintf("batch %d job %d (%s): %s", i, k, j.Spec.Analysis, p))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return ratio(float64(findings), float64(jobs)), problems
}

// serviceCapacity runs the service schedule as a closed loop with
// nproc batches outstanding and returns the completed batches per
// second: the capacity serviceRate is set against.
func serviceCapacity(o options) (float64, error) {
	st, err := serviceSetup(o)
	if err != nil {
		return 0, err
	}
	defer st.s.close()
	ph := st.s.openLoop(st.sched, nil, o.clients)
	if len(ph.problems) > 0 {
		return 0, errors.New(ph.problems[0])
	}
	return ratio(float64(len(ph.latMs)), ph.elapsed.Seconds()), nil
}

func runService(o options) (*outcome, error) {
	var st *serviceState
	setupS, err := repeatSetup(o.setupReps(), func() (func(), error) {
		s, err := serviceSetup(o)
		if err != nil {
			return nil, err
		}
		st = s
		return s.s.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.s.close()
	out := &outcome{metrics: map[string]float64{}}
	settle()
	g0 := readGoStats()
	ph := st.s.openLoop(st.sched, nil, 0)
	g1 := readGoStats()
	out.metrics["peak_rss_mb"] = peakRSSMB()
	out.attempted = countJobs(st.sched)
	out.failed = ph.failed
	out.problems = append(out.problems, ph.problems...)
	out.metrics["setup_s"] = setupS
	out.metrics["jobs_per_s"] = ratio(float64(ph.jobs), ph.elapsed.Seconds())
	_, q := windowed(ph.doneS, ph.latMs, o.phaseSeconds(), o.windows(), 0.5, o.tailQ)
	out.metrics["job_latency_p50_ms"] = q[0]
	out.metrics["job_latency_tail_ms"] = q[1]
	out.tailSamples = len(ph.latMs) / o.windows()

	if o.trace {
		tr := newTracer()
		traced := st.s.openLoop(st.sched, tr, 0)
		out.attempted += countJobs(st.sched)
		out.failed += traced.failed
		out.problems = append(out.problems, traced.problems...)
		if err := tracedService(o, st, ph, traced, tr, out); err != nil {
			return nil, err
		}
		goMetrics(out.metrics, g0, g1, ph.jobs)
		_, problems := checkService(st, traced, o.clients)
		out.problems = append(out.problems, problems...)
	}
	fpj, problems := checkService(st, ph, o.clients)
	out.problems = append(out.problems, problems...)
	out.metrics["findings_per_job"] = fpj
	return out, nil
}

// tracedService derives the per-layer metrics of the service workload:
// the traced phase's spans, then the layer-by-layer replay of its jobs
// on a local pipeline and the frontend probe on its programs.
func tracedService(o options, st *serviceState, untraced, traced openPhase, tr *Tracer, out *outcome) error {
	var jobs []pipeline.Job
	for _, a := range st.sched {
		jobs = append(jobs, a.local...)
	}
	limit := 300
	if o.tiny {
		limit = 20
	}
	ls := &layerStats{}
	pl := pipeline.New(1)
	shadow := pipeline.NewModuleCache()
	for i, j := range jobs[:min(limit, len(jobs))] {
		req := int64(1_000_000 + i)
		root := tr.Open()
		t0 := time.Now()
		r := pl.RunBatch(context.Background(), []pipeline.Job{j})[0]
		t1 := time.Now()
		tr.Record("pipeline.RunBatch", root, req, t0, t1)
		ls.replayJob(tr, root, req, shadow, j, t1.Sub(t0), r)
		tr.Close(root, "job", 0, req, t0, time.Now())
	}
	if err := probeFrontends(tr, distinctSources(jobs, 16), 5); err != nil {
		return err
	}
	m := out.metrics
	lt := aggregate(tr.Spans())
	ls.metrics(m, lt)
	frontendMetrics(m, lt)
	traced.metrics(m, lt, st.s.registerMs)
	m["pipeline.cache_hit_frac"] = ratio(float64(traced.cacheHits), float64(traced.cacheHits+traced.cacheC))
	m["pipeline.compiles"] = float64(traced.cacheC)
	m["bench.trace_overhead_frac"] = ratio(mean(traced.latMs)-mean(untraced.latMs), mean(untraced.latMs))
	if ls.mismatches > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d jobs differ between RunBatch and the layer-by-layer replay", ls.mismatches))
	}
	out.spans = tr.Spans()
	return nil
}

func countJobs(sched []arrival) int {
	n := 0
	for _, a := range sched {
		n += len(a.jobs)
	}
	return n
}
