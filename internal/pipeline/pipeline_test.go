package pipeline_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/gofront"
	"repro/internal/instrument"
	"repro/internal/opt"
	"repro/internal/pipeline"
)

// fixtureFuncs names the function to analyze in each testdata fixture.
var fixtureFuncs = map[string]string{
	"assertion.fpl": "prog",
	"fig2.fpl":      "prog",
	"newton.fpl":    "newton_sqrt",
	"sin_fig8.fpl":  "sin_dispatch",
	"sum3.fpl":      "prog",
}

func loadFixtures(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.fpl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures: %v", err)
	}
	srcs := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(p)] = string(data)
	}
	return srcs
}

// fixtureJobs builds the full e2e batch: every program analysis over
// every testdata fixture, plus formula jobs for xsat. specWorkers is
// the intra-analysis parallelism each job runs with.
func fixtureJobs(t testing.TB, srcs map[string]string, specWorkers int) []pipeline.Job {
	t.Helper()
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	var jobs []pipeline.Job
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fn, ok := fixtureFuncs[name]
		if !ok {
			t.Fatalf("fixture %s has no entry in fixtureFuncs; add one", name)
		}
		for _, spec := range []analysis.Spec{
			{Analysis: "bva", Seed: 1, Starts: 2, Evals: 200, Bounds: bounds},
			{Analysis: "coverage", Seed: 2, Evals: 300, Stall: 2, Bounds: bounds},
			{Analysis: "overflow", Seed: 3, Evals: 300, Rounds: 6},
			{Analysis: "reach", Seed: 4, Starts: 2, Evals: 500, Bounds: bounds,
				Path: []instrument.Decision{{Site: 0, Taken: true}}},
			{Analysis: "nan", Seed: 5, Evals: 300, Rounds: 6},
		} {
			spec.Workers = specWorkers
			jobs = append(jobs, pipeline.Job{Source: srcs[name], Func: fn, Spec: spec})
		}
	}
	for _, formula := range []string{
		"x < 1 && x + 1 >= 2",
		"a*a + b*b == 25 && a > b",
	} {
		jobs = append(jobs, pipeline.Job{Spec: analysis.Spec{
			Analysis: "xsat", Seed: 1, Starts: 2, Evals: 400, Workers: specWorkers,
			Bounds: []opt.Bound{{Lo: -30, Hi: 30}}, Formula: formula,
		}})
	}
	return jobs
}

// normalizeResults masks the one field that legitimately varies
// between runs — the wall-clock duration of the round-based hunts —
// through pipeline.NormalizeDurations (the single definition of what
// may differ), leaving everything the analyses computed.
func normalizeResults(t testing.TB, results []pipeline.JobResult) []map[string]any {
	t.Helper()
	out := make([]map[string]any, 0, len(results))
	for _, r := range results {
		var m map[string]any
		if err := json.Unmarshal(pipeline.NormalizeDurations(pipeline.MarshalResult(r)), &m); err != nil {
			t.Fatalf("result %d: %v", r.Index, err)
		}
		out = append(out, m)
	}
	return out
}

// TestPipelineEveryAnalysisEveryFixture runs the whole registry over
// every FPL fixture and asserts (a) nothing errors, (b) results arrive
// in job order, and (c) the batch is bit-identical between a serial run
// (1 pipeline worker, 1 spec worker) and a heavily parallel one.
func TestPipelineEveryAnalysisEveryFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("full fixture sweep in -short mode")
	}
	srcs := loadFixtures(t)

	serialJobs := fixtureJobs(t, srcs, 1)
	serial := pipeline.New(1).RunBatch(context.Background(), serialJobs)
	if len(serial) != len(serialJobs) {
		t.Fatalf("%d results for %d jobs", len(serial), len(serialJobs))
	}
	for i, r := range serial {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Error != "" {
			t.Errorf("job %d (%s): %s", i, r.Analysis, r.Error)
		}
		if r.Report == nil {
			t.Errorf("job %d (%s): no report", i, r.Analysis)
		}
	}

	parallelJobs := fixtureJobs(t, srcs, 3)
	parallel := pipeline.New(8).RunBatch(context.Background(), parallelJobs)

	got, want := normalizeResults(t, parallel), normalizeResults(t, serial)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			g, _ := json.Marshal(got[i])
			w, _ := json.Marshal(want[i])
			t.Errorf("job %d diverged across worker counts.\nparallel: %s\nserial:   %s", i, g, w)
		}
	}
}

// TestModuleCacheNoRecompile pins the compiled-module cache contract:
// one compile per distinct (source, engine), every later request a hit.
func TestModuleCacheNoRecompile(t *testing.T) {
	srcs := loadFixtures(t)
	src := srcs["fig2.fpl"]

	c := pipeline.NewModuleCache()
	p1, hit, err := c.Program(gofront.LangFPL, src, "prog", 0)
	if err != nil || hit {
		t.Fatalf("first request: hit=%v err=%v", hit, err)
	}
	p2, hit, err := c.Program(gofront.LangFPL, src, "prog", 0)
	if err != nil || !hit {
		t.Fatalf("second request: hit=%v err=%v", hit, err)
	}
	if p1 == p2 {
		t.Fatal("cache returned the same instance twice; instances must be independent")
	}
	if _, hit, _ = c.Program(gofront.LangFPL, src, "", 0); !hit {
		t.Fatal("same source, default func: want module hit")
	}
	if st := c.Stats(); st.Compiles != 1 || st.Modules != 1 || st.Hits != 2 {
		t.Fatalf("stats after 3 same-source requests: %+v", st)
	}

	// A different engine is a different compiled artifact.
	if _, hit, err = c.Program(gofront.LangFPL, src, "prog", 1); err != nil || hit {
		t.Fatalf("tree-engine request: hit=%v err=%v", hit, err)
	}
	if st := c.Stats(); st.Compiles != 2 || st.Modules != 2 {
		t.Fatalf("stats after engine switch: %+v", st)
	}

	// Instances from the cache execute independently: identical results
	// from both on the same analysis.
	spec := analysis.Spec{Analysis: "coverage", Seed: 2, Evals: 300, Stall: 2,
		Workers: 1, Bounds: []opt.Bound{{Lo: -100, Hi: 100}}}
	a, err := analysis.Lookup("coverage")
	if err != nil {
		t.Fatal(err)
	}
	rep1, err1 := a.Run(context.Background(), analysis.Input{Program: p1}, spec)
	rep2, err2 := a.Run(context.Background(), analysis.Input{Program: p2}, spec)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	b1, _ := json.Marshal(rep1)
	b2, _ := json.Marshal(rep2)
	if string(b1) != string(b2) {
		t.Errorf("cached instances diverged:\n%s\n%s", b1, b2)
	}
}

// TestStreamCtxCanceled: a canceled context reports every undispatched
// job as canceled instead of running it.
func TestStreamCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]pipeline.Job, 4)
	for i := range jobs {
		jobs[i] = pipeline.Job{Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva", Seed: 1}}
	}
	var got []pipeline.JobResult
	pipeline.New(1).Stream(ctx, jobs, func(r pipeline.JobResult) { got = append(got, r) })
	if len(got) != len(jobs) {
		t.Fatalf("%d results for %d jobs", len(got), len(jobs))
	}
	for i, r := range got {
		if r.Index != i || !strings.Contains(r.Error, "canceled") {
			t.Errorf("job %d: %+v", i, r)
		}
	}
}

// TestModuleCacheBounded pins the eviction policy: the cache never
// retains more than MaxModules entries, the hottest module survives
// eviction, and failed compilations are not retained at all.
func TestModuleCacheBounded(t *testing.T) {
	c := pipeline.NewModuleCache()
	c.MaxModules = 4
	src := func(i int) string {
		return "func prog(x double) { var y double = x + " + string(rune('0'+i)) + ".0; }"
	}
	hot := src(0)
	for i := 0; i < 10; i++ {
		if _, _, err := c.Program(gofront.LangFPL, src(i), "prog", 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Program(gofront.LangFPL, hot, "prog", 0); err != nil {
			t.Fatal(err) // keep module 0 the most recently used
		}
	}
	st := c.Stats()
	if st.Modules > 4 {
		t.Errorf("cache holds %d modules, cap 4", st.Modules)
	}
	if _, hit, _ := c.Program(gofront.LangFPL, hot, "prog", 0); !hit {
		t.Error("hottest module was evicted")
	}

	if _, _, err := c.Program(gofront.LangFPL, "not fpl", "", 0); err == nil {
		t.Fatal("bad source compiled")
	}
	if st := c.Stats(); st.Modules > 4 {
		t.Errorf("failed compile retained: %d modules", st.Modules)
	}
	// A failed source recompiles (and fails again) rather than pinning
	// a slot.
	before := c.Stats().Compiles
	if _, _, err := c.Program(gofront.LangFPL, "not fpl", "", 0); err == nil {
		t.Fatal("bad source compiled on retry")
	}
	if c.Stats().Compiles != before+1 {
		t.Error("failed source should recompile on retry, not cache")
	}
}

// TestPipelineJobErrors covers the job-level failure modes: they land
// in the result, never panic the batch.
func TestPipelineJobErrors(t *testing.T) {
	pl := pipeline.New(2)
	results := pl.RunBatch(context.Background(), []pipeline.Job{
		{Spec: analysis.Spec{Analysis: "nope"}},
		{Spec: analysis.Spec{Analysis: "bva"}},                                                 // no program
		{Builtin: "nope", Spec: analysis.Spec{Analysis: "bva"}},                                // unknown builtin
		{Source: "func f(x double) {}", Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva"}}, // both
		{Source: "not fpl at all", Spec: analysis.Spec{Analysis: "bva"}},                       // parse error
		{Builtin: "fig2", Spec: analysis.Spec{Analysis: "reach"}},                              // no path
		{Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva", Backend: "nope", Evals: 10, Starts: 1}},
		{Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva", Bounds: []opt.Bound{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}}, // dim mismatch
		{Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva", Bounds: []opt.Bound{{Lo: 1, Hi: 0}}}},                 // lo > hi
		{Spec: analysis.Spec{Analysis: "xsat", Formula: "x + y + z == 1 && x > 0",
			Bounds: []opt.Bound{{Lo: -4, Hi: 4}, {Lo: -4, Hi: 4}}}}, // bounds ≠ formula dim
	})
	for i, r := range results {
		if r.Error == "" {
			t.Errorf("job %d: expected an error, got report %v", i, r.Summary)
		}
	}

	// Alias lookup still resolves through the pipeline.
	r := pl.RunJob(context.Background(), 0, pipeline.Job{Builtin: "fig2",
		Spec: analysis.Spec{Analysis: "coverme", Seed: 2, Evals: 300, Stall: 2, Workers: 1,
			Bounds: []opt.Bound{{Lo: -100, Hi: 100}}}})
	if r.Error != "" || r.Analysis != "coverage" {
		t.Errorf("alias job: %+v", r)
	}
}

// TestLanesBounded is the regression test for the unbounded lanes
// knob: a 50-eval job asking for 2^22 lanes once built a monitor bank
// 2^22 wide up front (~200 MB). The bank now grows only as wide as the
// sweeps actually submitted, so the job allocates what a 16-lane job
// does, and — per the batch contract — its result is byte-identical.
func TestLanesBounded(t *testing.T) {
	src := loadFixtures(t)["fig2.fpl"]
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	jobs := map[string]pipeline.Job{
		"bva/builtin": {Builtin: "fig2", Spec: analysis.Spec{Analysis: "bva", Seed: 1, Evals: 50}},
		"bva/vm":      {Source: src, Func: "prog", Spec: analysis.Spec{Analysis: "bva", Seed: 1, Evals: 50, Bounds: bounds}},
		"reach/vm": {Source: src, Func: "prog", Spec: analysis.Spec{Analysis: "reach", Seed: 1, Evals: 50, Starts: 2,
			Bounds: bounds, Path: []instrument.Decision{{Site: 0, Taken: true}}}},
	}
	pl := pipeline.New(1)
	for name, j := range jobs {
		t.Run(name, func(t *testing.T) {
			run := func(lanes int) ([]byte, uint64) {
				j.Spec.Lanes = lanes
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				r := pl.RunJob(context.Background(), 0, j)
				runtime.ReadMemStats(&after)
				if r.Error != "" {
					t.Fatalf("lanes=%d: %s", lanes, r.Error)
				}
				return pipeline.NormalizeDurations(pipeline.MarshalResult(r)), after.TotalAlloc - before.TotalAlloc
			}
			want, _ := run(16)
			got, alloc := run(1 << 22)
			if alloc >= 4<<20 {
				t.Errorf("lanes=2^22 job allocated %d bytes, want < 4 MB", alloc)
			}
			if string(got) != string(want) {
				t.Errorf("lanes=2^22 result differs from lanes=16:\n%s\n%s", got, want)
			}
		})
	}
}
