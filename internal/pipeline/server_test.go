package pipeline_test

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pipeline"
	"repro/internal/rt"
)

// serverSpecs is the 4-analysis batch the concurrency test fans over
// fig2.fpl.
func serverSpecs() []analysis.Spec {
	bounds := []opt.Bound{{Lo: -100, Hi: 100}}
	return []analysis.Spec{
		{Analysis: "coverage", Seed: 2, Evals: 300, Stall: 2, Workers: 1, Bounds: bounds},
		{Analysis: "bva", Seed: 1, Starts: 2, Evals: 200, Workers: 1, Bounds: bounds},
		{Analysis: "overflow", Seed: 3, Evals: 300, Rounds: 6, Workers: 1},
		{Analysis: "nan", Seed: 5, Evals: 300, Rounds: 6, Workers: 1},
	}
}

// runV1Batch submits body to POST /v1/jobs, polls the job until it
// completes, and returns its results in job order.
func runV1Batch(t testing.TB, url, body string) []json.RawMessage {
	t.Helper()
	resp, data := doJSON(t, "POST", url+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)
	v := pollJob(t, url, sub.ID, time.Minute, func(v pipeline.JobView) bool {
		return v.Status != pipeline.JobRunning
	})
	if v.Status != pipeline.JobCompleted || len(v.Results) != v.Jobs {
		t.Fatalf("job %s ended %q with %d of %d results", sub.ID, v.Status, len(v.Results), v.Jobs)
	}
	return v.Results
}

// normalizedResults decodes wire results with their durations masked.
func normalizedResults(t testing.TB, raws []json.RawMessage) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, raw := range raws {
		var m map[string]any
		if err := json.Unmarshal(pipeline.NormalizeDurations(raw), &m); err != nil {
			t.Fatalf("bad result %q: %v", raw, err)
		}
		out = append(out, m)
	}
	return out
}

// TestServeConcurrentBitIdentical is the fpserve acceptance test: ≥8
// concurrent /v1 batches over one shared module cache return results
// bit-identical to the serial in-process analysis path, and the cached
// module is never recompiled.
func TestServeConcurrentBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent request sweep in -short mode")
	}
	srcs := loadFixtures(t)
	srv, ts := v1Server(t, 0)

	src, specs := srcs["fig2.fpl"], serverSpecs()
	body := mustJSON(t, map[string]any{"source": src, "func": "prog", "specs": specs})

	// The serial oracle: the same jobs through the registry directly,
	// one at a time, rendered through the same JSON shape.
	var want []map[string]any
	for i, spec := range specs {
		a, err := analysis.Lookup(spec.Analysis)
		if err != nil {
			t.Fatal(err)
		}
		p, err := weakCompile(src, "prog")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.Run(context.Background(), analysis.Input{Program: p}, spec)
		if err != nil {
			t.Fatal(err)
		}
		res := pipeline.JobResult{Index: i, Analysis: a.Name(), Program: p.Name,
			Report: rep, Summary: rep.Summary(), Failed: rep.Failed()}
		var m map[string]any
		if err := json.Unmarshal(pipeline.NormalizeDurations(pipeline.MarshalResult(res)), &m); err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}

	const clients = 8
	got := make([][]map[string]any, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = normalizedResults(t, runV1Batch(t, ts.URL, body))
		}(c)
	}
	wg.Wait()

	wantJSON := mustJSON(t, want)
	for c := 0; c < clients; c++ {
		if gotJSON := mustJSON(t, got[c]); gotJSON != wantJSON {
			t.Errorf("client %d diverged from the serial path.\ngot:  %s\nwant: %s", c, gotJSON, wantJSON)
		}
	}

	// One source: exactly one compilation across all eight concurrent
	// requests — cached-module requests never recompile.
	if st := srv.PL.Cache.Stats(); st.Compiles != 1 {
		t.Errorf("module compiled %d times across %d concurrent requests, want 1 (stats %+v)",
			st.Compiles, clients, st)
	}

	// The stats and health endpoints respond.
	for _, path := range []string{"/stats", "/healthz", "/v1/analyses"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", path, err, resp)
		}
		resp.Body.Close()
	}
}

// TestServeBadRequests covers the HTTP error surface: malformed and
// oversized batches are refused up front, and a job-level failure is a
// result rather than an HTTP error.
func TestServeBadRequests(t *testing.T) {
	srv, ts := v1Server(t, 1)

	for _, body := range []string{"", "{}", `{"jobs": []}`, `{"nonsense": 1}`} {
		resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}
	// The removed engine knob is refused by name.
	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs",
		`{"builtin": "fig2", "specs": [{"analysis": "bva", "engine": "tree"}]}`)
	if p := decode[pipeline.ProblemDetails](t, data); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(p.Detail, `unknown field "engine"`) {
		t.Errorf("spec with engine: status %d, problem %+v", resp.StatusCode, p)
	}
	// Nothing above reached the job engine.
	if st := srv.Engine.Stats(); st.Submitted != 0 {
		t.Errorf("refused requests submitted %d batches", st.Submitted)
	}

	// A job-level failure is a result, not an HTTP error.
	res := runV1Batch(t, ts.URL, `{"builtin": "nope", "specs": [{"analysis": "bva"}]}`)
	if len(res) != 1 || decodeResult(t, res[0]).Error == "" {
		t.Errorf("job-level failure: %s", res)
	}

	// Oversized batches are rejected up front, not scheduled.
	var big strings.Builder
	big.WriteString(`{"builtin": "fig2", "specs": [`)
	for i := 0; i < 5000; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(`{"analysis": "bva"}`)
	}
	big.WriteString(`]}`)
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", big.String()); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("5000-job request: status %d, want 400", resp.StatusCode)
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// weakCompile compiles FPL source outside the pipeline cache (the
// serial-oracle path).
func weakCompile(src, fn string) (*rt.Program, error) {
	mod, err := ir.Compile(src)
	if err != nil {
		return nil, err
	}
	return interp.New(mod).Program(fn)
}
