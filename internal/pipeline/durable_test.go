package pipeline_test

// Tests for the crash-safety layer: durable job journal round-trips,
// requeue-from-durable-offset, panic isolation, retry/backoff,
// admission control, SSE heartbeat/shutdown events, and the full
// httptest crash-recovery e2e (kill a durable server mid-execution,
// rebuild from its data dir, require the golden run's results).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/pipeline"
)

// quickBatchBody is a /v1 submission of n fast deterministic jobs.
func quickBatchBody(n int) string {
	var sb strings.Builder
	sb.WriteString(`{"jobs": [`)
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, `{"spec": {"analysis": "xsat", "seed": %d, "formula": "x < 1"}}`, i+1)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

// quickJobs is the engine-level form of the same batch.
func quickJobs(n int) []pipeline.Job {
	jobs := make([]pipeline.Job, 0, n)
	for i := 0; i < n; i++ {
		var j pipeline.Job
		j.Spec.Analysis = "xsat"
		j.Spec.Seed = int64(i + 1)
		j.Spec.Formula = "x < 1"
		jobs = append(jobs, j)
	}
	return jobs
}

func norm(b []byte) string { return string(pipeline.NormalizeDurations(b)) }

// collectJob follows rec to completion and returns its normalized wire
// results plus the final status.
func collectJob(t testing.TB, rec *pipeline.JobRecord) ([]string, pipeline.JobStatus) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var got []string
	status := pipeline.FollowJob(ctx, rec, func(res []byte) { got = append(got, norm(res)) })
	if status == pipeline.JobRunning {
		t.Fatalf("job %s did not finish within the deadline", rec.ID)
	}
	return got, status
}

// TestDurableRestartRoundTrip: a graceful stop journals the
// clean-shutdown marker, and the next boot restores every finished job
// — results, status, ID — without re-executing anything.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	store, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if store.CleanShutdown() {
		t.Error("fresh journal reports a clean shutdown")
	}
	eng := pipeline.NewJobEngine(pipeline.New(2))
	eng.Store = store
	rec, err := eng.Submit(quickJobs(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, status := collectJob(t, rec)
	if status != pipeline.JobCompleted || len(want) != 3 {
		t.Fatalf("golden run: status %q, %d results", status, len(want))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if !store2.CleanShutdown() {
		t.Error("graceful stop did not leave the clean-shutdown marker")
	}
	eng2 := pipeline.NewJobEngine(pipeline.New(2))
	eng2.Store = store2
	restored, requeued := eng2.Recover(store2.Recovered())
	if restored != 1 || requeued != 0 {
		t.Fatalf("recover after clean stop: restored %d, requeued %d (want 1, 0)", restored, requeued)
	}
	rec2, ok := eng2.Get(rec.ID)
	if !ok {
		t.Fatalf("job %s not restored", rec.ID)
	}
	got, status := collectJob(t, rec2)
	if status != pipeline.JobCompleted {
		t.Errorf("restored status %q", status)
	}
	if len(got) != len(want) {
		t.Fatalf("restored %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("restored result %d differs:\n%s\nvs\n%s", i, want[i], got[i])
		}
	}
	// A restored ID is never reissued.
	rec3, err := eng2.Submit(quickJobs(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec3.ID == rec.ID {
		t.Errorf("recovered engine reissued job ID %s", rec.ID)
	}
	collectJob(t, rec3)
	eng2.Shutdown(ctx)
}

// TestCrashRequeueFromDurableOffset: a journal holding a submit record
// and a durable result prefix (the state a crash mid-batch leaves)
// requeues the job, re-executes only the suffix, and the combined
// result sequence is byte-identical to an uninterrupted run.
func TestCrashRequeueFromDurableOffset(t *testing.T) {
	jobs := quickJobs(4)
	golden := pipeline.New(2).RunBatch(context.Background(), jobs)
	if len(golden) != 4 {
		t.Fatalf("golden run produced %d results", len(golden))
	}
	wire := make([]json.RawMessage, len(golden))
	for i, r := range golden {
		wire[i] = pipeline.MarshalResult(r)
	}

	// Hand-build the crashed journal: accepted, started, two durable
	// results, no terminal record.
	dir := t.TempDir()
	store, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	created := time.Now().Add(-time.Second)
	if err := store.JobSubmitted("job-1", jobs, 0, created); err != nil {
		t.Fatal(err)
	}
	if err := store.JobStarted("job-1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := store.ResultAppended("job-1", i, wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if store2.CleanShutdown() {
		t.Error("crashed journal reports a clean shutdown")
	}
	recovered := store2.Recovered()
	if len(recovered) != 1 || len(recovered[0].Results) != 2 || recovered[0].Status != pipeline.JobRunning {
		t.Fatalf("recovered set: %+v", recovered)
	}
	eng := pipeline.NewJobEngine(pipeline.New(2))
	eng.Store = store2
	if restored, requeued := eng.Recover(recovered); restored != 1 || requeued != 1 {
		t.Fatalf("restored %d, requeued %d (want 1, 1)", restored, requeued)
	}
	rec, ok := eng.Get("job-1")
	if !ok {
		t.Fatal("requeued job missing from the table")
	}
	got, status := collectJob(t, rec)
	if status != pipeline.JobCompleted {
		t.Fatalf("requeued job ended %q", status)
	}
	if len(got) != len(wire) {
		t.Fatalf("requeued job has %d results, want %d", len(got), len(wire))
	}
	for i := range got {
		if got[i] != norm(wire[i]) {
			t.Errorf("result %d differs from the uninterrupted run:\n%s\nvs\n%s", i, norm(wire[i]), got[i])
		}
	}
	if st := eng.Stats(); st.Requeued != 1 {
		t.Errorf("stats: %+v", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	eng.Shutdown(ctx)
}

// TestPanicIsolation: a panicking job fails alone — with a stable
// stack digest in its error — while the rest of the batch completes.
func TestPanicIsolation(t *testing.T) {
	run := func() []pipeline.JobResult {
		pl := pipeline.New(2)
		pl.InjectPanic = func(idx int, j pipeline.Job) string {
			if idx == 1 {
				return "injected test panic"
			}
			return ""
		}
		out := pl.RunBatch(context.Background(), quickJobs(3))
		if n := pl.Panics(); n != 1 {
			t.Fatalf("panic counter = %d, want 1", n)
		}
		return out
	}
	out := run()
	if len(out) != 3 {
		t.Fatalf("%d results", len(out))
	}
	for i, r := range out {
		if i == 1 {
			if !strings.Contains(r.Error, "internal error: panic: injected test panic") ||
				!strings.Contains(r.Error, "[stack sha256:") {
				t.Errorf("panic result error = %q", r.Error)
			}
			continue
		}
		if r.Error != "" {
			t.Errorf("job %d contaminated by the panic: %q", i, r.Error)
		}
	}
	// The digest is stable across runs (addresses and goroutine IDs are
	// normalized out), so crash-recovery re-executions stay
	// byte-identical even for panicked jobs.
	out2 := run()
	if out[1].Error != out2[1].Error {
		t.Errorf("panic digest not deterministic:\n%s\nvs\n%s", out[1].Error, out2[1].Error)
	}
}

// transientTestErr lets the test stub mark failures retryable via the
// same interface the journal uses.
type transientTestErr struct{ msg string }

func (e transientTestErr) Error() string   { return e.msg }
func (e transientTestErr) Transient() bool { return true }

// TestRetryBackoff: Retry retries only transient failures, respects the
// attempt budget, and the jittered schedule is deterministic in its
// seed and capped at Max (+25% jitter).
func TestRetryBackoff(t *testing.T) {
	ctx := context.Background()
	b := pipeline.Backoff{Base: time.Microsecond, Max: time.Millisecond, Attempts: 4, Seed: 7}

	calls := 0
	err := pipeline.Retry(ctx, "op", b, func() error {
		calls++
		if calls < 3 {
			return transientTestErr{"flaky"}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient retry: err %v after %d calls", err, calls)
	}

	calls = 0
	permanent := errors.New("permanent")
	err = pipeline.Retry(ctx, "op", b, func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("permanent failure retried: err %v after %d calls", err, calls)
	}

	calls = 0
	err = pipeline.Retry(ctx, "op", b, func() error { calls++; return transientTestErr{"always"} })
	if err == nil || calls != 4 {
		t.Fatalf("exhaustion: err %v after %d calls (want 4)", err, calls)
	}
	if !pipeline.Retryable(err) {
		t.Error("exhausted transient error lost its Retryable classification")
	}
	var re *pipeline.RetryableError
	if !pipeline.Retryable(&pipeline.RetryableError{Op: "x", Err: permanent}) || errors.As(permanent, &re) {
		t.Error("RetryableError classification broken")
	}

	for attempt := 0; attempt < 10; attempt++ {
		d1, d2 := b.Delay(attempt), b.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("Delay(%d) not deterministic: %v vs %v", attempt, d1, d2)
		}
		if max := b.Max + b.Max/4; d1 > max || d1 <= 0 {
			t.Errorf("Delay(%d) = %v outside (0, %v]", attempt, d1, max)
		}
	}
}

// stubStore is a JobStore with scripted failures, for exercising the
// admission-control and retry surfaces without a real journal.
type stubStore struct {
	backlog    atomic.Int64
	failSubmit atomic.Bool
	submits    atomic.Int64
}

func (s *stubStore) JobSubmitted(id string, jobs []pipeline.Job, timeout time.Duration, created time.Time) error {
	s.submits.Add(1)
	if s.failSubmit.Load() {
		return transientTestErr{"journal under injected pressure"}
	}
	return nil
}
func (s *stubStore) JobStarted(string) error                           { return nil }
func (s *stubStore) ResultAppended(string, int, json.RawMessage) error { return nil }
func (s *stubStore) JobTerminal(string, pipeline.JobStatus, string, time.Time) error {
	return nil
}
func (s *stubStore) JobDropped(string) error { return nil }
func (s *stubStore) Backlog() int64          { return s.backlog.Load() }

// TestAdmissionControl429: crossing the in-flight or journal-backlog
// watermark refuses the submission with 429 problem+json and a
// Retry-After hint, and acceptance resumes once pressure clears; a
// persistent transient journal failure surfaces as 503 + Retry-After.
func TestAdmissionControl429(t *testing.T) {
	srv, ts := v1Server(t, 2)
	store := &stubStore{}
	srv.Engine.Store = store
	srv.Engine.MaxInFlight = 1
	srv.Engine.RetryAfter = 2 * time.Second

	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", resp.StatusCode, data)
	}
	long := decode[struct {
		ID string `json:"id"`
	}](t, data)

	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", quickBatchBody(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over the in-flight watermark: status %d, want 429: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	p := decode[pipeline.ProblemDetails](t, data)
	if p.Type != "urn:fpserve:problem:overloaded" || p.Status != 429 {
		t.Errorf("problem: %+v", p)
	}

	// Cancel to clear the pressure; acceptance resumes.
	doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+long.ID, "")
	pollJob(t, ts.URL, long.ID, 30*time.Second, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCanceled
	})
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", quickBatchBody(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("after pressure cleared: status %d: %s", resp.StatusCode, data)
	}

	// Journal backlog watermark.
	srv.Engine.MaxInFlight = 0
	srv.Engine.MaxStoreBacklog = 100
	store.backlog.Store(1000)
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", quickBatchBody(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over the backlog watermark: status %d: %s", resp.StatusCode, data)
	}
	store.backlog.Store(0)

	// A transient journal failure that exhausts its retries is a 503
	// with a hint — the job was never accepted, so nothing is lost.
	store.failSubmit.Store(true)
	resp, data = doJSON(t, "POST", ts.URL+"/v1/jobs", quickBatchBody(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("journal failure: status %d, want 503: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("transient journal failure carries no Retry-After hint")
	}
	if n := store.submits.Load(); n < 3 {
		t.Errorf("transient submit failure was tried %d times — no retry happened", n)
	}
	store.failSubmit.Store(false)

	if st := srv.Engine.Stats(); st.Shed < 2 {
		t.Errorf("shed counter: %+v", st)
	}
}

// TestSSEHeartbeatAndShutdownEvents: a quiet running job emits periodic
// heartbeat events, and a server drain delivers a terminal "shutdown"
// event before "done".
func TestSSEHeartbeatAndShutdownEvents(t *testing.T) {
	srv, ts := v1Server(t, 2)
	srv.Heartbeat = 20 * time.Millisecond

	resp, data := doJSON(t, "POST", ts.URL+"/v1/jobs", longReachBody(""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	sub := decode[struct {
		ID string `json:"id"`
	}](t, data)

	// Drain the server while the SSE subscriber is attached.
	go func() {
		time.Sleep(250 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	events := readSSE(t, ts.URL+"/v1/jobs/"+sub.ID+"/events", time.Minute)

	counts := map[string]int{}
	order := make([]string, 0, len(events))
	for _, ev := range events {
		counts[ev.name]++
		order = append(order, ev.name)
	}
	if counts["heartbeat"] == 0 {
		t.Errorf("no heartbeat events in %v", order)
	}
	if counts["shutdown"] != 1 || counts["done"] != 1 {
		t.Fatalf("event counts %v (want one shutdown, one done)", counts)
	}
	if last := order[len(order)-1]; last != "done" || order[len(order)-2] != "shutdown" {
		t.Errorf("terminal event order %v: want ... shutdown, done", order)
	}
	done := decode[pipeline.JobView](t, []byte(events[len(events)-1].data))
	if done.Status != pipeline.JobCanceled || done.Reason != "server shutdown" {
		t.Errorf("done event: %+v", done)
	}
}

// durableServer builds an httptest server over a journal in dir,
// recovering whatever the journal holds before serving.
func durableServer(t testing.TB, dir string) (*pipeline.Server, *pipeline.DurableStore, *httptest.Server) {
	t.Helper()
	store, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := pipeline.NewServer(2)
	srv.Engine.Store = store
	srv.Engine.Recover(store.Recovered())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		ts.Close()
		store.Close()
	})
	return srv, store, ts
}

// TestCrashRecoveryE2E is the satellite end-to-end: submit a multi-job
// batch to a durable server, hard-stop it mid-execution, rebuild from
// the same data dir, and require the recovered job to reach the golden
// run's terminal state with byte-identical results through pagination
// and SSE replay alike.
func TestCrashRecoveryE2E(t *testing.T) {
	const batchSize = 6
	body := quickBatchBody(batchSize)

	// Golden run on a volatile server: final results and SSE replay.
	_, goldenTS := v1Server(t, 2)
	resp, data := doJSON(t, "POST", goldenTS.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("golden submit: status %d: %s", resp.StatusCode, data)
	}
	goldenID := decode[struct {
		ID string `json:"id"`
	}](t, data).ID
	pollJob(t, goldenTS.URL, goldenID, time.Minute, func(v pipeline.JobView) bool {
		return v.Status == pipeline.JobCompleted
	})
	goldenResults := pagedResults(t, goldenTS.URL, goldenID, batchSize)
	goldenSSE := sseResults(t, goldenTS.URL, goldenID)

	// Durable server: submit, then die mid-execution. Kill freezes the
	// journal exactly as a SIGKILL would cut its writes.
	dir := t.TempDir()
	srvA, _, tsA := durableServer(t, dir)
	resp, data = doJSON(t, "POST", tsA.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("durable submit: status %d: %s", resp.StatusCode, data)
	}
	id := decode[struct {
		ID string `json:"id"`
	}](t, data).ID
	srvA.Engine.Kill()
	tsA.Close()

	// Rebuild from the data dir. The journal must not claim a clean
	// shutdown, the job must still exist, and it must reach the golden
	// terminal state.
	_, storeB, tsB := durableServer(t, dir)
	if storeB.CleanShutdown() {
		t.Error("killed server left a clean-shutdown marker")
	}
	final := pollJob(t, tsB.URL, id, time.Minute, func(v pipeline.JobView) bool {
		return v.Status != pipeline.JobRunning
	})
	if final.Status != pipeline.JobCompleted || final.Completed != batchSize {
		t.Fatalf("recovered job: %+v", final)
	}

	got := pagedResults(t, tsB.URL, id, batchSize)
	for i := range goldenResults {
		if got[i] != goldenResults[i] {
			t.Errorf("paged result %d differs from the golden run:\n%s\nvs\n%s",
				i, goldenResults[i], got[i])
		}
	}
	gotSSE := sseResults(t, tsB.URL, id)
	if len(gotSSE) != len(goldenSSE) {
		t.Fatalf("SSE replay: %d results, golden %d", len(gotSSE), len(goldenSSE))
	}
	for i := range gotSSE {
		if gotSSE[i] != goldenSSE[i] {
			t.Errorf("SSE result %d differs from the golden run:\n%s\nvs\n%s",
				i, goldenSSE[i], gotSSE[i])
		}
	}
}

// pagedResults walks GET /v1/jobs/{id} pagination with a small page and
// returns every normalized result.
func pagedResults(t testing.TB, base, id string, total int) []string {
	t.Helper()
	var out []string
	offset := 0
	for {
		resp, data := doJSON(t, "GET",
			fmt.Sprintf("%s/v1/jobs/%s?offset=%d&limit=2", base, id, offset), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page at %d: status %d: %s", offset, resp.StatusCode, data)
		}
		v := decode[pipeline.JobView](t, data)
		if len(v.Results) > 2 {
			t.Fatalf("page at %d has %d results, limit was 2", offset, len(v.Results))
		}
		for _, raw := range v.Results {
			out = append(out, norm(raw))
		}
		if v.NextOffset == nil {
			break
		}
		offset = *v.NextOffset
	}
	if len(out) != total {
		t.Fatalf("pagination yielded %d results, want %d", len(out), total)
	}
	return out
}

// sseResults replays the job's SSE stream and returns the normalized
// result-event payloads.
func sseResults(t testing.TB, base, id string) []string {
	t.Helper()
	var out []string
	for _, ev := range readSSE(t, base+"/v1/jobs/"+id+"/events", time.Minute) {
		if ev.name == "result" {
			out = append(out, norm([]byte(ev.data)))
		}
	}
	return out
}

// TestJournalReplaysRetiredEngineField: journals written while specs
// still carried a per-job "engine" knob must keep replaying. The submit
// record below is in that wire form; replay decodes it leniently, the
// crash-caught job is requeued, and its results are byte-identical to a
// fresh run of the same specs without the field.
func TestJournalReplaysRetiredEngineField(t *testing.T) {
	src, err := json.Marshal(loadFixtures(t)["fig2.fpl"])
	if err != nil {
		t.Fatal(err)
	}
	jobsJSON := `[
		{"source": ` + string(src) + `, "func": "prog", "spec": {"analysis": "coverage", "seed": 2,
		 "evals": 300, "stall": 2, "workers": 1, "bounds": [{"lo": -100, "hi": 100}], "engine": "tree"}},
		{"source": ` + string(src) + `, "func": "prog", "spec": {"analysis": "bva", "seed": 1,
		 "starts": 2, "evals": 200, "workers": 1, "bounds": [{"lo": -100, "hi": 100}], "engine": "tree"}}]`
	created, _ := time.Now().Add(-time.Second).MarshalJSON()

	dir := t.TempDir()
	j, _, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	submit := `{"jobs": ` + jobsJSON + `, "created": ` + string(created) + `}`
	if err := j.Append(journal.Record{Type: "submit", Job: "job-1", Data: json.RawMessage(submit)}, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	store, err := pipeline.OpenStore(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := pipeline.NewJobEngine(pipeline.New(2))
	eng.Store = store
	if restored, requeued := eng.Recover(store.Recovered()); restored != 1 || requeued != 1 {
		t.Fatalf("restored %d, requeued %d (want 1, 1)", restored, requeued)
	}
	rec, ok := eng.Get("job-1")
	if !ok {
		t.Fatal("requeued job missing from the table")
	}
	got, status := collectJob(t, rec)
	if status != pipeline.JobCompleted {
		t.Fatalf("requeued job ended %q", status)
	}

	var fresh []pipeline.Job
	if err := json.Unmarshal([]byte(strings.ReplaceAll(jobsJSON, `, "engine": "tree"`, "")), &fresh); err != nil {
		t.Fatal(err)
	}
	want := pipeline.New(2).RunBatch(context.Background(), fresh)
	if len(got) != len(want) {
		t.Fatalf("replayed job has %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if w := norm(pipeline.MarshalResult(want[i])); got[i] != w {
			t.Errorf("result %d differs from a fresh run:\n%s\nvs\n%s", i, w, got[i])
		}
		if strings.Contains(got[i], `"error"`) {
			t.Errorf("result %d failed: %s", i, got[i])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	eng.Shutdown(ctx)
}
