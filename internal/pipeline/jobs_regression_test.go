package pipeline

// Regression tests for the /v1 job-surface bugfix sweep: eviction vs
// live subscribers, the running-job pagination cursor, and the SSE
// heartbeat timer under result traffic. Each test fails on the
// pre-fix code.

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
)

// quickJob is a coverage run that completes in a few milliseconds.
func quickJob(seed int64) Job {
	return Job{Builtin: "fig2", Spec: analysis.Spec{
		Analysis: "coverage", Seed: seed, Evals: 50, Stall: 2, Workers: 1}}
}

// drainEngine shuts the engine down at cleanup so cancelled jobs never
// outlive the test.
func drainEngine(t testing.TB, eng *JobEngine) {
	t.Helper()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := eng.Shutdown(ctx); err != nil {
			t.Errorf("engine drain at cleanup: %v", err)
		}
	})
}

// runningRecord is a hand-built in-flight record the test feeds
// directly, standing in for a job mid-execution.
func runningRecord() *JobRecord {
	return &JobRecord{
		ID:      "job-test",
		Created: time.Now(),
		Total:   8,
		status:  JobRunning,
		changed: make(chan struct{}),
	}
}

// TestViewCursorWhileRunning: a running job's view always carries the
// resume cursor, even when the page is empty because the client caught
// up with (or raced past) execution — an empty page without nextOffset
// strands the poll loop with no position to resume from.
func TestViewCursorWhileRunning(t *testing.T) {
	rec := runningRecord()

	v := rec.View(0, 10)
	if v.NextOffset == nil {
		t.Fatal("running job with no results: View(0, 10) has no nextOffset cursor")
	}
	if *v.NextOffset != 0 || len(v.Results) != 0 {
		t.Fatalf("running job with no results: got nextOffset %d with %d results, want 0 and none",
			*v.NextOffset, len(v.Results))
	}

	rec.append(json.RawMessage(`{"index":0}`))
	rec.append(json.RawMessage(`{"index":1}`))

	// Offset past the current count: empty page, cursor holds the
	// client's place.
	v = rec.View(5, 10)
	if len(v.Results) != 0 {
		t.Fatalf("offset past end returned %d results, want an empty page", len(v.Results))
	}
	if v.NextOffset == nil || *v.NextOffset != 5 {
		t.Fatalf("offset past end on a running job: nextOffset %v, want 5", v.NextOffset)
	}

	// A full page mid-stream still advances the cursor.
	v = rec.View(0, 1)
	if v.NextOffset == nil || *v.NextOffset != 1 {
		t.Fatalf("paged view: nextOffset %v, want 1", v.NextOffset)
	}

	// Terminal jobs keep the historical contract: no cursor once the
	// last result has been served — pagination loops terminate on it.
	rec.finish(nil)
	if v = rec.View(0, 10); v.NextOffset != nil {
		t.Fatalf("completed job, page reaching the end: nextOffset %d, want none", *v.NextOffset)
	}
	if v = rec.View(5, 10); v.NextOffset != nil {
		t.Fatalf("completed job, offset past end: nextOffset %d, want none", *v.NextOffset)
	}
	if v = rec.View(0, 1); v.NextOffset == nil || *v.NextOffset != 1 {
		t.Fatalf("completed job, more results beyond the page: nextOffset %v, want 1", v.NextOffset)
	}
}

// TestViewCursorMonotoneDuringExecution paginates a batch concurrently
// with its execution: the cursor never goes backward, empty pages keep
// their position, and the walk collects every result exactly once.
func TestViewCursorMonotoneDuringExecution(t *testing.T) {
	eng := NewJobEngine(New(1))
	drainEngine(t, eng)
	const n = 12
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = quickJob(int64(i + 1))
	}
	rec, err := eng.Submit(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}

	cursor, got := 0, 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("batch did not finish; collected %d/%d results", got, n)
		}
		v := rec.View(cursor, 3)
		got += len(v.Results)
		if v.Status == JobRunning {
			// Probing past the end must not error, return results, or
			// lose the probe's position.
			probe := rec.View(cursor+100, 3)
			if len(probe.Results) != 0 {
				t.Fatalf("probe past end returned %d results", len(probe.Results))
			}
			if probe.Status == JobRunning && (probe.NextOffset == nil || *probe.NextOffset != cursor+100) {
				t.Fatalf("probe past end: nextOffset %v, want %d", probe.NextOffset, cursor+100)
			}
			if v.NextOffset == nil {
				t.Fatalf("running job dropped the cursor at offset %d", cursor)
			}
		}
		if v.NextOffset == nil {
			break // terminal and fully served
		}
		if *v.NextOffset < cursor {
			t.Fatalf("cursor went backward: %d after %d", *v.NextOffset, cursor)
		}
		cursor = *v.NextOffset
		time.Sleep(time.Millisecond)
	}
	if got != n {
		t.Fatalf("pagination collected %d results, want %d", got, n)
	}
}

// TestHeartbeatQuietUnderResultTraffic: heartbeats mean "alive but
// quiet". While results flow faster than the heartbeat interval the
// pulse timer must keep being pushed out — the pre-fix code armed it
// once and never reset it on traffic, so a stale tick fired a spurious
// heartbeat in the middle of a busy stream.
func TestHeartbeatQuietUnderResultTraffic(t *testing.T) {
	rec := runningRecord()
	const (
		heartbeat = 500 * time.Millisecond
		results   = 30
		gap       = 25 * time.Millisecond // ≪ heartbeat: the stream is never quiet
	)
	go func() {
		for i := 0; i < results; i++ {
			time.Sleep(gap)
			rec.append(json.RawMessage(`{"index":0}`))
		}
		rec.finish(nil)
	}()

	var beats, emitted atomic.Int64
	status := FollowJobHeartbeat(context.Background(), rec, heartbeat,
		func([]byte) { emitted.Add(1) },
		func() { beats.Add(1) })
	if status != JobCompleted {
		t.Fatalf("follow ended %q, want completed", status)
	}
	if got := emitted.Load(); got != results {
		t.Fatalf("emitted %d results, want %d", got, results)
	}
	if got := beats.Load(); got != 0 {
		t.Fatalf("%d heartbeats during a stream that was never quiet for %v (results every %v)",
			got, heartbeat, gap)
	}
}

// TestSweepPinnedByLiveSubscriber: the TTL sweep must not evict a
// finished job while a follower is still attached — mid-replay, the
// subscriber's re-polls and reconnects resolve the ID until it has
// seen the terminal event. The record is reclaimed on the first sweep
// after the last follower detaches.
func TestSweepPinnedByLiveSubscriber(t *testing.T) {
	eng := NewJobEngine(New(1))
	eng.TTL = 5 * time.Millisecond
	drainEngine(t, eng)
	rec, err := eng.Submit([]Job{quickJob(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if status := FollowJob(ctx, rec, func([]byte) {}); status != JobCompleted {
		t.Fatalf("job ended %q, want completed", status)
	}

	// A slow subscriber: blocked inside emit, mid-replay.
	emitted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan JobStatus, 1)
	go func() {
		done <- FollowJob(context.Background(), rec, func([]byte) {
			close(emitted)
			<-release
		})
	}()
	<-emitted

	time.Sleep(3 * eng.TTL)            // well past the TTL
	if _, ok := eng.Get(rec.ID); !ok { // Get runs the sweep
		t.Fatal("finished job evicted by the TTL sweep while a subscriber was mid-replay")
	}

	close(release)
	if status := <-done; status != JobCompleted {
		t.Fatalf("pinned subscriber ended %q, want completed", status)
	}

	time.Sleep(3 * eng.TTL)
	eng.Get("sweep-nudge")
	if _, ok := eng.Get(rec.ID); ok {
		t.Fatal("job still tracked after the last subscriber detached and its TTL expired")
	}
}

// TestCapacityEvictionPinnedByLiveSubscriber: capacity pressure obeys
// the same pin — a subscribed record is not a free slot, so a full
// table refuses the submission (429 on the wire) instead of tearing
// the stream out from under the follower.
func TestCapacityEvictionPinnedByLiveSubscriber(t *testing.T) {
	eng := NewJobEngine(New(1))
	eng.MaxTrackedJobs = 1
	drainEngine(t, eng)
	rec, err := eng.Submit([]Job{quickJob(1)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if status := FollowJob(ctx, rec, func([]byte) {}); status != JobCompleted {
		t.Fatalf("job ended %q, want completed", status)
	}

	emitted := make(chan struct{})
	release := make(chan struct{})
	done := make(chan JobStatus, 1)
	go func() {
		done <- FollowJob(context.Background(), rec, func([]byte) {
			close(emitted)
			<-release
		})
	}()
	<-emitted

	if _, err := eng.Submit([]Job{quickJob(2)}, 0); !errors.Is(err, ErrJobTableFull) {
		t.Fatalf("submit against a table holding only a subscribed job: err %v, want ErrJobTableFull", err)
	}
	if _, ok := eng.Get(rec.ID); !ok {
		t.Fatal("subscribed job evicted for capacity")
	}

	close(release)
	if status := <-done; status != JobCompleted {
		t.Fatalf("pinned subscriber ended %q, want completed", status)
	}
	// Slot freed: the same submission now lands by evicting the
	// finished job.
	if _, err := eng.Submit([]Job{quickJob(3)}, 0); err != nil {
		t.Fatalf("submit after the subscriber detached: %v", err)
	}
	if _, ok := eng.Get(rec.ID); ok {
		t.Fatal("finished job survived capacity eviction with no subscribers")
	}
}
