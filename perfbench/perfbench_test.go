package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/pipeline"
)

// tinyRun runs a workload at self-test size and returns its result line
// and standard error.
func tinyRun(t *testing.T, workload string, trace bool) (result, string, int) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: workload, seed: 3, seconds: 0.3, trace: trace, tiny: true,
		tmpDir: filepath.Join(dir, "tmp"), spanDir: filepath.Join(dir, "spans")}
	code := run(o, stdout, stderr)
	stdout.Close()
	stderr.Close()
	out, _ := os.ReadFile(stdout.Name())
	errOut, _ := os.ReadFile(stderr.Name())
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s\n%s", workload, err, out, errOut)
	}
	if trace {
		spans, err := os.ReadFile(filepath.Join(dir, "spans", workload+"-seed3.jsonl"))
		if err != nil || bytes.Count(spans, []byte("\n")) < 2 {
			t.Errorf("%s: span file missing or empty: %v", workload, err)
		}
	}
	return res, string(errOut), code
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares.
func benchmarkMetrics(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestTinyRunsPrintEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that every metric BENCHMARK.json
// names is printed with its unit, measured, and that the run passed
// its oracle.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for _, w := range []string{"search", "churn", "service"} {
		for _, trace := range []bool{false, true} {
			res, stderr, code := tinyRun(t, w, trace)
			want := e2e
			if trace {
				want = layer
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, result %+v\n%s", w, trace, code, res, stderr)
			}
			if strings.Contains(stderr, "not measured") {
				t.Errorf("%s trace=%v: %s", w, trace, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", w, trace, name, m, unit)
				}
			}
		}
	}
}

// searchResult runs one job of a tiny search mix whose report has
// findings of the given analysis.
func searchResult(t *testing.T, an string) (*oracle, pipeline.Job, pipeline.JobResult) {
	t.Helper()
	orc := newOracle()
	progs, err := searchCatalog(orc, true)
	if err != nil {
		t.Fatal(err)
	}
	pl := pipeline.New(1)
	for seed := int64(1); seed < 20; seed++ {
		for _, j := range searchJobs(orc, progs, seed, true) {
			if j.Spec.Analysis != an {
				continue
			}
			r := pl.RunJob(context.Background(), 0, j)
			v := orc.check(j, r)
			if len(v.problems) > 0 {
				t.Fatalf("untampered %s result rejected: %v", an, v.problems)
			}
			if v.findings > 0 {
				return orc, j, r
			}
		}
	}
	t.Fatalf("no %s job with findings in the tiny mix", an)
	return nil, pipeline.Job{}, pipeline.JobResult{}
}

// nudge moves a finding input off its witness point.
func nudge(x []float64) {
	if x[0] == 0 {
		x[0] = 0.75
		return
	}
	x[0] = -x[0] * 1.5
}

// TestOracleFlagsTamperedFindings tampers with one finding of each
// kind of report and expects the oracle to reject it.
func TestOracleFlagsTamperedFindings(t *testing.T) {
	for an, tamper := range map[string]func(j *pipeline.Job, r analysis.Report){
		"bva": func(_ *pipeline.Job, r analysis.Report) {
			nudge(r.(*analysis.BoundaryReport).Conditions[0].Examples[0])
		},
		"coverage": func(_ *pipeline.Job, r analysis.Report) {
			rep := r.(*analysis.CoverReport)
			delete(rep.Inputs, rep.Covered[0])
		},
		// The reported input must not follow the opposite of the
		// path's first decision.
		"reach": func(j *pipeline.Job, _ analysis.Report) {
			j.Spec.Path = append(j.Spec.Path[:0:0], j.Spec.Path...)
			j.Spec.Path[0].Taken = !j.Spec.Path[0].Taken
		},
		"xsat": func(_ *pipeline.Job, r analysis.Report) {
			rep := r.(*analysis.SatRun)
			for i := range rep.Model {
				rep.Model[i] = math.NaN()
			}
		},
	} {
		orc, j, r := searchResult(t, an)
		tamper(&j, r.Report)
		if v := orc.check(j, r); len(v.problems) == 0 {
			t.Errorf("%s: tampered result passed the oracle", an)
		}
	}
}

// TestOracleFlagsFlippedServiceByte hands checkService a service
// result with one byte changed and expects it flagged.
func TestOracleFlagsFlippedServiceByte(t *testing.T) {
	orc, j, _ := searchResult(t, "bva")
	r := pipeline.New(1).RunJob(context.Background(), 0, j)
	wire := pipeline.MarshalResult(r)
	st := &serviceState{orc: orc, sched: []arrival{{local: []pipeline.Job{j}}}}
	ph := openPhase{results: [][]json.RawMessage{{wire}}}
	if _, problems := checkService(st, ph, 1); len(problems) != 0 {
		t.Fatalf("untampered service result rejected: %v", problems)
	}
	flipped := append([]byte(nil), wire...)
	i := bytes.LastIndexAny(flipped, "123456789")
	flipped[i] = '0'
	ph.results[0][0] = flipped
	if _, problems := checkService(st, ph, 1); len(problems) == 0 {
		t.Error("a flipped result byte passed the oracle")
	}
}

// TestFormulaEvaluator pins the oracle's independent xsat evaluator.
func TestFormulaEvaluator(t *testing.T) {
	for _, c := range []struct {
		f    string
		env  map[string]float64
		want bool
	}{
		{"x0 < 1 && (x0 + 1 >= 2 || x1 * x1 == 4)", map[string]float64{"x0": 0.5, "x1": -2}, true},
		{"x0 < 1 && (x0 + 1 >= 2 || x1 * x1 == 4)", map[string]float64{"x0": 0.5, "x1": 3}, false},
		{"sqrt(x0) - fabs(x1) != 0", map[string]float64{"x0": 4, "x1": -2}, false},
		{"(x0 > 2) || -x0 >= 1e1", map[string]float64{"x0": -10}, true},
	} {
		got, err := evalFormula(c.f, c.env)
		if err != nil || got != c.want {
			t.Errorf("%s at %v = %v, %v; want %v", c.f, c.env, got, err, c.want)
		}
	}
}

// TestSelfTime checks the span self-time rule: a span's duration minus
// the union of its children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
	}
	lt := aggregate(spans)
	if got := lt.self["p"][0] * 1000; got != 50 { // 100 − ([10,50] ∪ [90,100])
		t.Errorf("self time %v ns, want 50", got)
	}
}
