// Command perfbench is the repository's benchmark: one seeded workload
// per run, measured end to end, checked against an independent oracle,
// and — with -trace 1 — decomposed into per-layer metrics from spans
// the benchmark records around each layer's public API.
//
//	perfbench -workload search|churn|service -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	tiny     bool    // shrunken inputs, for the self-tests
	tailQ    float64 // the workload's tail percentile, as a quantile
	tmpDir   string  // journal directories
	spanDir  string  // where the traced run writes its spans
}

// phaseSeconds is the length of one timed phase. A traced run splits
// its time between an untraced and a traced phase.
func (o options) phaseSeconds() float64 {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

func (o options) duration() time.Duration {
	return time.Duration(o.phaseSeconds() * float64(time.Second))
}

// windows is the number of equal windows a timed phase is split into
// for medians: about 2 s each, or 4 s for service, whose tail estimate
// needs the samples of a longer window.
func (o options) windows() int {
	w := 2.0
	if o.workload == "service" {
		w = 4
	}
	return max(1, int(o.phaseSeconds()/w))
}

// setupReps is how often a workload's set-up runs: search's warm-up
// pass is a second of steady CPU work; the other set-ups are short and
// wait on timers, and need more repetitions for a steady median.
func (o options) setupReps() int {
	if o.workload == "search" {
		return 3
	}
	return 7
}

// outcome is what a workload run measured and checked.
type outcome struct {
	metrics     map[string]float64
	attempted   int
	failed      int
	problems    []string // oracle mismatches
	tailSamples int
	spans       []Span
}

// metric units, by name. The end-to-end set is printed by the untraced
// run, the per-layer set by the traced run.
var endToEnd = []unitOf{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_tail_ms", "ms"},
	{"findings_per_job", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []unitOf{
	{"lang.parse_us", "us"},
	{"lang.check_us", "us"},
	{"ir.lower_us", "us"},
	{"gofront.compile_us", "us"},
	{"compile.compile_us", "us"},
	{"interp.program_us", "us"},
	{"pipeline.cache_miss_us", "us"},
	{"pipeline.cache_hit_us", "us"},
	{"pipeline.cache_hit_frac", "ratio"},
	{"pipeline.compiles", "count"},
	{"compile.vm_evals", "count"},
	{"compile.vm_ns_per_eval", "ns"},
	{"compile.batch_sweeps", "count"},
	{"compile.batch_ns_per_lane", "ns"},
	{"compile.batch_lane_fill", "ratio"},
	{"instrument.overhead_frac", "ratio"},
	{"analysis.bva_ms", "ms"},
	{"analysis.coverage_ms", "ms"},
	{"analysis.overflow_ms", "ms"},
	{"analysis.nan_ms", "ms"},
	{"analysis.reach_ms", "ms"},
	{"analysis.xsat_ms", "ms"},
	{"analysis.evals_per_job", "count"},
	{"analysis.search_self_frac", "ratio"},
	{"analysis.findings_per_kilo_eval", "count"},
	{"pipeline.marshal_us", "us"},
	{"pipeline.job_overhead_us", "us"},
	{"go.allocs_per_job", "count"},
	{"go.alloc_kb_per_job", "KB"},
	{"go.gc_cpu_frac", "ratio"},
	{"http.register_ms", "ms"},
	{"http.register_tail_ms", "ms"},
	{"http.submit_ms", "ms"},
	{"http.submit_tail_ms", "ms"},
	{"http.poll_ms", "ms"},
	{"http.poll_tail_ms", "ms"},
	{"pipeline.shed_frac", "ratio"},
	{"journal.submit_us", "us"},
	{"journal.result_us", "us"},
	{"journal.syncs_per_job", "count"},
	{"cluster.run_ms", "ms"},
	{"cluster.hop_ms", "ms"},
	{"cluster.requeued", "count"},
	{"cluster.route_max_share", "ratio"},
	{"loadgen.late_p99_ms", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
}

type unitOf struct{ name, unit string }

// tailQuantile is each workload's tail percentile: the highest of
// p90/p95/p99/p99.9 that leaves at least ten samples beyond each
// estimate (one per window) at the sample counts a 30 s run gives on a
// 2-core host (README.md lists them).
var tailQuantile = map[string]float64{"search": 0.99, "churn": 0.99, "service": 0.95}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "search", "workload: search, churn or service")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds (a traced run splits them between an untraced and a traced phase)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	capacity := flag.Bool("capacity", false, "service: measure the closed-loop capacity in batches/s and exit")
	flag.StringVar(&o.spanDir, "spans", filepath.Join(".bench_build", "spans"), "directory for the traced run's span files")
	flag.StringVar(&o.tmpDir, "tmp", filepath.Join(".bench_build", "tmp"), "directory for journal files")
	flag.Parse()
	o.trace = trace == 1
	if *capacity {
		o.workload, o.clients = "service", runtime.NumCPU()
		c, err := serviceCapacity(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("service capacity: %.1f batches/s with %d outstanding\n", c, o.clients)
		return
	}
	os.Exit(run(o, os.Stdout, os.Stderr))
}

// run executes one benchmark run and returns the exit code: 0 when it
// completed and every output passed the oracle.
func run(o options, stdout, stderr *os.File) int {
	o.clients = runtime.NumCPU()
	runtime.GOMAXPROCS(o.clients)
	q, ok := tailQuantile[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want search, churn or service)\n", o.workload)
		return 2
	}
	o.tailQ = q
	host := fingerprint(o)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "# host %s\n", hb)

	out, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, warnings := report(o, out)
	for _, w := range warnings {
		fmt.Fprintf(stderr, "perfbench: warning: %s\n", w)
	}
	for i, p := range out.problems {
		if i == 20 {
			fmt.Fprintf(stderr, "perfbench: ... %d more oracle mismatches\n", len(out.problems)-i)
			break
		}
		fmt.Fprintf(stderr, "perfbench: oracle: %s\n", p)
	}
	if o.trace {
		path := filepath.Join(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, host, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "# spans %s (%d spans)\n", path, len(out.spans))
	}
	fmt.Fprintf(stdout, "# %s: tail = p%g over %d samples per estimate\n", o.workload, 100*o.tailQ, out.tailSamples)
	b, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

func runWorkload(o options) (*outcome, error) {
	switch o.workload {
	case "search":
		return runClosed(o, func() (*closedState, error) { return searchSetup(o) })
	case "churn":
		return runClosed(o, func() (*closedState, error) { return churnSetup(o) })
	}
	return runService(o)
}

// report builds the output line: the end-to-end metrics untraced, the
// per-layer metrics traced. A metric the run could not measure is a
// warning (and reads 0).
func report(o options, out *outcome) (result, []string) {
	set := endToEnd
	if o.trace {
		set = perLayer
	}
	failed := out.failed + len(out.problems)
	res := result{
		Correct:   len(out.problems) == 0 && out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	var warnings []string
	for _, m := range set {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			warnings = append(warnings, fmt.Sprintf("metric %s not measured", m.name))
			v = 0
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return res, warnings
}

// repeatSetup runs a workload's set-up n times, tearing down all but
// the last, and returns the median duration in seconds.
func repeatSetup(n int, setup func() (teardown func(), err error)) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown()
		}
	}
	return median(times), nil
}

// settle collects garbage, returns freed memory to the OS and resets the
// kernel's peak-RSS mark, so peak_rss_mb covers the timed phase rather
// than the benchmark's own set-up.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// fingerprint identifies the host and the inputs of the run, so numbers
// from different hosts or code are never compared.
func fingerprint(o options) map[string]any {
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git commit of the repository when it is a git checkout,
// and otherwise a digest of its Go sources and go.mod files.
func commit() string {
	root, err := repoRoot()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	if b, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(b))
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
