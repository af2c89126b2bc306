// Command perfbench is the repository benchmark: it runs one named workload
// in a single process against the public APIs of internal/online,
// internal/fleet, internal/serve, internal/optimize and internal/deepmd,
// checks the outputs, and prints its metrics.
//
//	bash perfbench/run.sh --workload serve-predict --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
// traced run.  The lines before it are a human-readable report: provenance,
// every workload metric with its unit and sample count, and the attempted /
// succeeded / failed count of every operation kind.  METRICS.md defines
// each metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"fekf/internal/tensor"
)

// Pinned host parallelism: the caller's FEKF_WORKERS / FEKF_PIPELINE cannot
// change what is measured.
const (
	pinnedWorkers  = 2
	pinnedPipeline = "1"
)

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with --trace 0.
// An "op" is the workload's unit of work: one optimizer step in
// train-batch, one /v1/predict round trip in serve-predict, and in
// stream-fleet one frame's trip from its accepted POST into a published
// snapshot (its freshness).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics of a traced run.  A layer that does no work in
// a workload reports 0 there.
var perLayer = []metricDef{
	{"deepmd.build_env_ms", "ms"},
	{"deepmd.forward_ms", "ms"},
	{"deepmd.forward_force_ms", "ms"},
	{"deepmd.energy_grad_ms", "ms"},
	{"deepmd.force_grad_ms", "ms"},
	{"optimize.gain_ms", "ms"},
	{"optimize.drain_ms", "ms"},
	{"optimize.updates_per_step", "count"},
	{"device.kernels_per_step", "count"},
	{"device.flops_per_step", "flop"},
	{"device.bytes_per_step", "B"},
	{"device.modeled_ms_per_step", "ms"},
	{"device.modeled_ms.forward", "ms"},
	{"device.modeled_ms.gradient", "ms"},
	{"device.modeled_ms.optimizer", "ms"},
	{"device.host_ms_per_step", "ms"},
	{"runtime.alloc_bytes_per_step", "B"},
	{"runtime.allocs_per_step", "count"},
	{"runtime.gc_cycles", "count"},
	{"serve.predict_batch_mean", "count"},
	{"serve.handler_predict_mean_ms", "ms"},
	{"serve.client_overhead_ms", "ms"},
	{"serve.handler_frames_mean_ms", "ms"},
	{"online.queue_depth_mean", "count"},
	{"online.gate_accept_frac", "ratio"},
	{"online.frames_dropped", "count"},
	{"fleet.step_ms", "ms"},
	{"fleet.backward_ms", "ms"},
	{"fleet.gain_ms", "ms"},
	{"fleet.drain_ms", "ms"},
	{"fleet.snapshot_publish_ms", "ms"},
	{"cluster.allreduce_ms", "ms"},
	{"cluster.exchange_ms", "ms"},
	{"cluster.wire_bytes_per_step", "B"},
	{"cluster.ops_per_step", "count"},
	{"pshard.resident_p_bytes_max", "B"},
	{"pshard.exchange_bytes_per_step", "B"},
	{"guard.checkpoint_ms", "ms"},
	{"guard.checkpoints", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// opCount tallies one kind of operation.  A refused, timed-out or dropped
// operation, and a missed training target, count as failed.
type opCount struct {
	attempted, failed int
}

// reportRow is one workload metric in the human-readable report.
type reportRow struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what a workload run produces.
type result struct {
	e2e      map[string]float64
	layers   map[string]float64
	report   []reportRow
	ops      map[string]*opCount
	problems []string // failed correctness checks
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}, ops: map[string]*opCount{}}
}

func (r *result) op(kind string) *opCount {
	c := r.ops[kind]
	if c == nil {
		c = &opCount{}
		r.ops[kind] = c
	}
	return c
}

func (r *result) row(name string, value float64, unit, note string) {
	r.report = append(r.report, reportRow{name, value, unit, note})
}

// check records a failed correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	scratch string // per-run directory for checkpoint files
}

var workloads = map[string]func(options) (*result, error){
	"train-batch":   runTrainBatch,
	"serve-predict": runServePredict,
	"stream-fleet":  runStreamFleet,
}

func main() {
	var (
		workload = flag.String("workload", "", "train-batch | serve-predict | stream-fleet")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 20, "measured duration")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "repository root; scratch files go under <root>/.bench_build")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	os.Setenv("FEKF_WORKERS", fmt.Sprint(pinnedWorkers))
	os.Setenv("FEKF_PIPELINE", pinnedPipeline)
	tensor.SetWorkers(pinnedWorkers)

	scratch, err := os.MkdirTemp(filepath.Join(*root, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(options{seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: scratch})
	os.RemoveAll(scratch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printProvenance(*root, *workload, *seed, *seconds, *trace)
	printReport(res)
	line, err := finalLine(res, *trace == 1)
	if err != nil {
		res.problems = append(res.problems, err.Error())
	}
	for _, p := range res.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	fmt.Println(line)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func printProvenance(root, workload string, seed int64, seconds float64, trace int) {
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", workload, seed, seconds, trace)
	fmt.Printf("host: go=%s GOMAXPROCS=%d nproc=%d FEKF_WORKERS=%d (tensor workers %d) FEKF_PIPELINE=%s commit=%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), pinnedWorkers, tensor.Workers(), pinnedPipeline, commitOf(root))
}

// commitOf reads the checked-out commit from .git without running git; a
// checkout that is not a git repository reports "unknown".
func commitOf(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

func printReport(res *result) {
	for _, r := range res.report {
		note := ""
		if r.note != "" {
			note = "  (" + r.note + ")"
		}
		fmt.Printf("  %-28s %14.4f %-9s%s\n", r.name, r.value, r.unit, note)
	}
	kinds := make([]string, 0, len(res.ops))
	for k := range res.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := res.ops[k]
		fmt.Printf("  ops %-24s attempted %d  succeeded %d  failed %d\n", k, c.attempted, c.attempted-c.failed, c.failed)
	}
	if len(res.layers) > 0 {
		for _, d := range perLayer {
			fmt.Printf("  layer %-32s %16.4f %s\n", d.name, res.layers[d.name], d.unit)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finalLine renders the machine-readable result: every end-to-end metric
// (or, traced, every per-layer metric), each finite and end-to-end ones
// non-zero.
func finalLine(res *result, traced bool) (string, error) {
	defs, src := endToEnd, res.e2e
	if traced {
		defs, src = perLayer, res.layers
	}
	out := resultLine{Metrics: map[string]metricValue{}}
	var errs []error
	for _, d := range defs {
		v, ok := src[d.name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s was not measured", d.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s is %v", d.name, v))
			v = 0 // JSON has no NaN; the run is marked incorrect
		case !traced && v <= 0:
			errs = append(errs, fmt.Errorf("metric %s is %v, want > 0", d.name, v))
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for _, c := range res.ops {
		out.Attempted += c.attempted
		out.Failed += c.failed
	}
	err := errors.Join(errs...)
	out.Correct = len(res.problems) == 0 && err == nil
	b, jerr := json.Marshal(out)
	if jerr != nil {
		return "", jerr
	}
	return string(b), err
}

// since is a readability helper for elapsed wall time in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
