package main

import (
	"encoding/json"
	"testing"
)

// workloadMetrics are the end-to-end metrics each workload prints in its
// report, by workload.
var workloadMetrics = map[string][]string{
	"train-batch": {"setup_s", "time_to_target_s", "train_samples_per_s",
		"energy_rmse_mev_atom", "force_rmse_mev_ang", "heap_peak_mb"},
	"serve-predict": {"setup_s", "predict_p50_ms", "predict_p99_ms", "predict_per_s", "heap_peak_mb"},
	"stream-fleet": {"setup_s", "train_samples_per_s", "predict_p50_ms", "predict_p99_ms", "predict_per_s",
		"frame_post_p99_ms", "gen_late_p99_ms", "freshness_p50_ms", "freshness_p99_ms", "heap_peak_mb"},
}

// TestWorkloadsEmitEveryMetric runs each workload briefly, untraced and
// traced, and requires every metric with its unit, passing checks and no
// failed operations.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"train-batch", "serve-predict", "stream-fleet"} {
		for _, traced := range []bool{false, true} {
			res, err := workloads[name](options{seed: 5, seconds: 2, trace: traced, scratch: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			line, err := finalLine(res, traced)
			if err != nil {
				t.Errorf("%s trace=%t: %v", name, traced, err)
			}
			var out resultLine
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatalf("%s trace=%t: result line %q: %v", name, traced, line, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d problems=%v",
					name, traced, out.Correct, out.Attempted, out.Failed, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			if traced {
				continue
			}
			rows := map[string]reportRow{}
			for _, r := range res.report {
				rows[r.name] = r
			}
			for _, m := range workloadMetrics[name] {
				if r, ok := rows[m]; !ok || r.unit == "" || !(r.value > 0) {
					t.Errorf("%s: report row %s = %+v, want a positive value with a unit", name, m, r)
				}
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}
