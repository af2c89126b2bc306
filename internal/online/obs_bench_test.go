package online

import (
	"context"
	"testing"
	"time"

	"fekf/internal/obs"
	"fekf/internal/optimize"
)

// runSteps starts a trainer over a warm replay buffer — eight frames queued
// before Start, TrainIdle keeping it stepping — calls started just before
// Start and done once the trainer has taken n steps, then stops it.  The
// cfg difference between the two benchmarks below is exactly the
// observability wiring, so comparing them bounds the instrumentation
// overhead (the bench-obs Makefile target asserts < 2%).
func runSteps(tb testing.TB, cfg TrainerConfig, n int64, started, done func()) *Trainer {
	ds, m, opt := onlineSetup(tb)
	cfg.BatchSize = 2
	cfg.MinFrames = 2
	cfg.SnapshotEvery = 8
	cfg.Seed = 9
	cfg.Gate = GateConfig{Enabled: false}
	cfg.TrainIdle = true
	reached := make(chan struct{})
	cfg.OnStep = func(step int64, _ optimize.StepInfo) {
		if step == n {
			close(reached)
		}
	}
	tr, err := NewTrainer(m, opt, ds, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := tr.Ingest(ds.Snapshots[i]); err != nil {
			tb.Fatal(err)
		}
	}
	started()
	tr.Start()
	<-reached
	done()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := tr.Stop(ctx); err != nil {
		tb.Fatal(err)
	}
	if le := tr.Stats().LastError; le != "" {
		tb.Fatalf("trainer errored: %s", le)
	}
	return tr
}

func benchStep(b *testing.B, cfg TrainerConfig) {
	b.ReportAllocs()
	runSteps(b, cfg, int64(b.N), b.ResetTimer, b.StopTimer)
}

func BenchmarkTrainStepBare(b *testing.B) {
	benchStep(b, TrainerConfig{})
}

func BenchmarkTrainStepInstrumented(b *testing.B) {
	reg := obs.NewRegistry()
	benchStep(b, TrainerConfig{
		Metrics: NewMetrics(reg),
		Trace:   obs.NewTracer(128),
	})
}

// TestInstrumentationOverheadBudget bounds the observability overhead the
// paired way: time a full step's worth of instrumentation operations
// (recorder begin, spans, publish, histogram observes) against the measured
// step time of this machine, and require < 2%.  An A/B wall-clock diff of
// the two benchmarks above drowns a sub-0.1% true overhead in scheduler
// noise; this measures the added work itself, which cannot be noisy into a
// false pass.
func TestInstrumentationOverheadBudget(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(128)
	cfg := TrainerConfig{Metrics: NewMetrics(reg), Trace: tracer}
	const steps = 10
	runSteps(t, cfg, steps, func() {}, func() {})
	h := cfg.Metrics.StepSeconds
	stepMean := h.Sum() / float64(h.Count())

	// Measure twice the spans of the busiest recorded step plus four
	// histogram observations, to stay conservative.
	spans := 0
	for _, st := range tracer.Last(0) {
		if len(st.Spans) > spans {
			spans = len(st.Spans)
		}
	}
	if spans == 0 {
		t.Fatal("the tracer recorded no spans")
	}
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		rec := tracer.Begin()
		t0 := rec.StartTime()
		for s := 0; s < 2*spans; s++ {
			rec.Span(-1, "bench", t0, time.Microsecond)
		}
		rec.End(int64(i))
		h.Observe(0.001)
		h.Observe(0.001)
		h.Observe(0.001)
		h.Observe(0.001)
	}
	instrPerStep := time.Since(start).Seconds() / iters

	if instrPerStep > 0.02*stepMean {
		t.Errorf("instrumentation costs %.3gs per step, > 2%% of the %.3gs step time", instrPerStep, stepMean)
	}
	t.Logf("instrumentation (%d spans) %.3gs/step vs step %.3gs (%.4f%%)", 2*spans, instrPerStep, stepMean, 100*instrPerStep/stepMean)
}
