package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/obs"
	"fekf/internal/optimize"
)

// train-batch: plain single-worker FEKF training on a seeded Cu dataset of
// 32-atom cells, the paper's headline.  Each training session sets up from
// scratch, takes trainSteps optimizer steps at batch trainBatch and
// evaluates the held-out set every evalEvery steps with the training clock
// paused.  Sessions repeat, each on its own seed derived from --seed,
// until the measured time is used up.
const (
	trainFrames  = 96 // generated frames; heldOutFrac of them are held out
	heldOutFrac  = 0.25
	trainBatch   = 8
	trainSteps   = 60
	evalEvery    = 5
	evalChunk    = 8
	forceGroups  = 4
	targetMeVAtm = 100.0 // held-out per-atom energy RMSE target of time_to_target_s
)

// trainRig is one freshly set-up training problem.
type trainRig struct {
	train, test *dataset.Dataset
	model       *deepmd.Model
	opt         *optimize.FEKF
	rng         *rand.Rand // minibatch order
	perm        []int
	next        int
}

// setupTrain generates the dataset, splits it, and initialises the model
// and the optimizer with the cmd/serve defaults (OptAll, Opt3 kernels,
// four force groups, pipeline on).
func setupTrain(seed int64) (*trainRig, error) {
	ds, err := dataset.Generate("Cu", dataset.GenOptions{
		Snapshots: trainFrames, SampleEvery: 5, EquilSteps: 40, Tiny: true, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	train, test := ds.Split(heldOutFrac, seed)
	sys := deepmd.SnapshotSystem(train, &train.Snapshots[0])
	cfg := deepmd.TinyConfig(sys)
	cfg.Seed = seed
	m, err := deepmd.NewModel(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.InitFromDataset(train); err != nil {
		return nil, err
	}
	m.Level = deepmd.OptAll
	m.Dev = device.New("gpu0", device.A100())
	opt := optimize.NewFEKF()
	opt.KCfg = opt.KCfg.WithOpt3()
	opt.ForceGroups = forceGroups
	opt.Pipeline = true
	opt.InitState(m)
	return &trainRig{train: train, test: test, model: m, opt: opt, rng: rand.New(rand.NewSource(seed))}, nil
}

// batch returns the next minibatch of a seeded epoch-wise shuffle.
func (r *trainRig) batch() []int {
	if r.perm == nil || r.next+trainBatch > len(r.perm) {
		r.perm = r.rng.Perm(r.train.Len())
		r.next = 0
	}
	idx := append([]int(nil), r.perm[r.next:r.next+trainBatch]...)
	r.next += trainBatch
	return idx
}

// sessionSeed derives the seed of training session k from the run seed.
func sessionSeed(seed int64, k int) int64 { return seed*7919 + int64(k) }

// sessionResult is what one training session measured.
type sessionResult struct {
	setup        time.Duration
	stepMs       []float64
	trainTime    time.Duration // optimizer steps only
	timeToTarget time.Duration // training time until the target was met
	reached      bool
	final        deepmd.Metrics
	weights      []float64
	problems     []string
}

// runSession sets up and trains one session; eval false skips the
// periodic held-out evaluations (the final one always runs).  Like every
// timed set-up it starts on a collected heap.
func runSession(seed int64, step func(*trainRig, []int) error, eval bool) (*sessionResult, error) {
	runtime.GC()
	s0 := time.Now()
	rig, err := setupTrain(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	out := &sessionResult{setup: time.Since(s0)}
	for k := 1; k <= trainSteps; k++ {
		idx := rig.batch()
		t0 := time.Now()
		if err := step(rig, idx); err != nil {
			return nil, fmt.Errorf("step %d: %w", k, err)
		}
		d := time.Since(t0)
		out.trainTime += d
		out.stepMs = append(out.stepMs, float64(d.Nanoseconds())/1e6)
		if (eval && k%evalEvery == 0) || k == trainSteps {
			met, err := rig.model.Evaluate(rig.test, evalChunk)
			if err != nil {
				return nil, fmt.Errorf("evaluate: %w", err)
			}
			if !out.reached && met.EnergyPerAtomRMSE*1000 <= targetMeVAtm {
				out.reached = true
				out.timeToTarget = out.trainTime
			}
			out.final = met
		}
	}
	out.weights = rig.model.Params.FlattenValues()
	for i, w := range out.weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			out.problems = append(out.problems, fmt.Sprintf("session %d: weight %d is %v", seed, i, w))
			break
		}
	}
	if f := out.final; math.IsNaN(f.EnergyPerAtomRMSE) || math.IsNaN(f.ForceRMSE) {
		out.problems = append(out.problems, fmt.Sprintf("session %d: held-out RMSE is not finite", seed))
	}
	return out, nil
}

// fekfStep is the untraced step: optimize.FEKF.Step, as cmd/serve runs it.
func fekfStep(rig *trainRig, idx []int) error {
	info, err := rig.opt.Step(rig.model, rig.train, idx)
	if err == nil && (math.IsNaN(info.EnergyABE) || math.IsNaN(info.ForceABE)) {
		err = fmt.Errorf("non-finite step errors %+v", info)
	}
	return err
}

func runTrainBatch(o options) (*result, error) {
	if o.trace {
		return traceTrainBatch(o)
	}
	res := newResult()
	steps, targets := res.op("train_steps"), res.op("time_to_target")
	var setupS, stepMs, ttt, eRMSE, fRMSE []float64
	var trainTime time.Duration
	// Extra timed set-ups, discarded, so setup_s is a median of at least
	// setupRepeats + 1 set-ups whatever the session count.
	for k := 0; k < setupRepeats; k++ {
		runtime.GC()
		s0 := time.Now()
		if _, err := setupTrain(sessionSeed(o.seed, -1-k)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, since(s0))
	}
	heap := startHeapSampler()
	start := time.Now()
	for k := 0; k == 0 || since(start) < o.seconds; k++ {
		s, err := runSession(sessionSeed(o.seed, k), fekfStep, true)
		if err != nil {
			return nil, err
		}
		res.problems = append(res.problems, s.problems...)
		setupS = append(setupS, s.setup.Seconds())
		stepMs = append(stepMs, s.stepMs...)
		trainTime += s.trainTime
		steps.attempted += len(s.stepMs)
		targets.attempted++
		if s.reached {
			ttt = append(ttt, s.timeToTarget.Seconds())
		} else {
			targets.failed++
		}
		eRMSE = append(eRMSE, s.final.EnergyPerAtomRMSE*1000)
		fRMSE = append(fRMSE, s.final.ForceRMSE*1000)
	}
	heapMB := heap.peakMB()

	stepsPerS := float64(len(stepMs)) / trainTime.Seconds()
	res.e2e["setup_s"] = median(setupS)
	res.e2e["heap_peak_mb"] = heapMB
	res.e2e["op_p50_ms"] = median(stepMs)
	res.e2e["op_tail_ms"] = quantile(stepMs, tailQuantile(len(stepMs)))
	res.e2e["ops_per_s"] = stepsPerS

	sessions := fmt.Sprintf("median of %d sessions", len(eRMSE))
	res.row("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
	res.row("time_to_target_s", median(ttt), "s", fmt.Sprintf("median of %d sessions reaching %g meV/atom", len(ttt), targetMeVAtm))
	res.row("train_samples_per_s", stepsPerS*trainBatch, "frames/s", fmt.Sprintf("%d steps x batch %d", len(stepMs), trainBatch))
	res.row("energy_rmse_mev_atom", median(eRMSE), "meV/atom", sessions+fmt.Sprintf(" after %d steps", trainSteps))
	res.row("force_rmse_mev_ang", median(fRMSE), "meV/A", sessions+fmt.Sprintf(" after %d steps", trainSteps))
	res.row("heap_peak_mb", heapMB, "MB", "")
	res.row("step_p50_ms", median(stepMs), "ms", fmt.Sprintf("%d steps", len(stepMs)))
	res.row("step_tail_ms", res.e2e["op_tail_ms"], "ms", fmt.Sprintf("p%.0f of %d steps", 100*tailQuantile(len(stepMs)), len(stepMs)))
	return res, nil
}

// traceTrainBatch trains one session untraced (optimize.FEKF.Step, pipeline
// on) and the same session again through tracedStep, which makes the same
// public calls serially with a span around each.  The two must end with
// bitwise identical weights: the pipelined and serial schedules are
// bitwise equal, so equality shows the traced stepper did the same work.
func traceTrainBatch(o options) (*result, error) {
	res := newResult()
	steps := res.op("train_steps")
	seed := sessionSeed(o.seed, 0)

	ref, err := runSession(seed, fekfStep, false)
	if err != nil {
		return nil, err
	}
	steps.attempted += len(ref.stepMs)

	tracer := obs.NewTracer(trainSteps)
	var dev device.Counters
	var rt runtimeCounters
	var updates int
	traced := func(rig *trainRig, idx []int) error {
		d0, r0, u0 := rig.model.Dev.Counters(), readRuntime(), rig.opt.State().Updates
		err := tracedStep(tracer.Begin(), rig, idx)
		d1, r1 := rig.model.Dev.Counters(), readRuntime()
		dev = addCounters(dev, d1.Sub(d0))
		r := r1.sub(r0)
		rt = runtimeCounters{rt.allocBytes + r.allocBytes, rt.allocObjects + r.allocObjects, rt.gcCycles + r.gcCycles}
		updates += rig.opt.State().Updates - u0
		return err
	}
	tr, err := runSession(seed, traced, false)
	if err != nil {
		return nil, err
	}
	steps.attempted += len(tr.stepMs)
	res.problems = append(res.problems, ref.problems...)
	res.problems = append(res.problems, tr.problems...)
	res.check(bitwiseEqual(ref.weights, tr.weights), "traced stepper weights differ from optimize.FEKF.Step weights")

	traces := tracer.Last(0)
	res.check(tracer.Dropped() == 0 && len(traces) == trainSteps, "tracer kept %d of %d step traces (%d dropped)", len(traces), trainSteps, tracer.Dropped())
	perStep := spanTotals(traces)
	n := float64(len(tr.stepMs))
	L := zeroLayers()
	L["deepmd.build_env_ms"] = perStep["build_env"] / n
	L["deepmd.forward_ms"] = perStep["forward"] / n
	L["deepmd.forward_force_ms"] = perStep["forward_force"] / n
	L["deepmd.energy_grad_ms"] = perStep["energy_grad"] / n
	L["deepmd.force_grad_ms"] = perStep["force_grad"] / n
	L["optimize.gain_ms"] = perStep["gain"] / n
	L["optimize.drain_ms"] = perStep["drain"] / n
	L["optimize.updates_per_step"] = float64(updates) / n
	L["device.kernels_per_step"] = float64(dev.Kernels) / n
	L["device.flops_per_step"] = float64(dev.Flops) / n
	L["device.bytes_per_step"] = float64(dev.Bytes) / n
	L["device.modeled_ms_per_step"] = dev.ModeledNs / 1e6 / n
	L["device.modeled_ms.forward"] = dev.PhaseNs[device.PhaseForward] / 1e6 / n
	L["device.modeled_ms.gradient"] = dev.PhaseNs[device.PhaseGradient] / 1e6 / n
	L["device.modeled_ms.optimizer"] = dev.PhaseNs[device.PhaseOptimizer] / 1e6 / n
	L["device.host_ms_per_step"] = mean(tr.stepMs)
	L["runtime.alloc_bytes_per_step"] = float64(rt.allocBytes) / n
	L["runtime.allocs_per_step"] = float64(rt.allocObjects) / n
	L["runtime.gc_cycles"] = float64(rt.gcCycles)
	L["trace.overhead_pct"] = 100 * (mean(tr.stepMs)/mean(ref.stepMs) - 1)
	L["trace.spans"] = float64(countSpans(traces))
	res.layers = L

	res.row("untraced_step_mean_ms", mean(ref.stepMs), "ms", fmt.Sprintf("%d steps, optimize.FEKF.Step, pipeline on", len(ref.stepMs)))
	res.row("traced_step_mean_ms", mean(tr.stepMs), "ms", fmt.Sprintf("%d steps, serial traced stepper", len(tr.stepMs)))
	res.row("energy_rmse_mev_atom", tr.final.EnergyPerAtomRMSE*1000, "meV/atom", "traced session")
	return res, nil
}

// tracedStep performs one FEKF step through the same public calls
// optimize.FEKF.Step makes, with the pipeline off so every span is the
// layer's self time.
func tracedStep(rec *obs.StepRecorder, rig *trainRig, idx []int) error {
	m, opt := rig.model, rig.opt
	ks := opt.State()
	t0 := time.Now()
	span := func(name string) {
		now := time.Now()
		rec.Span(-1, name, t0, now.Sub(t0))
		t0 = now
	}
	defer func() { rec.End(int64(ks.Updates)) }()

	env, err := deepmd.BuildBatchEnv(m.Cfg, rig.train, idx)
	if err != nil {
		return err
	}
	lab := deepmd.BatchLabels(rig.train, idx)
	span("build_env")
	scale := opt.Factor.Apply(len(idx))
	eDiv := opt.EnergyDiv.Value(lab.NaPer)
	fDiv := opt.ForceDiv.Value(lab.NaPer)

	out := m.Forward(env, false)
	span("forward")
	seedE, sumE := optimize.EnergySeed(out, lab)
	eABE := sumE / (float64(out.Energies.Rows()) * eDiv)
	gE := m.EnergyGrad(out, seedE)
	span("energy_grad")
	deltaE, drainE := ks.UpdateSplit(gE, eABE, scale)
	m.Params.AddFlat(deltaE)
	span("gain")
	drainE()
	span("drain")
	out.Graph.Release()

	out2 := m.Forward(env, true)
	span("forward_force")
	for grp := 0; grp < opt.ForceGroups; grp++ {
		seedF, sumF, count := optimize.ForceSeed(out2, lab, grp, opt.ForceGroups)
		fABE := 0.0
		if count > 0 {
			fABE = sumF / (float64(count) * fDiv)
		}
		gF := m.ForceGrad(out2, seedF)
		span("force_grad")
		deltaF, drainF := ks.UpdateSplit(gF, fABE, scale)
		m.Params.AddFlat(deltaF)
		span("gain")
		drainF()
		span("drain")
	}
	out2.Graph.Release()
	return nil
}

func addCounters(a, b device.Counters) device.Counters {
	a.Kernels += b.Kernels
	a.Flops += b.Flops
	a.Bytes += b.Bytes
	a.ModeledNs += b.ModeledNs
	for i := range a.PhaseNs {
		a.PhaseNs[i] += b.PhaseNs[i]
		a.PhaseKerns[i] += b.PhaseKerns[i]
	}
	return a
}

func bitwiseEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
