package optimize

import (
	"math"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
)

// This file implements the large-minibatch first-order methods the paper's
// related-work section discusses (LARS and LAMB): layer-wise adaptive
// learning rates that made large-batch training work for ResNet/BERT.
// They are included as extension baselines so the paper's motivating claim
// — that large-batch first-order training does not transfer to NNMD
// without per-system hand tuning — can be tested directly (see the
// largebatch ablation in bench_test.go and cmd/paper).

// LARS is layer-wise adaptive rate scaling over SGD with momentum
// (You, Gitman, Ginsburg 2017).
type LARS struct {
	LR       float64 // base learning rate
	Momentum float64
	Trust    float64 // trust coefficient η
	Weights  deepmd.LossWeights

	vel []float64
}

// NewLARS returns a LARS optimizer with conventional defaults.
func NewLARS() *LARS {
	return &LARS{LR: 0.01, Momentum: 0.9, Trust: 0.001, Weights: deepmd.DefaultLossWeights()}
}

// Name implements Optimizer.
func (l *LARS) Name() string { return "LARS" }

// Step implements Optimizer.
func (l *LARS) Step(m *deepmd.Model, ds *dataset.Dataset, idx []int) (StepInfo, error) {
	grad, info, err := lossGradient(m, ds, idx, l.Weights)
	if err != nil {
		return StepInfo{}, err
	}
	n := m.Params.NumParams()
	if l.vel == nil {
		l.vel = make([]float64, n)
	}
	w := m.Params.FlattenValues()

	prev := m.Dev.SetPhase(device.PhaseOptimizer)
	defer m.Dev.SetPhase(prev)
	delta := make([]float64, n)
	lo := 0
	for _, size := range m.Params.LayerSizes() {
		hi := lo + size
		wNorm := norm(w[lo:hi])
		gNorm := norm(grad[lo:hi])
		local := 1.0
		if wNorm > 0 && gNorm > 0 {
			local = l.Trust * wNorm / gNorm
		}
		for i := lo; i < hi; i++ {
			l.vel[i] = l.Momentum*l.vel[i] + l.LR*local*grad[i]
			delta[i] = -l.vel[i]
		}
		lo = hi
	}
	m.Params.AddFlat(delta)
	m.Dev.Launch("lars_update", int64(6*n), int64(4*8*n))
	return info, nil
}

// LAMB is the layer-wise adaptive variant of AdamW (You et al. 2019).
type LAMB struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Weights deepmd.LossWeights

	step int
	m, v []float64
}

// NewLAMB returns a LAMB optimizer with conventional defaults.
func NewLAMB() *LAMB {
	return &LAMB{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, Weights: deepmd.DefaultLossWeights()}
}

// Name implements Optimizer.
func (l *LAMB) Name() string { return "LAMB" }

// Step implements Optimizer.
func (l *LAMB) Step(m *deepmd.Model, ds *dataset.Dataset, idx []int) (StepInfo, error) {
	grad, info, err := lossGradient(m, ds, idx, l.Weights)
	if err != nil {
		return StepInfo{}, err
	}
	n := m.Params.NumParams()
	if l.m == nil {
		l.m = make([]float64, n)
		l.v = make([]float64, n)
	}
	w := m.Params.FlattenValues()

	prev := m.Dev.SetPhase(device.PhaseOptimizer)
	defer m.Dev.SetPhase(prev)
	l.step++
	b1c := 1 - math.Pow(l.Beta1, float64(l.step))
	b2c := 1 - math.Pow(l.Beta2, float64(l.step))
	update := make([]float64, n)
	for i, g := range grad {
		l.m[i] = l.Beta1*l.m[i] + (1-l.Beta1)*g
		l.v[i] = l.Beta2*l.v[i] + (1-l.Beta2)*g*g
		update[i] = (l.m[i] / b1c) / (math.Sqrt(l.v[i]/b2c) + l.Eps)
	}
	delta := make([]float64, n)
	lo := 0
	for _, size := range m.Params.LayerSizes() {
		hi := lo + size
		wNorm := norm(w[lo:hi])
		uNorm := norm(update[lo:hi])
		ratio := 1.0
		if wNorm > 0 && uNorm > 0 {
			ratio = wNorm / uNorm
		}
		for i := lo; i < hi; i++ {
			delta[i] = -l.LR * ratio * update[i]
		}
		lo = hi
	}
	m.Params.AddFlat(delta)
	m.Dev.Launch("lamb_update", int64(10*n), int64(5*8*n))
	return info, nil
}

// lossGradient evaluates the standard DeePMD loss gradient of a batch,
// shared by the first-order optimizers.
func lossGradient(m *deepmd.Model, ds *dataset.Dataset, idx []int, w deepmd.LossWeights) ([]float64, StepInfo, error) {
	env, err := deepmd.BuildBatchEnv(m.Cfg, ds, idx)
	if err != nil {
		return nil, StepInfo{}, err
	}
	lab := deepmd.BatchLabels(ds, idx)
	out := m.Forward(env, true)
	loss := deepmd.LossGraph(out, lab, w)
	grad := m.LossGrad(out, loss)
	_, sumE := EnergySeed(out, lab)
	info := StepInfo{
		EnergyABE: sumE / (float64(out.Energies.Rows()) * float64(lab.NaPer)),
		ForceABE:  meanAbsForceError(out, lab),
		Loss:      loss.Scalar(),
	}
	out.Graph.Release()
	return grad, info, nil
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
