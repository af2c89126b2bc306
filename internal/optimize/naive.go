package optimize

import (
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
)

// NaiveEKF is the fusiform-shaped ("computing-then-aggregation")
// multi-sample EKF of Figure 3(a) / Table 2's third row: every sample runs
// its own full Kalman update against its own P matrix, and the per-sample
// weight increments are averaged, δ* = E(K·ABE).
//
// Its cost profile is the point of the comparison with FEKF: the memory
// footprint grows linearly with the batch size (one P replica per sample
// slot) and, distributed, the P replicas diverge and must be communicated.
type NaiveEKF struct {
	KCfg                KalmanConfig
	ForceGroups         int
	EnergyDiv, ForceDiv TrustDiv

	states []*KalmanState
}

// NewNaiveEKF returns the fusiform baseline with paper-default EKF
// settings.
func NewNaiveEKF() *NaiveEKF {
	return &NaiveEKF{
		KCfg: DefaultKalmanConfig(), ForceGroups: 4,
		EnergyDiv: DivSqrtAtoms, ForceDiv: DivAtoms,
	}
}

// Name implements Optimizer.
func (nv *NaiveEKF) Name() string { return "Naive-EKF" }

// PBytes returns the total device memory held by all per-sample P
// replicas (the Naive-EKF memory overhead the paper calls unbearable).
func (nv *NaiveEKF) PBytes() int64 {
	var total int64
	for _, s := range nv.states {
		total += s.PBytes()
	}
	return total
}

// Step implements Optimizer: process each sample independently with its
// own P, average the per-sample increments, apply once.
func (nv *NaiveEKF) Step(m *deepmd.Model, ds *dataset.Dataset, idx []int) (StepInfo, error) {
	bs := len(idx)
	for len(nv.states) < bs {
		nv.states = append(nv.states, NewKalmanState(nv.KCfg, m.Params.LayerSizes(), m.Dev))
	}

	n := m.Params.NumParams()
	sum := make([]float64, n)
	var info StepInfo
	for s, sample := range idx {
		env, err := deepmd.BuildBatchEnv(m.Cfg, ds, []int{sample})
		if err != nil {
			return StepInfo{}, err
		}
		lab := deepmd.BatchLabels(ds, []int{sample})
		ks := nv.states[s]
		eDiv := nv.EnergyDiv.Value(lab.NaPer)
		fDiv := nv.ForceDiv.Value(lab.NaPer)

		out := m.Forward(env, false)
		seedE, sumE := EnergySeed(out, lab)
		eABE := sumE / (float64(out.Energies.Rows()) * eDiv)
		gE := m.EnergyGrad(out, seedE)
		accumulate(sum, ks.Update(gE, eABE, 1))
		out.Graph.Release()

		out2 := m.Forward(env, true)
		info.EnergyABE += eABE
		info.ForceABE += meanAbsForceError(out2, lab)
		for grp := 0; grp < nv.ForceGroups; grp++ {
			seedF, fSum, count := ForceSeed(out2, lab, grp, nv.ForceGroups)
			if count == 0 {
				continue // empty group: no measurement, no update
			}
			gF := m.ForceGrad(out2, seedF)
			accumulate(sum, ks.Update(gF, fSum/(float64(count)*fDiv), 1))
		}
		out2.Graph.Release()
	}

	inv := 1 / float64(bs)
	for i := range sum {
		sum[i] *= inv
	}
	m.Params.AddFlat(sum)
	info.EnergyABE *= inv
	info.ForceABE *= inv
	return info, nil
}

func accumulate(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}
