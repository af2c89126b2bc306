package pshard

import (
	"math"
	"testing"

	"fekf/internal/cluster"
	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

// trajectory is everything a funnel step leaves behind: the weights, every
// P entry (block-major), the λ schedule, the update count and the per-step
// StepInfo.
type trajectory struct {
	weights []float64
	p       [][]float64
	lambda  float64
	updates int
	infos   []optimize.StepInfo
}

// oneAtomFrames rebuilds the first frames of ds as 1-atom cells small
// enough that the atom sees its own periodic images.  With 3·B·Na = 3
// force components at batch 1, force group 3 of 4 is empty.
func oneAtomFrames(ds *dataset.Dataset) *dataset.Dataset {
	one := &dataset.Dataset{System: ds.System, Species: ds.Species}
	for _, s := range ds.Snapshots[:2] {
		one.Snapshots = append(one.Snapshots, dataset.Snapshot{
			Pos:    append([]float64(nil), s.Pos[:3]...),
			Box:    [3]float64{3.6, 3.6, 3.6},
			Types:  s.Types[:1],
			Energy: s.Energy / float64(s.NumAtoms()),
			Forces: append([]float64(nil), s.Forces[:3]...),
		})
	}
	return one
}

// stepFEKF runs the single-device optimizer, optimize.FEKF.Step.
func stepFEKF(t *testing.T, base *deepmd.Model, ds *dataset.Dataset, idx []int, pipeline bool, steps int) trajectory {
	t.Helper()
	m := base.CloneFor(device.New("single", device.A100()))
	f := optimize.NewFEKF()
	f.KCfg = shardedCfg()
	f.Pipeline = pipeline
	var tr trajectory
	for s := 0; s < steps; s++ {
		info, err := f.Step(m, ds, idx)
		if err != nil {
			t.Fatalf("FEKF.Step %d: %v", s, err)
		}
		tr.infos = append(tr.infos, info)
	}
	return denseTrajectory(tr, m, f.State())
}

// stepDataParallel runs a 1-rank replicated cluster trainer.
func stepDataParallel(t *testing.T, base *deepmd.Model, ds *dataset.Dataset, idx []int, pipeline bool, steps int) trajectory {
	t.Helper()
	dp := cluster.NewDataParallelFEKF(1, base)
	dp.KCfg = shardedCfg()
	dp.Pipeline = pipeline
	var tr trajectory
	for s := 0; s < steps; s++ {
		info, err := dp.Step(ds, idx)
		if err != nil {
			t.Fatalf("DataParallelFEKF.Step %d: %v", s, err)
		}
		tr.infos = append(tr.infos, info)
	}
	return denseTrajectory(tr, dp.Model(), dp.State(0))
}

// stepSharded runs RankStep on a 1-rank ring owning every P row.
func stepSharded(t *testing.T, base *deepmd.Model, ds *dataset.Dataset, idx []int, pipeline bool, steps int) trajectory {
	t.Helper()
	dev := device.New("shard", device.A100())
	m := base.CloneFor(dev)
	f := optimize.NewFEKF()
	f.KCfg = shardedCfg()
	f.Pipeline = pipeline
	st := NewState(f.KCfg, Partition(optimize.SplitBlocks(m.Params.LayerSizes(), f.KCfg.BlockSize), 1), 0, dev)
	ring := cluster.NewRing(1, cluster.RoCE25())
	p := f.Params(len(idx), ds.Snapshots[idx[0]].NumAtoms())
	var tr trajectory
	for s := 0; s < steps; s++ {
		info, err := RankStep(ring, 0, m, st, p, ds, idx, nil)
		if err != nil {
			t.Fatalf("pshard.RankStep %d: %v", s, err)
		}
		tr.infos = append(tr.infos, info)
	}
	ck, err := BuildCheckpoint([]*State{st})
	if err != nil {
		t.Fatal(err)
	}
	tr.weights = m.Params.FlattenValues()
	for _, blk := range assembleP(ck) {
		tr.p = append(tr.p, blk.Data)
	}
	tr.lambda, tr.updates = st.Lambda, st.Updates
	return tr
}

func denseTrajectory(tr trajectory, m *deepmd.Model, ks *optimize.KalmanState) trajectory {
	tr.weights = m.Params.FlattenValues()
	for _, blk := range ks.P {
		tr.p = append(tr.p, blk.Data)
	}
	tr.lambda, tr.updates = ks.Lambda, ks.Updates
	return tr
}

// TestFunnelStepEntryPointsBitwiseEquivalent pins the one-schedule
// contract: optimize.FEKF.Step, a 1-rank cluster.DataParallelFEKF and a
// 1-rank pshard.RankStep are the same funnel step over different reducers
// and covariance backends, so over 3 steps they leave bit-identical
// weights, P, λ, update counts and StepInfo — pipeline on and off.  The
// 1-atom row has an empty force group, which every entry point must skip
// (no measurement, no update): 4 updates per step instead of 5.
func TestFunnelStepEntryPointsBitwiseEquivalent(t *testing.T) {
	cu, base := stepSetup(t)
	const steps = 3
	rows := []struct {
		name        string
		ds          *dataset.Dataset
		idx         []int
		wantUpdates int
	}{
		{"cu-batch8", cu, []int{0, 1, 2, 3, 4, 5, 6, 7}, 5 * steps},
		{"one-atom-batch1", oneAtomFrames(cu), []int{0}, 4 * steps},
	}
	for _, row := range rows {
		for _, pipeline := range []bool{false, true} {
			ref := stepFEKF(t, base, row.ds, row.idx, pipeline, steps)
			if ref.updates != row.wantUpdates {
				t.Fatalf("%s pipeline=%v: FEKF.Step made %d updates, want %d", row.name, pipeline, ref.updates, row.wantUpdates)
			}
			for _, entry := range []struct {
				name string
				run  func(*testing.T, *deepmd.Model, *dataset.Dataset, []int, bool, int) trajectory
			}{
				{"DataParallelFEKF", stepDataParallel},
				{"pshard.RankStep", stepSharded},
			} {
				got := entry.run(t, base, row.ds, row.idx, pipeline, steps)
				where := row.name + " pipeline=" + map[bool]string{false: "off", true: "on"}[pipeline] + " " + entry.name
				if !bitsEqual(got.weights, ref.weights) {
					t.Fatalf("%s: weights differ from FEKF.Step", where)
				}
				if len(got.p) != len(ref.p) {
					t.Fatalf("%s: %d P blocks, FEKF.Step %d", where, len(got.p), len(ref.p))
				}
				for b := range ref.p {
					if !bitsEqual(got.p[b], ref.p[b]) {
						t.Fatalf("%s: P block %d differs from FEKF.Step", where, b)
					}
				}
				if math.Float64bits(got.lambda) != math.Float64bits(ref.lambda) || got.updates != ref.updates {
					t.Fatalf("%s: λ %v updates %d, FEKF.Step λ %v updates %d", where, got.lambda, got.updates, ref.lambda, ref.updates)
				}
				for s := range ref.infos {
					g, r := got.infos[s], ref.infos[s]
					if math.Float64bits(g.EnergyABE) != math.Float64bits(r.EnergyABE) ||
						math.Float64bits(g.ForceABE) != math.Float64bits(r.ForceABE) || g.Loss != r.Loss {
						t.Fatalf("%s: step %d StepInfo %+v, FEKF.Step %+v", where, s, g, r)
					}
				}
			}
		}
	}
}
