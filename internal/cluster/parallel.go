package cluster

import (
	"errors"
	"fmt"
	"sync"

	"fekf/internal/dataset"
	"fekf/internal/deepmd"
	"fekf/internal/device"
	"fekf/internal/optimize"
)

// DataParallelFEKF trains FEKF over r simulated GPU ranks: the minibatch
// is split into r chunks (Figure 5(a)), each rank computes its partial
// sign-reduced gradient and error sums on its own device, the partials are
// ring-allreduced, and every rank then performs the identical Kalman
// update against its local P replica — which therefore stays consistent
// with zero P communication (Section 3.3).
type DataParallelFEKF struct {
	// Settings are the FEKF hyper-parameters every rank runs with;
	// Pipeline overlaps each rank's replicated P drain with the next
	// group's backward and ring allreduce.
	optimize.Settings

	ring     *Ring
	replicas []*deepmd.Model
	states   []*optimize.KalmanState
	devs     []*device.Device

	// envFail, when non-nil, injects a per-rank environment-build failure
	// after BuildBatchEnv succeeds; the consistency tests use it to prove
	// that a failing rank cannot make the replicas diverge.
	envFail func(rank int) error
}

// NewDataParallelFEKF builds a trainer with `workers` ranks replicated
// from the given model, communicating over the in-process channel
// transport.
func NewDataParallelFEKF(workers int, m *deepmd.Model) *DataParallelFEKF {
	return NewDataParallelFEKFOver(NewRing(workers, RoCE25()), m)
}

// NewDataParallelFEKFOver builds a trainer whose ranks communicate over an
// existing ring — e.g. one constructed over the TCP-loopback transport or
// a fault-injecting wrapper.  The trainer has ring.Size() ranks.
func NewDataParallelFEKFOver(ring *Ring, m *deepmd.Model) *DataParallelFEKF {
	workers := ring.Size()
	dp := &DataParallelFEKF{Settings: optimize.DefaultSettings(), ring: ring}
	for w := 0; w < workers; w++ {
		dev := device.New(fmt.Sprintf("gpu%d", w), device.A100())
		dp.devs = append(dp.devs, dev)
		dp.replicas = append(dp.replicas, m.CloneFor(dev))
	}
	return dp
}

// SetEnvFail installs (or clears, with nil) the per-rank environment-build
// failure hook; the cross-transport consistency tests use it to prove a
// failing rank cannot make the replicas diverge on any transport.
func (dp *DataParallelFEKF) SetEnvFail(f func(rank int) error) { dp.envFail = f }

// Name implements the optimizer naming convention.
func (dp *DataParallelFEKF) Name() string {
	return fmt.Sprintf("FEKF[%d GPUs]", dp.ring.Size())
}

// Workers returns the rank count.
func (dp *DataParallelFEKF) Workers() int { return dp.ring.Size() }

// Model returns rank 0's replica (for evaluation; all replicas agree).
func (dp *DataParallelFEKF) Model() *deepmd.Model { return dp.replicas[0] }

// State returns rank's P replica.  The replicas are created by the first
// Step (so that KCfg may be set after construction); State panics before.
func (dp *DataParallelFEKF) State(rank int) *optimize.KalmanState { return dp.states[rank] }

// Ring exposes the communicator for wire-byte accounting.
func (dp *DataParallelFEKF) Ring() *Ring { return dp.ring }

// Devices returns the per-rank simulated devices.
func (dp *DataParallelFEKF) Devices() []*device.Device { return dp.devs }

// ReplicaDrift returns the maximum absolute weight difference between rank
// 0 and any other rank — zero up to floating-point reduction order if the
// no-P-communication invariant holds.
func (dp *DataParallelFEKF) ReplicaDrift() float64 {
	ref := dp.replicas[0].Params.FlattenValues()
	worst := 0.0
	for _, r := range dp.replicas[1:] {
		v := r.Params.FlattenValues()
		for i := range v {
			d := v[i] - ref[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// chunkOf splits idx into the rank's contiguous share.
func chunkOf(idx []int, rank, size int) []int {
	lo := rank * len(idx) / size
	hi := (rank + 1) * len(idx) / size
	return idx[lo:hi]
}

// StepParams are the per-step scalars every rank of a distributed FEKF
// step must agree on (see optimize.Settings.Params).
type StepParams = optimize.StepParams

// RankStep executes one rank's role in a replicated distributed FEKF step
// over ring: the shared funnel schedule (optimize.FunnelStep) with the
// rank's dense P replica as the covariance backend.  Every rank must call
// it with the same StepParams; see FunnelStep for the zero-partial,
// count-gate and abort semantics that keep the replicas bit-identical.
func RankStep(ring *Ring, rank int, m *deepmd.Model, ks *optimize.KalmanState, p StepParams, ds *dataset.Dataset, idx []int, inject func() error) (optimize.StepInfo, error) {
	return optimize.FunnelStep(ring.Reducer(rank), rank, m, ks, p, ds, idx, inject)
}

// Step performs one distributed FEKF iteration over the minibatch idx,
// chunking it contiguously across the ranks and running each rank's
// RankStep concurrently.  A rank whose environment build fails still runs
// every collective with zero partials and applies the same reduced
// updates (see optimize.FunnelStep), so the replicas cannot diverge; the
// joined rank errors are returned and training may safely continue.
func (dp *DataParallelFEKF) Step(ds *dataset.Dataset, idx []int) (optimize.StepInfo, error) {
	r := dp.ring.Size()
	if dp.states == nil {
		for w := 0; w < r; w++ {
			dp.states = append(dp.states,
				optimize.NewKalmanState(dp.KCfg, dp.replicas[w].Params.LayerSizes(), dp.devs[w]))
		}
	}
	p := dp.Params(len(idx), ds.Snapshots[idx[0]].NumAtoms())

	var wg sync.WaitGroup
	errs := make([]error, r)
	infos := make([]optimize.StepInfo, r)
	for w := 0; w < r; w++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var inject func() error
			if dp.envFail != nil {
				inject = func() error { return dp.envFail(rank) }
			}
			infos[rank], errs[rank] = RankStep(dp.ring, rank, dp.replicas[rank], dp.states[rank], p,
				ds, chunkOf(idx, rank, r), inject)
		}(w)
	}
	wg.Wait()
	return infos[0], errors.Join(errs...)
}

// ModeledIterationNs returns the modeled wall time of everything executed
// so far: the busiest rank's device time plus the communication time.
// With one host core the measured wall-clock of the simulation is not the
// experiment's metric; this is (see DESIGN.md).
func (dp *DataParallelFEKF) ModeledIterationNs() float64 {
	worst := 0.0
	for _, d := range dp.devs {
		if ns := d.Counters().ModeledNs; ns > worst {
			worst = ns
		}
	}
	return worst + dp.ring.ModeledNs()
}
